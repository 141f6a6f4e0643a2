"""Hopf kernel: products, coproducts, counit, antipode, tensor slot
operations, axiom verification and its sensitivity to broken tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglog import (
    AlgebraMismatch,
    ArityMismatch,
    DegreeOverflow,
    HopfAlgebra,
    HopfElement,
    NonInvertibleConstantTerm,
    SpecError,
    TensorElement,
    build_hopf_algebra,
    builtin_algebra,
    verify_hopf_axioms,
)
from fglog.scalars import ONE, Q, ZERO
from test_fgl import QTU_HALF, bad_coassociative_algebra, recorded_calls


def gen(algebra, name):
    return HopfElement.generator(algebra, name)


class TestAlgebraStructure:
    def test_monomial_basis_respects_degree_bound(self, qt1):
        degs = sorted(qt1.degree(m) for m in qt1.monomials())
        assert degs == list(range(0, 9))

    def test_product_truncates_above_bound(self, qt1):
        t = gen(qt1, "t")
        assert ((t ** 5) * (t ** 4)).is_zero()
        nine = (t ** 5) * (t ** 4)
        assert nine.truncated

    def test_product_within_bound(self, qt1):
        t = gen(qt1, "t")
        p = (2 * t + 1) * (t - 3)
        assert p == 2 * t ** 2 - 5 * t - 3

    def test_mixed_generators(self, qtu):
        t, u = gen(qtu, "t"), gen(qtu, "u")
        assert qtu.degree(qtu.mul_mono(qtu.generator_mono("t"),
                                       qtu.generator_mono("u"))) == 4
        assert ((t ** 3) * (u ** 2)).is_zero()  # degree 9 > 8
        assert not (t * u).is_zero()

    def test_degree_bound_zero_only_unit(self, trivial):
        assert list(trivial.monomials()) == [trivial.unit_mono]


class TestCoproduct:
    def test_primitive_generator(self, qt1):
        t = gen(qt1, "t")
        expected = (TensorElement.from_slots(t, HopfElement.one(qt1))
                    + TensorElement.from_slots(HopfElement.one(qt1), t))
        assert t.comul() == expected

    def test_binomial_powers(self, qt1):
        t = gen(qt1, "t")
        one = HopfElement.one(qt1)
        d3 = (t ** 3).comul()
        expected = (TensorElement.from_slots(t ** 3, one)
                    + 3 * TensorElement.from_slots(t ** 2, t)
                    + 3 * TensorElement.from_slots(t, t ** 2)
                    + TensorElement.from_slots(one, t ** 3))
        assert d3 == expected

    def test_multiplicativity(self, qtu):
        t, u = gen(qtu, "t"), gen(qtu, "u")
        a, b = t + u, t ** 2 - u
        assert (a * b).comul() == a.comul() * b.comul()

    def test_coproduct_truncation_is_quotient_compatible(self, qt1):
        # (t^5).comul() keeps only tensors with both legs <= bound; in
        # particular it is still counital.
        t5 = gen(qt1, "t") ** 5
        d = t5.comul()
        assert d.apply_slot(1, "counit") == t5
        assert d.apply_slot(0, "counit") == t5


class TestCounitAntipode:
    def test_counit_picks_constant_term(self, qt1):
        t = gen(qt1, "t")
        assert (2 + 3 * t - 5 * t ** 2).counit() == Q(2)

    def test_antipode_on_primitives(self, qt1):
        t = gen(qt1, "t")
        assert t.antipode() == -t
        assert (t ** 2).antipode() == t ** 2
        assert (t ** 3).antipode() == -(t ** 3)

    def test_antipode_axiom_contraction(self, qt1):
        # mu . (S x id) . Delta = eta . eps on a sample element
        el = 1 + 2 * gen(qt1, "t") + gen(qt1, "t") ** 2
        folded = el.comul().apply_slot(0, "antipode").contract_mul()
        assert folded == HopfElement.from_scalar(qt1, el.counit())

    def test_antipode_multiplicative_on_mixed(self, qtu):
        t, u = gen(qtu, "t"), gen(qtu, "u")
        assert (t * u).antipode() == (t.antipode()) * (u.antipode())


class TestTensorOps:
    def test_tensor_product_slotwise(self, qt1):
        t = gen(qt1, "t")
        a = TensorElement.from_slots(t, t)
        b = TensorElement.from_slots(t, t ** 2)
        assert a * b == TensorElement.from_slots(t ** 2, t ** 3)

    def test_tensor_truncation_flags(self, qt1):
        t = gen(qt1, "t")
        a = TensorElement.from_slots(t ** 5, t)
        b = TensorElement.from_slots(t ** 4, t)
        prod = a * b
        assert prod.is_zero() and prod.truncated

    def test_apply_slot_comul_raises_arity(self, qt1):
        t = gen(qt1, "t")
        a = TensorElement.from_slots(t, t)
        out = a.apply_slot(1, "comul")
        assert out.arity == 3
        # primitive: t x (t x 1 + 1 x t)
        one = HopfElement.one(qt1)
        assert out == (TensorElement.from_slots(t, t, one)
                       + TensorElement.from_slots(t, one, t))

    def test_contract_mul_adjacent(self, qt1):
        t = gen(qt1, "t")
        a = 2 * TensorElement.from_slots(t, t)
        assert a.apply_slot(0, "antipode").contract_mul() == \
            TensorElement.from_slots(-2 * t ** 2)

    def test_embed_positions(self, qt1):
        t = gen(qt1, "t")
        a = TensorElement.from_slots(t, t ** 2)
        one = HopfElement.one(qt1)
        assert a.embed(3, (0, 2)) == TensorElement.from_slots(t, one, t ** 2)
        assert a.embed(3, (1, 2)) == TensorElement.from_slots(one, t, t ** 2)
        with pytest.raises(ArityMismatch):
            a.embed(3, (2, 0))

    def test_permute(self, qt1):
        t = gen(qt1, "t")
        a = TensorElement.from_slots(t, t ** 2)
        assert a.permute((1, 0)) == TensorElement.from_slots(t ** 2, t)

    def test_full_counit(self, qt1):
        t = gen(qt1, "t")
        el = TensorElement.unit(qt1, 2) * 3 + TensorElement.from_slots(t, t)
        assert el.full_counit() == Q(3)

    def test_tensor_mul_inverse(self, qt1):
        t = gen(qt1, "t")
        el = TensorElement.unit(qt1, 2) + TensorElement.from_slots(t, t)
        inv = el.mul_inverse()
        assert el * inv == TensorElement.unit(qt1, 2)
        with pytest.raises(NonInvertibleConstantTerm):
            TensorElement.from_slots(t, t).mul_inverse()

    def test_nilpotency_slack(self, qt1):
        # tensors are truncated by total degree across slots: (t x t)^m has
        # total degree 2m, so the slack at bound 8 is 4
        t = gen(qt1, "t")
        tt = TensorElement.from_slots(t, t)
        assert tt.nilpotency_slack() == 4
        assert TensorElement.from_slots(t ** 3, t).nilpotency_slack() == 2

    def test_total_degree_truncation(self, qt1):
        t = gen(qt1, "t")
        wide = TensorElement.from_slots(t ** 5, t ** 4)
        assert wide.is_zero() and wide.truncated
        kept = TensorElement.from_slots(t ** 5, t ** 3)
        assert not kept.is_zero()


class TestBuildAndValidate:
    def test_build_from_description(self):
        desc = {
            "generators": [{"name": "t", "degree": 2}],
            "degree_bound": 6,
            "coproduct": {"t": "primitive"},
        }
        H = build_hopf_algebra(desc)
        assert H.degrees == (2,)
        assert verify_hopf_axioms(H).passed

    def test_build_rejects_inhomogeneous_table(self):
        desc = {
            "generators": [{"name": "t", "degree": 1},
                           {"name": "u", "degree": 3}],
            "degree_bound": 8,
            "coproduct": {
                "u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                      [["t"], ["t"], "1"]],
            },
        }
        with pytest.raises(SpecError):
            build_hopf_algebra(desc)

    def test_build_rejects_degree_overflow(self):
        desc = {
            "generators": [{"name": "t", "degree": 9}],
            "degree_bound": 8,
        }
        with pytest.raises(DegreeOverflow):
            build_hopf_algebra(desc)

    def test_build_rejects_noncounital_table(self):
        desc = {
            "generators": [{"name": "t", "degree": 1}],
            "degree_bound": 4,
            "coproduct": {"t": [[["t"], ["1"], "1"], [["1"], ["t"], "2"]]},
        }
        with pytest.raises(SpecError):
            build_hopf_algebra(desc)


class TestAxiomVerification:
    def test_builtins_pass(self, qt1, qt2, qtu, trivial):
        for H in (qt1, qt2, qtu, trivial):
            rep = verify_hopf_axioms(H)
            assert rep.passed and not rep.violations

    def test_counit_mutation_detected(self, qt1):
        tm, um = qt1.generator_mono("t"), qt1.unit_mono
        M = qt1.mutated(comul={"t": {(tm, um): Q(1)}})
        rep = verify_hopf_axioms(M)
        assert not rep.passed
        assert rep.violations[0].axiom == "counit"

    def test_scaled_leg_mutation_detected(self, qt1):
        # Delta t = t x 1 + 2 (1 x t) breaks both coassociativity (defect
        # 2 (1 x 1 x t)) and the left counit identity; the first failing
        # check is reported.
        tm, um = qt1.generator_mono("t"), qt1.unit_mono
        M = qt1.mutated(comul={"t": {(tm, um): Q(1), (um, tm): Q(2)}})
        rep = verify_hopf_axioms(M)
        assert not rep.passed
        assert rep.violations[0].axiom in ("coassociativity", "counit")

    def test_coassociativity_mutation_detected(self, qtu):
        tm = qtu.generator_mono("t")
        um, unit = qtu.generator_mono("u"), qtu.unit_mono
        t2 = qtu.mul_mono(tm, tm)
        table = {(um, unit): Q(1), (unit, um): Q(1), (tm, t2): Q(1)}
        M = qtu.mutated(comul={"u": table})
        rep = verify_hopf_axioms(M)
        assert not rep.passed
        assert rep.violations[0].axiom == "coassociativity"
        # defect (Delta x id - id x Delta) Delta u = 2 t x t x t^2-side terms
        assert rep.violations[0].defect is not None

    def test_antipode_mutation_detected(self, qt1):
        t = gen(qt1, "t")
        M = qt1.mutated(antipode={"t": t})
        rep = verify_hopf_axioms(M)
        assert not rep.passed
        assert rep.violations[0].axiom == "antipode"

    def test_counit_value_mutation_detected(self, qt1):
        M = qt1.mutated(counit={"t": Q(1)})
        rep = verify_hopf_axioms(M)
        assert not rep.passed
        assert rep.violations[0].axiom in ("counit", "counit-multiplicative")


def reference_verify_hopf_axioms(algebra):
    """verify_hopf_axioms with the pair loop that forms the coproducts of
    m1, m2 and m1 m2 for every pair, and again for the defect."""
    from fglog.report import Report, Violation
    monos = algebra.monomials()
    for m in monos:
        el = TensorElement(algebra, 1, {(m,): ONE})
        dm = el.comul()
        left = dm.apply_slot(0, "comul")
        right = dm.apply_slot(1, "comul")
        if left != right:
            return Report.fail([Violation(
                "coassociativity", right - left,
                f"at monomial {algebra.mono_str(m)}")])
        for slot, side in ((0, "left"), (1, "right")):
            reduced = dm.apply_slot(slot, "counit")
            if reduced != el:
                return Report.fail([Violation(
                    "counit", reduced - el,
                    f"{side} counit fails at monomial "
                    f"{algebra.mono_str(m)}")])
        s_applied = dm.apply_slot(0, "antipode").contract_mul((0, 1))
        target = TensorElement.from_scalar(algebra, 1, el.counit())
        if s_applied != target:
            return Report.fail([Violation(
                "antipode", s_applied - target,
                f"mu(S x id)Delta != eta eps at monomial "
                f"{algebra.mono_str(m)}")])
    for i, m1 in enumerate(monos):
        d1 = algebra.degree(m1)
        for m2 in monos[i:]:
            if d1 + algebra.degree(m2) > algebra.degree_bound:
                continue
            e1 = TensorElement(algebra, 1, {(m1,): ONE})
            e2 = TensorElement(algebra, 1, {(m2,): ONE})
            prod = e1 * e2
            if prod.comul() != e1.comul() * e2.comul():
                return Report.fail([Violation(
                    "comul-multiplicative",
                    e1.comul() * e2.comul() - prod.comul(),
                    f"at {algebra.mono_str(m1)} * {algebra.mono_str(m2)}")])
            if prod.counit() != e1.counit() * e2.counit():
                return Report.fail([Violation(
                    "counit-multiplicative", None,
                    f"at {algebra.mono_str(m1)} * {algebra.mono_str(m2)}")])
    return Report.ok()


def _mutations():
    """(name, algebra): the builtins, a degree-bounded QTU_HALF and
    mutated tables that fail each per-monomial axiom, among them a table
    that is not degree-homogeneous."""
    qt1, qtu = builtin_algebra("qt1"), builtin_algebra("qtu")
    tm, unit = qt1.generator_mono("t"), qt1.unit_mono
    t = gen(qt1, "t")
    ut, uu, u1 = (qtu.generator_mono("t"), qtu.generator_mono("u"),
                  qtu.unit_mono)
    yield "qt1", qt1
    yield "qtu", qtu
    yield "trivial", builtin_algebra("trivial")
    yield "qtu_half", build_hopf_algebra(QTU_HALF)
    yield "counit", qt1.mutated(comul={"t": {(tm, unit): Q(1)}})
    yield "scaled-leg", qt1.mutated(
        comul={"t": {(tm, unit): Q(1), (unit, tm): Q(2)}})
    yield "coassociativity", qtu.mutated(comul={"u": {
        (uu, u1): Q(1), (u1, uu): Q(1), (ut, qtu.mul_mono(ut, ut)): Q(1)}})
    yield "antipode", qt1.mutated(antipode={"t": t})
    yield "counit-value", qt1.mutated(counit={"t": Q(1)})
    yield "grouplike", qt1.mutated(
        comul={"t": {(tm, unit): Q(1), (unit, tm): Q(1), (tm, tm): Q(1)}})


class TestOneCoproductPerMonomial:
    """verify_hopf_axioms forms each monomial's coproduct once and reads
    the pair loop's coproducts and counits from it: the same first
    violation and defect tensor as the loop that formed them per pair."""

    @pytest.mark.parametrize("name, algebra", list(_mutations()),
                             ids=[name for name, _ in _mutations()])
    def test_matches_per_pair_loop(self, name, algebra):
        def shown(report):
            return (report.passed,
                    [(v.axiom, v.detail, v.defect,
                      getattr(v.defect, "truncated", None))
                     for v in report.violations])
        assert shown(verify_hopf_axioms(algebra)) == shown(
            reference_verify_hopf_axioms(algebra))

    @pytest.mark.parametrize("name", ["trivial", "qt1", "qtu"])
    def test_one_coproduct_per_monomial(self, name, monkeypatch):
        algebra = builtin_algebra(name)
        comul = recorded_calls(monkeypatch, TensorElement, "comul")
        assert verify_hopf_axioms(algebra).passed
        assert len(comul) == len(algebra.monomials())


def reference_coassociative(algebra):
    """(Delta (x) id)Delta = (id (x) Delta)Delta on every basis monomial."""
    return all(d.apply_slot(0, "comul") == d.apply_slot(1, "comul")
               for d in (TensorElement(algebra, 1, {(m,): ONE}).comul()
                         for m in algebra.monomials()))


@st.composite
def _three_generator_algebras(draw):
    """Q[a, b, c] at degrees 1-3 and bound 3-6, each coproduct primitive
    plus a few random terms x (x) y of positive degrees summing to the
    generator's: homogeneous and counital, often not coassociative."""
    degrees = sorted(draw(st.lists(st.integers(1, 3), min_size=3,
                                   max_size=3)))
    bound = draw(st.integers(3, 6))
    probe = HopfAlgebra("abc", degrees, bound, [{}] * 3)
    tables = []
    for name, d in zip("abc", degrees):
        gen, unit = probe.generator_mono(name), probe.unit_mono
        table = {(gen, unit): ONE, (unit, gen): ONE}
        pairs = [(x, y) for x in probe.monomials() for y in probe.monomials()
                 if probe.degree(x) and probe.degree(y)
                 and probe.degree(x) + probe.degree(y) == d]
        if pairs:
            for pair in draw(st.lists(st.sampled_from(pairs), max_size=3)):
                table[pair] = table.get(pair, ZERO) + draw(_RATIONALS)
        tables.append(table)
    return HopfAlgebra("abc", degrees, bound, tables)


class TestCoassociative:
    """HopfAlgebra.coassociative, decided on the generators, agrees with
    coassociativity on every basis monomial; a table that lowers a degree
    gives False."""

    @pytest.mark.parametrize("name, algebra", list(_mutations()),
                             ids=[name for name, _ in _mutations()])
    def test_matches_every_monomial(self, name, algebra):
        assert algebra.coassociative == reference_coassociative(algebra)
        assert algebra.coassociative == (
            name not in ("coassociativity", "scaled-leg"))

    @settings(max_examples=150)
    @given(_three_generator_algebras())
    def test_random_tables(self, algebra):
        assert algebra.coassociative == reference_coassociative(algebra)

    def test_fixture_and_lowering_table(self, qtu):
        bad = bad_coassociative_algebra()
        assert not bad.coassociative
        assert not verify_hopf_axioms(bad).passed
        ut, uu, u1 = (qtu.generator_mono("t"), qtu.generator_mono("u"),
                      qtu.unit_mono)
        lowering = qtu.mutated(comul={"u": {
            (uu, u1): Q(1), (u1, uu): Q(1), (ut, u1): Q(1)}})
        assert lowering.lowers_degree() and not lowering.coassociative
        assert not qtu.lowers_degree() and qtu.coassociative


class TestElementBasics:
    def test_str_round_style(self, qt1):
        t = gen(qt1, "t")
        assert str(t ** 2 + 3 * t) == "3t + t^2"
        assert str(-t) == "-t"
        assert str(HopfElement.zero(qt1)) == "0"

    def test_scalar_coercion(self, qt1):
        t = gen(qt1, "t")
        assert 1 + t == t + 1
        assert (Q(1, 2) * t) * 2 == t

    def test_pow(self, qt1):
        t = gen(qt1, "t")
        assert t ** 0 == HopfElement.one(qt1)
        assert t ** 4 == t * t * t * t

    def test_algebra_equality_structural(self):
        a = builtin_algebra("qt1")
        b = builtin_algebra("qt1")
        assert a == b and hash(a) == hash(b)
        c = builtin_algebra("qt1", degree_bound=6)
        assert a != c


# -- the tensor product against the sorted-pairs loop it replaced -------------

def reference_tensor_mul(a, b):
    """Product of two tensors by the sorted-pairs loop over every pair of
    keys, with the slotwise key product inlined: a pair whose total degree
    leaves the degree bound is dropped and sets the `truncated` flag."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("tensors over different Hopf algebras")
    if a.arity != b.arity:
        raise ArityMismatch(f"tensor arity {a.arity} vs {b.arity}")
    alg = a.algebra
    bound = alg.degree_bound
    kdeg = alg.key_degree
    acc = {}
    truncated = a.truncated or b.truncated
    ib = sorted(((kdeg(k), k, q) for k, q in b.terms.items()))
    db_min = ib[0][0] if ib else 0
    for dka, ka, qa in sorted(((kdeg(k), k, q) for k, q in a.terms.items())):
        if dka + db_min > bound:
            truncated = True
            break
        for dkb, kb, qb in ib:
            if dka + dkb > bound:
                truncated = True
                break
            k = tuple(tuple(x + y for x, y in zip(ma, mb))
                      for ma, mb in zip(ka, kb))
            acc[k] = acc.get(k, ZERO) + qa * qb
    return TensorElement(alg, a.arity, acc, truncated)


def reference_comul_mono(alg, mono):
    """Coproduct of a monomial by the pair loop it had: the first
    generator's table times the coproduct of the rest, a pair dropped when
    either slot's product leaves the degree bound."""
    unit = alg.unit_mono
    if mono == unit:
        return {(unit, unit): ONE}
    i = next(j for j, e in enumerate(mono) if e)
    rest = reference_comul_mono(alg, mono[:i] + (mono[i] - 1,) + mono[i + 1:])
    acc = {}
    for (a1, b1), q1 in alg._gen_comul[i].items():
        for (a2, b2), q2 in rest.items():
            a, b = alg.mul_mono(a1, a2), alg.mul_mono(b1, b2)
            if a is not None and b is not None:
                acc[(a, b)] = acc.get((a, b), ZERO) + q1 * q2
    return {k: q for k, q in acc.items() if q != 0}


def reference_from_slots(*elements):
    """Tensor of elements of H by concatenating their keys, then
    normalizing: a key above the degree bound is dropped and sets the
    flag."""
    algebra = elements[0].algebra
    acc = {(): ONE}
    truncated = False
    for el in elements:
        if el.algebra != algebra:
            raise AlgebraMismatch("tensor slots over different algebras")
        if el.arity != 1:
            raise ArityMismatch("tensor slots must be elements of H")
        truncated = truncated or el.truncated
        acc = {key + k: q * qq for key, q in acc.items()
               for k, qq in el.terms.items()}
    return TensorElement(algebra, len(elements), acc, truncated)


_MIN_BOUND = {"trivial": 1, "qt1": 1, "qt2": 2, "qtu": 3}
_RATIONALS = st.builds(Q, st.integers(-3, 3), st.integers(1, 4))


@st.composite
def _algebras(draw):
    name = draw(st.sampled_from(sorted(_MIN_BOUND)))
    return builtin_algebra(name, draw(st.integers(_MIN_BOUND[name], 8)))


@st.composite
def _tensors(draw, algebra, arity):
    """A zero tensor, a rational multiple of the unit, or a few terms over
    low-degree monomials (their total degree may pass the bound, which
    drops them and flags the tensor), with a rare `truncated` flag."""
    kind = draw(st.sampled_from(["terms", "terms", "terms", "zero",
                                 "scalar"]))
    if kind == "zero":
        return TensorElement.zero(algebra, arity)
    if kind == "scalar":
        return TensorElement.from_scalar(algebra, arity, draw(_RATIONALS))
    monos = st.sampled_from(algebra.monomials())
    raw = {}
    for _ in range(draw(st.integers(0, 6))):
        key = tuple(draw(monos) for _ in range(arity))
        raw[key] = draw(_RATIONALS)
    return TensorElement(algebra, arity, raw,
                         draw(st.integers(0, 5).map(lambda n: n == 0)))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return value.arity, value.terms, value.truncated


class TestProductReference:
    @settings(max_examples=400)
    @given(st.data())
    def test_matches_sorted_pairs_loop(self, data):
        algebra = data.draw(_algebras())
        arity = data.draw(st.integers(1, 3))
        a = data.draw(_tensors(algebra, arity))
        other_algebra, other_arity = algebra, arity
        mismatch = data.draw(st.sampled_from([None] * 8 + ["arity",
                                                          "algebra"]))
        if mismatch == "arity":
            other_arity = arity % 3 + 1
        elif mismatch == "algebra":
            other_algebra = builtin_algebra(
                "qtu", 8 if algebra.degree_bound != 8 else 7)
        b = data.draw(_tensors(other_algebra, other_arity))
        want = _outcome(reference_tensor_mul, a, b)
        assert _outcome(lambda x, y: x * y, a, b) == want
        if mismatch is None:
            assert _outcome(lambda x, y: x * y, b, a) == _outcome(
                reference_tensor_mul, b, a)

    @settings(max_examples=60)
    @given(st.data())
    def test_comul_mono_matches_pair_loop(self, data):
        """The coproduct of every basis monomial, one tensor product per
        generator, is what the slotwise pair loop gave."""
        algebra = data.draw(_slot_algebras())
        for mono in algebra.monomials():
            assert algebra.comul_mono(mono) == reference_comul_mono(
                algebra, mono)

    @settings(max_examples=400)
    @given(st.data())
    def test_from_slots_matches_key_concatenation(self, data):
        algebra = data.draw(_algebras())
        arity = data.draw(st.integers(2, 3))
        elements = [data.draw(_tensors(algebra, 1)) for _ in range(arity)]
        mismatch = data.draw(st.sampled_from([None] * 8 + ["arity",
                                                          "algebra"]))
        if mismatch == "arity":
            elements[-1] = data.draw(_tensors(algebra, 2))
        elif mismatch == "algebra":
            elements[-1] = data.draw(_tensors(builtin_algebra(
                "qtu", 8 if algebra.degree_bound != 8 else 7), 1))
        assert _outcome(TensorElement.from_slots, *elements) == _outcome(
            reference_from_slots, *elements)

    def test_slots_above_the_bound_set_the_flag(self, qt1):
        """Slots whose key leaves the bound flag the tensor, unless another
        slot is zero: then no key is formed."""
        t = gen(qt1, "t")
        zero = HopfElement.zero(qt1)
        for slots, flag in (((t ** 5, t ** 4), True),
                            ((t ** 3, t ** 3, t ** 3 + 1), True),
                            ((t ** 5, t ** 4, zero), False)):
            assert TensorElement.from_slots(*slots).truncated is flag
            assert _outcome(TensorElement.from_slots, *slots) == _outcome(
                reference_from_slots, *slots)

    def test_dropped_pair_sets_the_flag(self, qt1):
        t = gen(qt1, "t")
        high = t ** 5
        assert not high.truncated
        prod = high * (t ** 4 + ONE)
        assert prod == high and prod.truncated
        assert not (high * HopfElement.zero(qt1)).truncated


# -- the slot maps against the per-map loops they replaced ---------------------

def reference_antipode_mono(alg, mono):
    """Antipode of a monomial as the product of its generators' antipodes,
    formed one generator at a time."""
    result = TensorElement.unit(alg, 1)
    if mono != alg.unit_mono:
        for i, e in enumerate(mono):
            gen_s = alg._antipode_gen(i, set())
            for _ in range(e):
                result = result * gen_s
    return result


def reference_apply_slot(el, slot, op):
    """A structure map in one slot by one loop per map."""
    if op not in ("comul", "counit", "antipode"):
        raise ValueError(f"unknown structure map {op!r}")
    if not 0 <= slot < el.arity:
        raise ArityMismatch(
            f"slot {slot} outside arity {el.arity}")
    alg = el.algebra
    if op == "comul":
        if el.arity + 1 > 3:
            raise ArityMismatch("comul would exceed arity 3")
        acc = {}
        for key, q in el.terms.items():
            for (a, b), qq in alg.comul_mono(key[slot]).items():
                k = key[:slot] + (a, b) + key[slot + 1:]
                acc[k] = acc.get(k, ZERO) + q * qq
        return TensorElement(alg, el.arity + 1, acc, el.truncated)
    if op == "counit":
        if el.arity - 1 < 1:
            raise ArityMismatch(
                "counit on arity 1 yields a scalar; use full_counit")
        acc = {}
        for key, q in el.terms.items():
            c = alg.counit_mono(key[slot])
            if c == 0:
                continue
            k = key[:slot] + key[slot + 1:]
            acc[k] = acc.get(k, ZERO) + q * c
        return TensorElement(alg, el.arity - 1, acc, el.truncated)
    acc = {}
    for key, q in el.terms.items():
        for (m,), qq in reference_antipode_mono(alg, key[slot]).terms.items():
            k = key[:slot] + (m,) + key[slot + 1:]
            acc[k] = acc.get(k, ZERO) + q * qq
    return TensorElement(alg, el.arity, acc, el.truncated)


def reference_contract_mul(el, slots=(0, 1)):
    """mu on two adjacent slots; a product above the bound sets the flag."""
    i, j = slots
    if j != i + 1 or not 0 <= i < j < el.arity:
        raise ArityMismatch(
            f"slots {slots} are not an adjacent pair in arity "
            f"{el.arity}")
    if el.arity - 1 < 1:
        raise ArityMismatch("contraction below arity 1")
    alg = el.algebra
    acc = {}
    truncated = el.truncated
    for key, q in el.terms.items():
        m = alg.mul_mono(key[i], key[j])
        if m is None:
            truncated = True
            continue
        k = key[:i] + (m,) + key[j + 1:]
        acc[k] = acc.get(k, ZERO) + q
    return TensorElement(alg, el.arity - 1, acc, truncated)


@st.composite
def _slot_algebras(draw):
    name = draw(st.sampled_from(sorted(_MIN_BOUND) + ["qtu_half"]))
    if name == "qtu_half":
        return build_hopf_algebra(dict(QTU_HALF, degree_bound=draw(
            st.integers(2, 8))))
    return builtin_algebra(name, draw(st.integers(_MIN_BOUND[name], 8)))


@st.composite
def _raw_tensors(draw, algebra, arity):
    """A tensor from _tensors, or one built from raw terms: one to six
    keys of basis monomials and of monomials up to twice the bound, so
    that a key's total degree often passes the bound (the constructor
    drops such a key and sets the flag), some coefficients zero, and a
    rare `truncated` flag."""
    if draw(st.booleans()):
        return draw(_tensors(algebra, arity))
    above = st.tuples(*[st.integers(0, 2 * algebra.degree_bound // d)
                        for d in algebra.degrees])
    monos = st.one_of(st.sampled_from(algebra.monomials()), above)
    raw = {}
    for _ in range(draw(st.integers(1, 6))):
        raw[tuple(draw(monos) for _ in range(arity))] = draw(_RATIONALS)
    return TensorElement(algebra, arity, raw,
                         draw(st.integers(0, 5).map(lambda n: n == 0)))


class TestSlotMapReference:
    """apply_slot and contract_mul run one loop over per-monomial images;
    they give what the loop per map gave: terms, arity, flag, and every
    exception with its message."""

    @settings(max_examples=400)
    @given(st.data())
    def test_apply_slot_matches(self, data):
        algebra = data.draw(_slot_algebras())
        arity = data.draw(st.integers(1, 3))
        el = data.draw(_raw_tensors(algebra, arity))
        slot = data.draw(st.integers(-1, arity))
        op = data.draw(st.sampled_from(
            ["comul", "counit", "antipode", "id", "flip"]))
        assert _outcome(el.apply_slot, slot, op) == _outcome(
            reference_apply_slot, el, slot, op)

    @settings(max_examples=400)
    @given(st.data())
    def test_contract_mul_matches(self, data):
        algebra = data.draw(_slot_algebras())
        arity = data.draw(st.integers(1, 3))
        el = data.draw(_raw_tensors(algebra, arity))
        i = data.draw(st.integers(-1, arity))
        slots = (i, data.draw(st.sampled_from([i, i + 1, i + 1, i + 2])))
        assert _outcome(el.contract_mul, slots) == _outcome(
            reference_contract_mul, el, slots)

    @pytest.mark.parametrize("key", [((5,), (4,)), ((2,), (3,), (5,))])
    def test_contract_above_the_bound_sets_the_flag(self, qt1, key):
        """A key of total degree 9 or 10 leaves the bound 8: the
        constructor drops it and sets the flag, which the contraction
        keeps."""
        low = ((1,),) * len(key)
        el = TensorElement(qt1, len(key), {key: ONE, low: ONE})
        out = el.contract_mul()
        assert out.terms == {((2,),) + low[2:]: ONE} and out.truncated
        assert _outcome(el.contract_mul) == _outcome(
            reference_contract_mul, el)
