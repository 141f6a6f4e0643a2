"""Acceptance suite: one test per acceptance criterion, each ending in a
single pass/fail line (the pytest -v row; a matching line is also printed
for -s runs). Stated time budgets are asserted inside the tests.

The suite exercises the full pipeline end to end: logarithms of the two
classical laws over the trivial algebra, the equivalence between the
cobar 2-cocycle conditions and the group axioms for constant-plus-additive
laws, extraction and the twisted logarithm equation for every law the
earlier criteria accept, differential invariance, randomized
reconstruction round trips, inverse series in closed form, the classical
specialization against an independent scalar oracle, Hopf axiom
verification with mutation detection, and a large-order associativity
run.
"""

import functools
import random
import time
from fractions import Fraction

from fglog import (
    INF,
    Q,
    Series,
    TensorElement,
    associativity_defect,
    builtin_algebra,
    check_axioms,
    check_cocycle,
    check_log,
    coboundary,
    cocycle_defect,
    extract_cocycle,
    invariant_differential,
    inverse_series,
    lemma_law,
    logarithm,
    rational,
    reconstruct,
    specialize,
    symmetry_defect,
    verify_hopf_axioms,
)
from classical import additivity_defect, classical_logarithm
from fglog.exprparse import parse_element, parse_tensor
from fglog.generate import random_cocycle, random_logarithm, \
    random_symmetric_candidate


def _line(n, msg):
    print(f"criterion {n:02d}: pass ({msg})")


def _frac(q):
    return Fraction(int(q.numerator), int(q.denominator))


def _classical_dict(F, order):
    """Two-variable law with all Hopf slots collapsed by the counit, as
    {(i, j): Fraction} for the scalar oracle."""
    out = {}
    for exps, coeff in specialize(F.truncate(order)).terms.items():
        q = coeff.full_counit()
        if q:
            out[exps] = _frac(q)
    return out


@functools.lru_cache(maxsize=None)
def _trivial_laws():
    """Multiplicative law x + y + xy (complete polynomial) and the tanh
    addition law (x + y)/(1 + xy) stored through total degree 9."""
    triv = builtin_algebra("trivial")
    x = Series.variable(triv, 2, 2, 0, names=("x", "y"))
    y = Series.variable(triv, 2, 2, 1, names=("x", "y"))
    mult = x + y + x * y
    one2 = TensorElement.unit(triv, 2)
    terms = {}
    for k in range(5):
        q = rational((-1) ** k)
        terms[(k + 1, k)] = one2 * q
        terms[(k, k + 1)] = one2 * q
    tanh = Series(triv, 2, 2, terms, 9, ("x", "y"))
    return mult, tanh


@functools.lru_cache(maxsize=None)
def _passing_suite():
    """Every group law the earlier criteria accept, as tuples
    (name, F, verified order, expected constant cocycle)."""
    mult, tanh = _trivial_laws()
    triv = mult.algebra
    qt2 = builtin_algebra("qt2")
    tt = parse_tensor("t (x) t", qt2, arity=2)
    t2 = parse_element("t^2", qt2)
    t3 = parse_element("t^3", qt2)
    entries = [
        ("multiplicative", mult, 12, TensorElement.zero(triv, 2)),
        ("tanh sum", tanh, 8, TensorElement.zero(triv, 2)),
    ]
    for name, c in (
        ("c = 0", TensorElement.zero(qt2, 2)),
        ("c = 2(t x t)", tt * 2),
        ("c = d(t^2)", coboundary(t2)),
        ("c = d(t^3)", coboundary(t3)),
        ("c = d(t^2 + 2 t^3)", coboundary(t2 + t3 * 2)),
    ):
        entries.append((name, lemma_law(qt2, c), 6, c))
    # a reconstructed law whose logarithm mixes scalar and Hopf parts
    g = Series(qt2, 1, 1, {
        (1,): TensorElement.unit(qt2, 1),
        (2,): TensorElement.unit(qt2, 1) * rational("1/2"),
        (3,): parse_element("t", qt2),
    }, INF, ("x",))
    F = reconstruct(qt2, TensorElement.zero(qt2, 2), g, order=7)
    entries.append(("reconstructed, c = 0", F, 6, TensorElement.zero(qt2, 2)))
    return tuple(entries)


def test_criterion_01_multiplicative_logarithm():
    started = time.perf_counter()
    mult, _ = _trivial_laws()
    g = logarithm(mult, order=12)
    elapsed = time.perf_counter() - started
    one1 = TensorElement.unit(mult.algebra, 1)
    expected = Series(mult.algebra, 1, 1,
                      {(n,): one1 * rational(Fraction((-1) ** (n + 1), n))
                       for n in range(1, 13)},
                      12, ("x",))
    assert g == expected
    assert elapsed < 1.0
    _line(1, f"alternating harmonic coefficients through order 12, "
             f"{elapsed:.3f}s")


def test_criterion_02_tanh_logarithm_is_arctanh():
    _, tanh = _trivial_laws()
    g = logarithm(tanh, order=9)
    one1 = TensorElement.unit(tanh.algebra, 1)
    expected = Series(tanh.algebra, 1, 1,
                      {(n,): one1 * rational(Fraction(1, n))
                       for n in (1, 3, 5, 7, 9)},
                      9, ("x",))
    assert g == expected
    # independent scalar oracle on the counit specialization
    coeffs = classical_logarithm(_classical_dict(tanh, 9), 9)
    assert coeffs == [Fraction(1, n) if n % 2 else Fraction(0)
                      for n in range(1, 10)]
    _line(2, "odd reciprocal coefficients through order 9, oracle agrees")


def test_criterion_03_cocycle_condition_matches_group_axioms():
    started = time.perf_counter()
    alg = builtin_algebra("qt2")
    tt = parse_tensor("t (x) t", alg, arity=2)
    t2t2 = parse_tensor("t^2 (x) t^2", alg, arity=2)
    t2 = parse_element("t^2", alg)
    t3 = parse_element("t^3", alg)

    # NOTE: 3(t x t) + t^2 x t^2 is listed as acceptable, but its cobar
    # defect is nonzero, so check_cocycle and check_axioms both reject
    # it; the assertion at the end reports this honestly.
    expected_accepted = [
        ("0", TensorElement.zero(alg, 2)),
        ("2(t x t)", tt * 2),
        ("3(t x t) + t^2 x t^2", tt * 3 + t2t2),
        ("d(t^2)", coboundary(t2)),
        ("d(t^3)", coboundary(t3)),
        ("d(t^2 + 2 t^3)", coboundary(t2 + t3 * 2)),
    ]
    expected_rejected = [
        ("t x t^2", parse_tensor("t (x) t^2", alg, arity=2)),
        ("t x 1", parse_tensor("t (x) 1", alg, arity=2)),
        ("t^2 x t - t x t^2",
         parse_tensor("t^2 (x) t", alg, arity=2)
         - parse_tensor("t (x) t^2", alg, arity=2)),
    ]

    failures = []
    for name, c in expected_accepted:
        rep_c = check_cocycle(c)
        rep_f = check_axioms(lemma_law(alg, c), order=6)
        if not (rep_c.passed and rep_f.passed):
            failures.append(
                f"{name}: expected acceptance, but check_cocycle "
                f"{'passed' if rep_c.passed else 'failed'} and check_axioms "
                f"{'passed' if rep_f.passed else 'failed'}"
                + ("" if rep_c.passed
                   else f"; cobar defect {cocycle_defect(c)}"))

    for name, c in expected_rejected:
        rep_c = check_cocycle(c)
        F = lemma_law(alg, c)
        rep_f = check_axioms(F, order=6)
        assert not rep_c.passed, name
        assert not rep_f.passed, name
        # matching defect loci on both sides of the correspondence
        c_axioms = {v.axiom for v in rep_c.violations}
        f_axioms = {v.axiom for v in rep_f.violations}
        if "cocycle" in c_axioms:
            assert "associativity" in f_axioms, name
            assert (associativity_defect(F).coeff((0, 0, 0))
                    == cocycle_defect(c)), name
        if "counit" in c_axioms:
            assert "unit" in f_axioms, name
        skew = c - c.permute((1, 0))
        if not skew.is_zero():
            assert "symmetry" in f_axioms, name
            assert symmetry_defect(F).coeff((0, 0)) == skew, name

    rng = random.Random(31415926)
    accepted = 0
    for _ in range(200):
        c = random_symmetric_candidate(alg, rng)
        left = check_cocycle(c).passed
        right = check_axioms(lemma_law(alg, c), order=6).passed
        assert left == right, str(c)
        accepted += left
    assert 0 < accepted < 200  # the sample exercises both outcomes

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert not failures, "stated acceptance set not attainable:\n  " \
        + "\n  ".join(failures)
    _line(3, f"fixed sets and 200 randomized candidates, {elapsed:.1f}s")


def test_criterion_04_extraction_and_log_equation():
    for name, F, order, expected_c in _passing_suite():
        c = extract_cocycle(F, order=order)
        assert c == expected_c, name
        assert check_cocycle(c).passed, name
        slack = F.constant_term().nilpotency_slack()
        g_order = order + 1 + slack
        if F.order != INF:
            g_order = min(g_order, F.order)
        g = logarithm(F, order=g_order)
        rep = check_log(F, g, order=order)
        assert rep.passed and rep.certified_order == order, name
    _line(4, f"{len(_passing_suite())} accepted laws, both routes")


def test_criterion_05_differential_invariance():
    # (Delta omega)(F(X, Y)) = (omega(X) (x) 1) * dF/dX, the invariance
    # of the differential denominator under left translation
    for name, F, order, _ in _passing_suite():
        omega = invariant_differential(F)
        lifted = omega.map_coefficients(lambda A: A.apply_slot(0, "comul"))
        lhs = lifted.substitute([F])
        rhs = (omega.map_coefficients(lambda A: A.embed(2, (0,)))
               .embed_vars(2, (0,), F.names) * F.derivative(0))
        defect = lhs - rhs
        assert defect.order >= order, name
        assert defect.truncate(order).is_zero(), name
    _line(5, "coproduct of the differential composed with F stays flat")


def test_criterion_06_randomized_round_trips():
    started = time.perf_counter()
    alg = builtin_algebra("qt1", degree_bound=6)
    tm = alg.generator_mono("t")
    pool = [alg.unit_mono, tm, alg.mul_mono(tm, tm)]
    rng = random.Random(20260817)
    for trial in range(25):
        g = random_logarithm(alg, rng, order=6, coeff_pool=pool)
        c = random_cocycle(alg, rng)
        F = reconstruct(alg, c, g, order=6)
        g_rec = logarithm(F, order=6)
        c_rec = extract_cocycle(F)
        assert g.max_degree() <= 6, trial
        assert g_rec == g.truncate(6), trial
        assert c_rec == c, trial
        # rebuild from the recovered data alone; the equality above
        # certifies g_rec as the complete polynomial
        F2 = reconstruct(alg, c_rec, g_rec.with_order(INF), order=6)
        assert F2 == F, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _line(6, f"25 generated pairs recovered exactly, {elapsed:.1f}s")


def test_criterion_07_inverse_series_closed_form():
    qt2 = builtin_algebra("qt2")
    tt = parse_tensor("t (x) t", qt2, arity=2)
    t2 = parse_element("t^2", qt2)
    t3 = parse_element("t^3", qt2)
    one1 = TensorElement.unit(qt2, 1)
    for label, c in (("2(t x t)", tt * 2),
                     ("d(t^2 + 2 t^3)", coboundary(t2 + t3 * 2))):
        theta = inverse_series(lemma_law(qt2, c), order=8)
        folded = c.apply_slot(1, "antipode").contract_mul((0, 1))
        assert theta.coeff((0,)) == -folded, label
        assert theta.coeff((1,)) == -one1, label
        assert all(theta.coeff((n,)).is_zero() for n in range(2, 9)), label
    # c = 2(t x t) folds to -2 t^2, so the inverse is 2 t^2 - x exactly
    witness = inverse_series(lemma_law(qt2, tt * 2), order=8)
    assert witness.coeff((0,)) == t2 * 2

    mult, _ = _trivial_laws()
    theta = inverse_series(mult, order=10)
    one1 = TensorElement.unit(mult.algebra, 1)
    expected = Series(mult.algebra, 1, 1,
                      {(n,): one1 * rational((-1) ** n)
                       for n in range(1, 11)},
                      10, theta.names)
    assert theta == expected
    _line(7, "antipode fold constant for lemma laws, geometric "
             "alternation for the multiplicative law")


def test_criterion_08_counit_specialization_matches_oracle():
    for name, F, order, _ in _passing_suite():
        scalar_law = _classical_dict(F, order)
        coeffs = classical_logarithm(scalar_law, order)
        g = logarithm(F, order=order)
        for n in range(1, order + 1):
            assert _frac(g.coeff((n,)).full_counit()) == coeffs[n - 1], name
        assert additivity_defect(coeffs, scalar_law, order) == {}, name
    _line(8, "counit specialization of the logarithm matches the scalar "
             "oracle and is additive")


def test_criterion_09_hopf_axioms_and_mutation_detection():
    for name in ("trivial", "qt1", "qt2", "qtu"):
        rep = verify_hopf_axioms(builtin_algebra(name, degree_bound=8))
        assert rep.passed, name

    qt1 = builtin_algebra("qt1")
    qt2 = builtin_algebra("qt2")
    qtu = builtin_algebra("qtu")
    tm, um = qt1.generator_mono("t"), qt1.unit_mono
    tu, uu, unit_u = (qtu.generator_mono("t"), qtu.generator_mono("u"),
                      qtu.unit_mono)
    t2u = qtu.mul_mono(tu, tu)
    mutations = [
        ("drop the 1 x t leg of Delta t",
         qt1.mutated(comul={"t": {(tm, um): Q(1)}}),
         {"counit"}),
        ("scale the 1 x t leg of Delta t by 2",
         qt1.mutated(comul={"t": {(tm, um): Q(1), (um, tm): Q(2)}}),
         {"coassociativity", "counit"}),
        ("add a t x t^2 leg to Delta u",
         qtu.mutated(comul={"u": {(uu, unit_u): Q(1), (unit_u, uu): Q(1),
                                  (tu, t2u): Q(1)}}),
         {"coassociativity"}),
        ("flip the sign of the antipode on t",
         qt1.mutated(antipode={"t": {tm: Q(1)}}),
         {"antipode"}),
        ("set counit(t) = 1",
         qt2.mutated(counit={"t": Q(1)}),
         {"counit", "counit-multiplicative"}),
    ]
    assert len(mutations) == 5
    for label, mutant, expected_axioms in mutations:
        rep = verify_hopf_axioms(mutant)
        assert not rep.passed, label
        found = {v.axiom for v in rep.violations}
        assert found & expected_axioms, (label, found)
    _line(9, "4 built-ins pass, 5 single-constant mutations detected")


def test_criterion_10_large_order_associativity():
    started = time.perf_counter()
    alg = builtin_algebra("qt1", degree_bound=10)
    tm = alg.generator_mono("t")
    t2m = alg.mul_mono(tm, tm)
    g = Series(alg, 1, 1, {
        (1,): TensorElement.unit(alg, 1),
        (2,): TensorElement(alg, 1, {(tm,): Q(1)}),
        (3,): TensorElement(alg, 1, {(t2m,): Q(1, 2)}),
    }, INF, ("x",))
    F = reconstruct(alg, TensorElement.zero(alg, 2), g, order=16)
    defect = associativity_defect(F)
    elapsed = time.perf_counter() - started
    assert F.order == 16
    assert defect.nvars == 3 and defect.order == 16
    assert defect.is_zero()
    assert elapsed < 10.0
    _line(10, f"order 16, three variables, degree bound 10, {elapsed:.1f}s")
