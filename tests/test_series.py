"""Series engine: ring laws, certified-order bookkeeping, calculus,
substitution with nilpotent constants, both inverses."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fglog import (
    HopfElement,
    NonInvertibleConstantTerm,
    NonNilpotentConstantTerm,
    NonZeroConstantTerm,
    Series,
    ShapeMismatch,
    TensorElement,
    TruncationInsufficient,
    builtin_algebra,
)
from fglog import series as series_module
from fglog.fgl import _y_coefficients
from fglog.packed import _UNIT, _Codec, _Packed
from fglog.generate import random_logarithm
from fglog.scalars import Q

INF = math.inf


def unit_series(H, arity=1, nvars=1, order=INF):
    return Series.constant(TensorElement.unit(H, arity), nvars, order)


def var(H, arity=1, nvars=1, idx=0, order=INF):
    return Series.variable(H, arity, nvars, idx, order)


class TestRingBasics:
    def test_add_sub(self, qt1):
        x = var(qt1, order=8)
        assert (x + x - x) == x
        assert (x - x).is_zero()

    def test_mul_matches_pow(self, qt1):
        x = var(qt1, order=8)
        t = HopfElement.generator(qt1, "t")
        f = x + Series.constant(TensorElement.from_slots(t), 1, 8) * x * x
        assert f * f == f ** 2

    def test_scalar_scaling(self, qt1):
        x = var(qt1)
        assert 2 * x == x + x
        assert (Q(1, 3) * x) * 3 == x

    def test_coeff_lookup(self, qt1):
        x = var(qt1, order=5)
        f = x ** 2 * 3
        assert f.coeff((2,)) == TensorElement.unit(qt1, 1) * 3
        assert f.coeff((1,)).is_zero()

    def test_two_variable_product(self, qt1):
        X = var(qt1, 2, 2, 0, order=4)
        Y = var(qt1, 2, 2, 1, order=4)
        F = (X + Y) * (X - Y)
        assert F == X ** 2 - Y ** 2

    def test_shape_mismatch(self, qt1):
        with pytest.raises(ShapeMismatch):
            var(qt1, 1, 1, 0) + var(qt1, 1, 2, 0)


class TestOrderBookkeeping:
    def test_add_takes_min_order(self, qt1):
        a = var(qt1, order=5)
        b = var(qt1, order=3)
        assert (a + b).order == 3

    def test_mul_uses_valuations(self, qt1):
        # x certified to 4: x*x is certified to min(4+1, 4+1) = 5, and a
        # further factor certified to 3 with valuation 1 gives
        # min(5+1, 3+2) = 5
        x4 = var(qt1, order=4)
        x3 = var(qt1, order=3)
        f = x4 * x4
        g = x3
        assert f.order == 5 and g.order == 3
        assert (f * g).order == 5

    def test_polynomials_stay_exact(self, qt1):
        x = var(qt1)
        f = (1 + x) ** 3
        assert f.order == INF

    def test_truncate_drops_and_stamps(self, qt1):
        x = var(qt1)
        f = (unit_series(qt1) + x) ** 4
        g = f.truncate(2)
        assert g.order == 2
        assert g.max_degree() <= 2

    def test_truncate_to_minus_infinity(self, qt1):
        """A view (here a product) cut at -math.inf is what a series of
        stored terms gives: no terms, order -inf."""
        x = var(qt1)
        view = (unit_series(qt1) + x) * (unit_series(qt1) + x)
        stored = Series(qt1, 1, 1, view.terms)
        for f in (view * x, stored):
            cut = f.truncate(-INF)
            assert cut.is_zero() and cut.order == -INF

    def test_derivative_and_integral_shift_order(self, qt1):
        # x certified to 6, so x^3 is certified to 8 by the valuation rule
        x = var(qt1, order=6)
        f = x ** 3
        assert f.order == 8
        assert f.derivative().order == 7
        assert f.integrate().order == 9

    def test_constructor_drops_uncertified_terms(self, qt1):
        u = TensorElement.unit(qt1, 1)
        s = Series(qt1, 1, 1, {(1,): u, (5,): u}, order=3)
        assert (5,) not in s.terms and (1,) in s.terms


class TestCalculus:
    def test_derivative_product_rule(self, qt1):
        x = var(qt1, order=7)
        t = Series.constant(
            TensorElement.from_slots(HopfElement.generator(qt1, "t")), 1, 7)
        f = x + t * x ** 2
        g = x ** 2 - t * x
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs.same_through(rhs)

    def test_integrate_then_differentiate(self, qt1):
        x = var(qt1, order=6)
        f = (unit_series(qt1, order=6) + x) ** 2
        assert f.integrate().derivative().same_through(f)

    def test_partial_derivative_two_vars(self, qt1):
        X = var(qt1, 1, 2, 0)
        Y = var(qt1, 1, 2, 1)
        F = X ** 2 * Y + Y ** 3
        dY = F.derivative(1)
        assert dY == X ** 2 + 3 * Y ** 2


class TestSubstitution:
    def test_nilpotent_constant_assignment(self, qt1):
        t = HopfElement.generator(qt1, "t")
        x = var(qt1, 2, 1, 0)
        f = x + x ** 2
        kappa = Series.constant(TensorElement.from_slots(t, t) * 2, 1)
        out = f.substitute([kappa])
        expected = (TensorElement.from_slots(t, t) * 2
                    + TensorElement.from_slots(t ** 2, t ** 2) * 4)
        assert out.constant_term() == expected

    def test_rejects_non_nilpotent_constant(self, qt1):
        x = var(qt1, 1, 1, 0)
        f = x + x ** 2
        one = unit_series(qt1)
        with pytest.raises(NonNilpotentConstantTerm):
            f.substitute([one])

    def test_slack_lowers_certified_order(self, qt1):
        t = HopfElement.generator(qt1, "t")
        u = TensorElement.unit(qt1, 1)
        f = Series(qt1, 1, 1, {(2,): u}, order=6)
        shifted = (var(qt1, 1, 1, 0)
                   + Series.constant(TensorElement.from_slots(t), 1))
        out = f.substitute([shifted])
        # slack of the constant t is 8, so certification drops to 6 - 8
        assert out.order == -2

    def test_polynomial_substitution_stays_exact(self, qt1):
        t = HopfElement.generator(qt1, "t")
        x = var(qt1, 1, 1, 0)
        f = x ** 2 + x
        shifted = x + Series.constant(TensorElement.from_slots(t), 1)
        out = f.substitute([shifted])
        assert out.order == INF
        direct = shifted ** 2 + shifted
        assert out == direct

    def test_two_into_one_collapse(self, qt1):
        X = var(qt1, 1, 2, 0)
        Y = var(qt1, 1, 2, 1)
        F = X + Y + X * Y
        x = var(qt1, 1, 1, 0)
        out = F.substitute([x, x])
        assert out == 2 * x + x ** 2

    def test_order_propagates_from_assignment(self, qt1):
        x = var(qt1, 1, 1, 0)
        f = x ** 3 + x
        g = var(qt1, 1, 1, 0, order=4) * 2
        assert f.substitute([g]).order == 4

    def test_unused_variable_ignored(self, qt1):
        X = var(qt1, 1, 2, 0)
        Y = var(qt1, 1, 2, 1)
        F = X ** 2  # Y absent
        # assignment for Y has low order; it must not hurt certification
        a = var(qt1, 1, 1, 0)
        b = var(qt1, 1, 1, 0, order=1)
        out = F.substitute([a, b])
        assert out.order == INF


class TestMulInverse:
    def test_geometric(self, qt1):
        t = Series.constant(
            TensorElement.from_slots(HopfElement.generator(qt1, "t")), 1, 8)
        x = var(qt1, order=8)
        f = unit_series(qt1, order=8) + t * x
        g = f.mul_inverse()
        assert (f * g).same_through(unit_series(qt1, order=8))
        assert g.coeff((3,)) == TensorElement.from_slots(
            -(HopfElement.generator(qt1, "t") ** 3))

    def test_rational_series(self, qt1):
        x = var(qt1, order=6)
        f = unit_series(qt1, order=6) - x
        g = f.mul_inverse()
        u = TensorElement.unit(qt1, 1)
        for k in range(7):
            assert g.coeff((k,)) == u

    def test_needs_unit_constant(self, qt1):
        x = var(qt1, order=4)
        with pytest.raises(NonInvertibleConstantTerm):
            (2 * unit_series(qt1, order=4) + x).mul_inverse()
        with pytest.raises(NonInvertibleConstantTerm):
            x.mul_inverse()

    def test_exhaustive_polynomial_inverse(self, qt1):
        # 1 + t x is a complete polynomial with counit-zero positive part;
        # its inverse terminates by degree exhaustion and is again exact.
        t = Series.constant(
            TensorElement.from_slots(HopfElement.generator(qt1, "t")), 1)
        f = unit_series(qt1) + t * var(qt1)
        g = f.mul_inverse()
        assert g.order == INF
        assert (f * g) == unit_series(qt1)

    def test_infinite_inverse_requires_order(self, qt1):
        f = unit_series(qt1) - var(qt1)
        with pytest.raises(ValueError):
            f.mul_inverse()
        assert f.mul_inverse(order=5).order == 5

    def test_order_beyond_certification_raises(self, qt1):
        f = unit_series(qt1, order=4) - var(qt1, order=4)
        with pytest.raises(TruncationInsufficient):
            f.mul_inverse(order=9)

    def test_infinite_order_is_the_whole_inverse(self, qt1):
        """math.inf on a complete polynomial asks what None asks: the
        exact inverse by degree exhaustion, or ValueError where the
        inverse is infinite. On a finite order it asks too much."""
        t = Series.constant(
            TensorElement.from_slots(HopfElement.generator(qt1, "t")), 1)
        f = unit_series(qt1) + t * var(qt1)
        _assert_same(f.mul_inverse(order=INF), f.mul_inverse())
        with pytest.raises(ValueError, match="pass an explicit order"):
            (unit_series(qt1) - var(qt1)).mul_inverse(order=INF)
        with pytest.raises(TruncationInsufficient):
            f.truncate(4).mul_inverse(order=INF)

    @pytest.mark.parametrize("order", [2.0, Fraction(2), "2", -INF])
    def test_order_that_is_no_int_raises(self, qt1, order):
        with pytest.raises(TypeError, match="order must be an int"):
            (unit_series(qt1) - var(qt1)).mul_inverse(order=order)

    def test_multivariate_inverse(self, qt1):
        X = var(qt1, 1, 2, 0, order=4)
        Y = var(qt1, 1, 2, 1, order=4)
        one = Series.constant(TensorElement.unit(qt1, 1), 2, 4)
        f = one + X + Y
        g = f.mul_inverse()
        assert (f * g).same_through(one)


class TestCompInverse:
    def test_catalan_pattern(self, qt1):
        x = var(qt1)
        f = x + x ** 2
        h = f.comp_inverse(order=6)
        u = TensorElement.unit(qt1, 1)
        expect = {1: 1, 2: -1, 3: 2, 4: -5, 5: 14, 6: -42}
        for k, q in expect.items():
            assert h.coeff((k,)) == u * Q(q)

    def test_round_trip_both_directions(self, qt1):
        t = Series.constant(
            TensorElement.from_slots(HopfElement.generator(qt1, "t")), 1, 8)
        x = var(qt1, order=8)
        f = x + t * x ** 2 + t * t * x ** 3
        h = f.comp_inverse()
        assert f.substitute([h]).same_through(x)
        assert h.substitute([f]).same_through(x)

    def test_requires_zero_constant(self, qt1):
        f = unit_series(qt1) + var(qt1)
        with pytest.raises(NonZeroConstantTerm):
            f.comp_inverse(order=4)

    def test_requires_unit_linear_coefficient(self, qt1):
        f = 2 * var(qt1)
        with pytest.raises(NonInvertibleConstantTerm):
            f.comp_inverse(order=4)

    def test_polynomial_needs_explicit_order(self, qt1):
        f = var(qt1) + var(qt1) ** 2
        with pytest.raises(ValueError):
            f.comp_inverse()

    def test_infinite_order_on_a_polynomial_is_infinite(self, qt1):
        """math.inf asks for the whole inverse, as None does: ValueError
        on a complete polynomial, TruncationInsufficient on a finite
        order."""
        f = var(qt1) + var(qt1) ** 2
        with pytest.raises(ValueError, match="pass an explicit order"):
            f.comp_inverse(order=INF)
        with pytest.raises(TruncationInsufficient):
            f.truncate(5).comp_inverse(order=INF)

    @pytest.mark.parametrize("order", [2.0, Fraction(2), "2", -INF])
    def test_order_that_is_no_int_raises(self, qt1, order):
        """An order that is no int, math.inf aside, raises before any
        check, also on a series that would fail one."""
        for f in (var(qt1) + var(qt1) ** 2, 2 * var(qt1)):
            with pytest.raises(TypeError, match="order must be an int"):
                f.comp_inverse(order=order)

    def test_order_beyond_certification_raises(self, qt1):
        f = var(qt1, order=3)
        with pytest.raises(TruncationInsufficient):
            f.comp_inverse(order=5)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_the_zero_series(self, qt1, order):
        """Nothing above the certified order is stored, not even x."""
        x = var(qt1)
        h = (x + x ** 2).comp_inverse(order=order)
        assert h.is_zero()
        assert (h.order, h.truncated) == (order, False)


class TestCoefficientMaps:
    def test_comul_lift(self, qt1):
        t = HopfElement.generator(qt1, "t")
        f = Series.constant(TensorElement.from_slots(t), 1) + var(qt1)
        lifted = f.map_coefficients(lambda c: c.apply_slot(0, "comul"))
        assert lifted.arity == 2
        assert lifted.constant_term() == t.comul()

    def test_counit_lift_keeps_shape(self, qt1):
        t = HopfElement.generator(qt1, "t")
        f = (Series.constant(TensorElement.from_slots(t, t), 1)
             + var(qt1, 2) * 3)
        out = f.map_coefficients(lambda c: c.apply_slot(1, "counit"))
        assert out.arity == 1
        assert out.constant_term().is_zero()
        assert out.coeff((1,)) == TensorElement.unit(qt1, 1) * 3

    def test_empty_result_derives_its_arity(self, qt1):
        t = HopfElement.generator(qt1, "t")
        f = Series.constant(TensorElement.from_slots(t, t), 1)
        out = f.map_coefficients(lambda c: c.apply_slot(0, "counit"))
        assert out.is_zero() and out.arity == 1

    def test_empty_series_takes_the_arity_of_the_map(self, qt1):
        """A zero series has no coefficient to map; the map's image of the
        zero coefficient gives the arity."""
        zero = Series.zero(qt1, 1, 1, 3, ("x",))
        lifted = zero.map_coefficients(lambda c: c.apply_slot(0, "comul"))
        assert lifted.is_zero() and lifted.arity == 2
        assert (lifted.order, lifted.names) == (3, ("x",))


class TestVariablePlumbing:
    def test_embed_vars(self, qt1):
        x = var(qt1, 1, 1, 0)
        f = x ** 2
        g = f.embed_vars(3, (1,))
        assert g.nvars == 3
        assert g.coeff((0, 2, 0)) == TensorElement.unit(qt1, 1)

    def test_set_variable_zero(self, qt1):
        X = var(qt1, 1, 2, 0)
        Y = var(qt1, 1, 2, 1)
        F = X + Y + X * Y
        assert F.set_variable_zero(1) == X
        reduced = F.set_variable_zero(1).drop_variable(1).with_names(("x",))
        assert reduced == var(qt1, 1, 1, 0)

    def test_permute_vars(self, qt1):
        X = var(qt1, 1, 2, 0)
        Y = var(qt1, 1, 2, 1)
        F = X + 2 * Y
        G = F.permute_vars((1, 0))
        assert G.coeff((1, 0)) == TensorElement.unit(qt1, 1) * 2


@st.composite
def small_series(draw, algebra, order=5):
    """Random arity-1 series over qt1 with small integer coefficients."""
    t = HopfElement.generator(algebra, "t")
    basis = [HopfElement.one(algebra), t, t ** 2]
    terms = {}
    for deg in range(order + 1):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        el = HopfElement.zero(algebra)
        for q, b in zip(coeffs, basis):
            el = el + q * b
        if not el.is_zero():
            terms[(deg,)] = TensorElement.from_slots(el)
    return Series(algebra, 1, 1, terms, order)


class TestPropertyRingLaws:
    @given(st.data())
    def test_mul_commutes_and_associates(self, qt1, data):
        f = data.draw(small_series(qt1))
        g = data.draw(small_series(qt1))
        h = data.draw(small_series(qt1))
        assert (f * g).same_through(g * f)
        assert ((f * g) * h).same_through(f * (g * h))

    @given(st.data())
    def test_distributivity(self, qt1, data):
        f = data.draw(small_series(qt1))
        g = data.draw(small_series(qt1))
        h = data.draw(small_series(qt1))
        assert (f * (g + h)).same_through(f * g + f * h)

    @given(st.data())
    def test_leibniz(self, qt1, data):
        f = data.draw(small_series(qt1))
        g = data.draw(small_series(qt1))
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs.same_through(rhs)

    @given(st.data())
    def test_inverse_round_trip(self, qt1, data):
        f = data.draw(small_series(qt1))
        one = TensorElement.unit(qt1, 1)
        f = f + Series.constant(one - f.constant_term(), 1, f.order)
        g = f.mul_inverse()
        assert (f * g).same_through(Series.constant(one, 1, f.order))


# -- the packed product engine against a direct reference ---------------------

def _frac(q):
    return Fraction(int(q.numerator), int(q.denominator))


def reference_mul(f, g):
    """Series product by pairwise key products over Fraction, with the
    certified-order and `truncated` rules of the module docstring."""
    if f.order == INF and g.order == INF:
        cap = INF
    else:
        cap = min(f.order + g.valuation(), g.order + f.valuation(),
                  f.order + g.order + 1)
    alg = f.algebra
    truncated = f.truncated or g.truncated
    acc = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            if sum(ea) + sum(eb) > cap:
                continue
            tgt = acc.setdefault(tuple(x + y for x, y in zip(ea, eb)), {})
            for ka, qa in ca.terms.items():
                for kb, qb in cb.terms.items():
                    if (alg.key_degree(ka) + alg.key_degree(kb)
                            > alg.degree_bound):
                        truncated = True
                        continue
                    k = tuple(tuple(x + y for x, y in zip(ma, mb))
                              for ma, mb in zip(ka, kb))
                    tgt[k] = tgt.get(k, Fraction(0)) + _frac(qa) * _frac(qb)
    terms = {}
    for e, raw in acc.items():
        clean = {k: Q(q) for k, q in raw.items() if q}
        if clean:
            terms[e] = TensorElement(alg, f.arity, clean)
    return Series(alg, f.arity, f.nvars, terms, cap, f.names, truncated)


def reference_substitute(f, assigns):
    """Plain Horner over the first variable, recursing on the rest, with
    reference_mul, Series.truncate and Series.__add__ at every step. The
    order is capped by the assignments of the occurring variables, and a
    finite f loses the slack of every assigned constant, since its unknown
    tail holds every variable."""
    target = assigns[0]
    occurring = [any(e[v] for e in f.terms) for v in range(f.nvars)]
    cap = f.order
    slack = 0
    for v, a in enumerate(assigns):
        if occurring[v]:
            cap = min(cap, a.order)
        if occurring[v] or f.order != INF:
            kappa = a.constant_term()
            if not kappa.is_zero():
                slack += kappa.nilpotency_slack()
    if f.order != INF:
        cap = min(cap, f.order - slack)

    def horner(terms, assigns):
        if len(assigns) == 1:
            groups = {e[0]: Series.constant(c, target.nvars, INF,
                                            target.names)
                      for e, c in terms.items()}
        else:
            rows = {}
            for e, c in terms.items():
                rows.setdefault(e[0], {})[e[1:]] = c
            groups = {k: horner(sub, assigns[1:]) for k, sub in rows.items()}
        kmax = max(groups)
        result = groups[kmax]
        for k in range(kmax - 1, -1, -1):
            result = reference_mul(result, assigns[0])
            if cap != INF:
                result = result.truncate(cap)
            if k in groups:
                result = result + groups[k]
        return result.truncate(cap) if cap != INF else result

    terms, truncated = {}, f.truncated
    if f.terms:
        result = horner(f.terms, assigns)
        terms = result.terms
        truncated = truncated or result.truncated or any(
            a.truncated for v, a in enumerate(assigns) if occurring[v])
    return Series(f.algebra, f.arity, target.nvars, terms, cap, target.names,
                  truncated)


def checked_steps(original, steps):
    """A `_series_mul` that checks each call against reference_mul
    truncated at its `keep`, plus its `plus` addend when given, and
    records the result in steps."""
    def checked(g, h, *, keep, plus=None):
        got = original(g, h, keep=keep, plus=plus)
        want = reference_mul(g, h).truncate(keep)
        _assert_same(got, want if plus is None else want + plus)
        steps.append(got)
        return got
    return checked


_RARE = st.integers(0, 5).map(lambda n: n == 0)


@st.composite
def engine_series(draw, algebra, arity, nvars, nilpotent_constant=False,
                  top=2, flags=_RARE):
    """Series with a finite or infinite order, `truncated` flags drawn
    from `flags` (rare by default) and small exponents (up to `top`),
    keys and coefficients, so that products collide, cancel and overflow
    the degree bound often; when nilpotent_constant, the constant
    coefficient has only positive-degree keys."""
    monos = algebra.monomials()
    low = st.sampled_from([m for m in monos if algebra.degree(m) <= 1])
    mono = st.one_of(low, low, st.sampled_from(monos))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.lists(st.integers(0, top), min_size=nvars,
                                   max_size=nvars)))
        constant = nilpotent_constant and not any(exps)
        raw = {}
        for _ in range(draw(st.integers(1, 3))):
            key = tuple(draw(mono) for _ in range(arity))
            if constant and algebra.key_degree(key) == 0:
                continue
            raw[key] = Q(draw(st.sampled_from([-1, 1, -1, 1, 2])),
                         draw(st.integers(1, 2)))
        coeff = TensorElement(algebra, arity, raw, draw(flags))
        if not (constant and coeff.is_zero()):
            terms[exps] = coeff
    order = draw(st.one_of(st.just(INF), st.integers(0, 2 * top + 2)))
    return Series(algebra, arity, nvars, terms, order,
                  truncated=draw(flags))


def _assert_same(got, want):
    assert got.terms == want.terms
    assert (got.order, got.truncated, got.names) == (
        want.order, want.truncated, want.names)


_ENGINE_ALGEBRAS = st.tuples(st.sampled_from(["qt1", "qtu"]),
                             st.integers(3, 8))


class TestPackedEngine:
    @settings(max_examples=300)
    @given(st.data())
    def test_product_matches_reference(self, data):
        name, bound = data.draw(_ENGINE_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        arity = data.draw(st.integers(1, 3))
        nvars = data.draw(st.integers(0, 3))
        f = data.draw(engine_series(alg, arity, nvars))
        g = data.draw(engine_series(alg, arity, nvars))
        _assert_same(f * g, reference_mul(f, g))

    @settings(max_examples=300)
    @given(st.data())
    def test_substitution_matches_reference(self, data):
        name, bound = data.draw(_ENGINE_ALGEBRAS)
        alg = builtin_algebra(name, degree_bound=bound)
        arity = data.draw(st.integers(1, 3))
        nvars = data.draw(st.integers(1, 3))
        target = data.draw(st.integers(0, 3))
        f = data.draw(engine_series(alg, arity, nvars))
        assigns = []
        for _ in range(nvars):
            if target and data.draw(st.booleans()):
                # a bare variable (complete, unit coefficient) is placed
                # by an exponent shift; a finite order, a flag or a
                # scalar make it an ordinary product again
                var = Series.variable(
                    alg, arity, target, data.draw(st.integers(0, target - 1)),
                    data.draw(st.one_of(st.just(INF), st.just(INF),
                                        st.integers(1, 6))))
                if data.draw(_RARE):
                    var = var.scale(data.draw(st.sampled_from([-1, 2])))
                if data.draw(_RARE):
                    var = Series(alg, arity, target, var.terms, var.order,
                                 truncated=True)
                assigns.append(var)
            else:
                assigns.append(data.draw(engine_series(
                    alg, arity, target, nilpotent_constant=True)))
        _assert_same(f.substitute(assigns), reference_substitute(f, assigns))

    def test_each_horner_step_is_one_series_mul(self, qt1, monkeypatch):
        """A substitution makes every product through `_series_mul` (where
        the benchmark's tracer counts products), and each step equals the
        plain product truncated at the substitution's cap plus the step's
        addend."""
        t = TensorElement.from_slots(HopfElement.generator(qt1, "t"))
        one = TensorElement.unit(qt1, 1)
        f = Series(qt1, 1, 1, {(0,): one, (1,): one, (3,): t}, 6)
        a = Series(qt1, 1, 1, {(1,): one, (2,): t}, 5)
        original = series_module._series_mul
        steps = []

        checked = checked_steps(original, steps)

        monkeypatch.setattr(series_module, "_series_mul", checked)
        _assert_same(f.substitute([a]), reference_substitute(f, [a]))
        assert len(steps) == 3

    def test_bare_variables_are_series_products(self, qt1, monkeypatch):
        """A step by a bare variable is an ordinary product: substituting
        (Y, X) into f makes one `_series_mul` per Horner step, each equal
        to the plain product truncated at the cap plus the step's addend,
        and gives the swap."""
        t = TensorElement.from_slots(HopfElement.generator(qt1, "t"))
        one = TensorElement.unit(qt1, 1)
        f = Series(qt1, 1, 2, {(0, 0): t, (2, 1): one, (1, 3): t * t}, 5,
                   truncated=True)
        swap = [Series.variable(qt1, 1, 2, 1), Series.variable(qt1, 1, 2, 0)]
        original = series_module._series_mul
        steps = []

        checked = checked_steps(original, steps)

        monkeypatch.setattr(series_module, "_series_mul", checked)
        got = f.substitute(swap)
        _assert_same(got, reference_substitute(f, swap))
        assert got == f.permute_vars((1, 0))
        # two outer steps by Y, one and three by X in the rows of X^2, X
        assert len(steps) == 6


# -- Horner kept through what reaches the cap -------------------------------

def reference_horner(consts, assigns, cap, slacks=None, order=INF):
    """`series._horner` with every step kept through the full cap, as
    `Series.substitute` ran it before steps were cut once the flag is
    settled; the slacks and the output order are not read (the caller
    truncates)."""
    if len(assigns) == 1:
        groups = {e[0]: c for e, c in consts.items()}
    else:
        rows = {}
        for e, c in consts.items():
            rows.setdefault(e[0], {})[e[1:]] = c
        groups = {k: reference_horner(sub, assigns[1:], cap)
                  for k, sub in rows.items()}
    kmax = max(groups)
    result = groups[kmax]
    for k in range(kmax - 1, -1, -1):
        result = series_module._series_mul(result, assigns[0], keep=cap,
                                           plus=groups.get(k))
    if cap != INF:
        result = result.truncate(cap)
    return result


def reference_horner_substitute(f, assigns):
    """f.substitute(assigns) on the full-cap Horner (`reference_horner`)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_horner", reference_horner)
        return f.substitute(assigns)


def recorded_keeps(monkeypatch):
    """The `keep` of every `_series_mul` call from here on, in order."""
    keeps = []
    original = series_module._series_mul

    def recorded(g, h, *, keep, plus=None):
        keeps.append(keep)
        return original(g, h, keep=keep, plus=plus)

    monkeypatch.setattr(series_module, "_series_mul", recorded)
    return keeps


def powers_sum(algebra, top, order, flag_top=False):
    """1 + x + ... + x^top through `order`, the top coefficient flagged
    when `flag_top`."""
    one = TensorElement.unit(algebra, 1)
    terms = {(k,): one for k in range(top)}
    terms[(top,)] = one._flagged(flag_top)
    return Series(algebra, 1, 1, terms, order)


_OFTEN = st.sampled_from([False, False, True])


class TestHornerCut:
    """Once a step's flag is set, later Horner steps keep only the terms
    that can reach the cap; the result is that of the full-cap Horner."""

    @settings(max_examples=250)
    @given(st.data())
    def test_matches_full_cap_horner(self, data):
        name, bound = data.draw(st.tuples(st.sampled_from(["qt1", "qt2"]),
                                          st.integers(2, 8)))
        alg = builtin_algebra(name, degree_bound=bound)
        arity = data.draw(st.integers(1, 2))
        nvars = data.draw(st.integers(1, 3))
        target = data.draw(st.integers(1, 3))
        flags = data.draw(st.sampled_from([_RARE, _OFTEN]))
        f = data.draw(engine_series(alg, arity, nvars, top=6, flags=flags))
        assigns = [data.draw(engine_series(alg, arity, target, True,
                                           flags=flags))
                   for _ in range(nvars)]
        _assert_same(f.substitute(assigns),
                     reference_horner_substitute(f, assigns))

    def test_flag_set_before_the_first_step(self, monkeypatch):
        """A flagged top coefficient settles the flag: every step k is kept
        through cap - k for a = (1 + t) x (slack 0, v = 1)."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series(alg, 1, 1, {(1,): t + 1})
        f = powers_sum(alg, 5, 8, flag_top=True)
        want = reference_horner_substitute(f, [a])
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a])
        _assert_same(got, want)
        assert got.truncated and keeps == [4, 5, 6, 7, 8]

    def test_flag_set_at_a_late_step(self, monkeypatch):
        """(1 + t)^4 leaves the degree bound 3 at the step that forms R_4:
        the steps up to it run at the full cap, the later ones are cut."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series(alg, 1, 1, {(1,): t + 1})
        f = powers_sum(alg, 8, 10)
        want = reference_horner_substitute(f, [a])
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a])
        _assert_same(got, want)
        assert got.truncated and keeps == [10, 10, 10, 10, 7, 8, 9, 10]

    def test_flag_never_set(self, monkeypatch):
        alg = builtin_algebra("qt1", degree_bound=8)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series(alg, 1, 1, {(1,): t + 1})
        f = powers_sum(alg, 8, 10)
        want = reference_horner_substitute(f, [a])
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a])
        _assert_same(got, want)
        assert not got.truncated and keeps == [10] * 8

    def test_constant_assignment_skips_what_its_powers_kill(
            self, monkeypatch):
        """a = t with t^3 = 0 (slack 2): R_k for k > 2 reaches nothing, so
        those steps keep no term; the result is 1 + t + t^2."""
        alg = builtin_algebra("qt1", degree_bound=2)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series.constant(t, 1)
        f = powers_sum(alg, 5, 8, flag_top=True)
        want = reference_horner_substitute(f, [a])
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a])
        _assert_same(got, want)
        assert keeps == [-8, -1, 6, 6, 6]
        assert got.terms == {(0,): t * t + t + 1} and got.order == 6

    def test_negative_cap_cuts_below_it(self, monkeypatch):
        """An assignment certified only through order -4 caps the result
        at -4 and has no non-constant term: every cut step keeps less
        than the cap, never more."""
        alg = builtin_algebra("qt1", degree_bound=2)
        a = Series(alg, 1, 1, {}, -4)
        f = powers_sum(alg, 5, 8, flag_top=True)
        want = reference_horner_substitute(f, [a])
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a])
        _assert_same(got, want)
        assert keeps == [-8, -7, -6, -5, -4] and got.order == -4


# -- substitution through a requested order ----------------------------------

def scalar_part(series):
    """The series with every coefficient cut to its part of Hopf degree 0
    (its full counit times the unit), coefficient flags kept."""
    unit = TensorElement.unit(series.algebra, series.arity)
    return Series(series.algebra, series.arity, series.nvars,
                  {e: (unit * c.full_counit())._flagged(c.truncated)
                   for e, c in series.terms.items()},
                  series.order, series.names, series.truncated)


class TestSubstituteOrder:
    """f.substitute(a, order=n) is f.substitute(a).truncate(n), flags
    included; once the flag is settled its Horner steps keep only the
    terms that reach n."""

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_truncated_full_cap_horner(self, data):
        name = data.draw(st.sampled_from(["trivial", "qt1", "qt2"]))
        alg = builtin_algebra(name, degree_bound=data.draw(st.integers(2, 8)))
        arity = data.draw(st.integers(1, 2))
        nvars = data.draw(st.integers(1, 3))
        target = data.draw(st.integers(1, 3))
        flags = data.draw(st.sampled_from([_RARE, _OFTEN]))
        f = data.draw(engine_series(alg, arity, nvars, top=6, flags=flags))
        assigns = [data.draw(engine_series(alg, arity, target, True,
                                           flags=flags))
                   for _ in range(nvars)]
        # every assignment of Hopf degree 0 settles the flag at once; some
        # of them only settle the rows that use no other
        mode = data.draw(st.sampled_from(["none", "all", "some"]))
        assigns = [scalar_part(a) if mode == "all" or mode == "some"
                   and data.draw(st.booleans()) else a for a in assigns]
        want = reference_horner_substitute(f, assigns)
        top = 14 if want.order == INF else want.order
        n = data.draw(st.integers(-2, top + 2))
        _assert_same(f.substitute(assigns, order=n), want.truncate(n))

    def test_flag_set_at_the_first_step(self, monkeypatch):
        """A flagged top coefficient settles the flag: with order 5 below
        the cap 8, step k keeps the terms through 5 - k for a = (1 + t) x
        (slack 0, v = 1)."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series(alg, 1, 1, {(1,): t + 1})
        f = powers_sum(alg, 5, 8, flag_top=True)
        want = reference_horner_substitute(f, [a]).truncate(5)
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a], order=5)
        _assert_same(got, want)
        assert got.truncated and got.order == 5
        assert keeps == [1, 2, 3, 4, 5]

    def test_hopf_degree_zero_is_cut_from_the_first_step(self, monkeypatch):
        """x + x^2 has only terms of Hopf degree 0, so no product leaves the
        quotient and the flag is settled before it is set: unflagged, step
        k keeps 6 - k, and in two variables the row of X^k is formed
        through 4 - k only."""
        alg = builtin_algebra("qt1", degree_bound=3)
        one = TensorElement.unit(alg, 1)
        a = Series(alg, 1, 1, {(1,): one, (2,): one})
        f = powers_sum(alg, 5, 8)
        want = reference_horner_substitute(f, [a]).truncate(6)
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a], order=6)
        _assert_same(got, want)
        assert not got.truncated and keeps == [2, 3, 4, 5, 6]
        F = Series(alg, 1, 2, {(i, j): one for i in range(3)
                               for j in range(3)})
        monkeypatch.undo()
        want = reference_horner_substitute(F, [a, a]).truncate(4)
        keeps = recorded_keeps(monkeypatch)
        got = F.substitute([a, a], order=4)
        _assert_same(got, want)
        # rows of X^0, X^1, X^2 (two steps in Y each), then two in X
        assert keeps == [3, 4, 2, 3, 1, 2, 3, 4]

    def test_rows_keep_the_cap_while_the_flag_can_change(self):
        """With X -> t x (Hopf degree 1) and Y -> x, only the rows are
        settled from the start. The row of X^1, t^3 x^3, lies above the
        order 2 but sets the flag through t^3 * t = 0, so it is formed
        whole."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        one = TensorElement.unit(alg, 1)
        f = Series(alg, 1, 2, {(2, 0): one, (1, 3): t ** 3})
        assigns = [Series(alg, 1, 1, {(1,): t}), Series.variable(alg, 1, 1, 0)]
        got = f.substitute(assigns, order=2)
        _assert_same(got, reference_horner_substitute(f, assigns).truncate(2))
        assert got.truncated and got.terms == {(2,): t * t}

    def test_unflagged_steps_keep_the_full_cap(self, monkeypatch):
        """(1 + t) x at D = 8 never leaves the quotient, so the flag is
        never set and every step runs at the cap 10, order 6 or not."""
        alg = builtin_algebra("qt1", degree_bound=8)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        a = Series(alg, 1, 1, {(1,): t + 1})
        f = powers_sum(alg, 8, 10)
        want = reference_horner_substitute(f, [a]).truncate(6)
        keeps = recorded_keeps(monkeypatch)
        got = f.substitute([a], order=6)
        _assert_same(got, want)
        assert not got.truncated and got.order == 6
        assert keeps == [10] * 8

    def test_order_is_read_as_the_inversions_read_it(self, qt1):
        """A finite order must be an int, and -math.inf is none;
        math.inf and None cut nothing."""
        f = powers_sum(qt1, 3, 6)
        x = Series.variable(qt1, 1, 1, 0)
        for order in (2.5, -INF):
            with pytest.raises(TypeError, match="order must be an int"):
                f.substitute([x], order=order)
        _assert_same(f.substitute([x], order=INF), f.substitute([x]))
        _assert_same(f.substitute([x], order=None), f.substitute([x]))
        c = Series.constant(TensorElement.unit(qt1, 1), 0)
        _assert_same(c.substitute([], order=-1), c.truncate(-1))


# -- Newton reversion against the order-by-order loop -------------------------

def reference_comp_inverse(f, order=None):
    """Compositional inverse order by order, the reference for the Newton
    iteration: one substitution per order k fixes coefficient k through
    the linear coefficient b0; below order 1 the zero series."""
    if f.nvars != 1:
        raise ShapeMismatch("compositional inverse needs one variable")
    if not f.constant_term().is_zero():
        raise NonZeroConstantTerm(
            "compositional inverse needs zero constant term")
    b0 = f.coeff((1,))
    if b0.full_counit() != 1:
        raise NonInvertibleConstantTerm(
            "linear coefficient must have full counit 1")
    if order is None:
        if f.order == INF:
            raise ValueError(
                "series is a complete polynomial; its compositional "
                "inverse is infinite, pass an explicit order")
        order = f.order
    if order > f.order:
        raise TruncationInsufficient(
            f"compositional inverse through order {order} needs the "
            f"input through that order (certified {f.order})",
            certified=f.order, requested=order)
    b0_inv = b0.mul_inverse()
    if order < 1:
        return Series(f.algebra, f.arity, 1, {}, order, f.names,
                      f.truncated)
    g = f.truncate(order)
    # coefficient flags of the solved terms are not the series'
    h = Series(f.algebra, f.arity, 1, {(1,): b0_inv._flagged(False)},
               order, f.names, f.truncated)
    for k in range(2, order + 1):
        residue = g.substitute([h]).coeff((k,))
        if residue.is_zero():
            continue
        correction = -(b0_inv * residue)
        h = h + Series(f.algebra, f.arity, 1,
                       {(k,): correction._flagged(False)}, order, f.names)
    return h


def series_newton_comp_inverse(f, order=None):
    """Newton reversion with Series operations: one substitution f(h) per
    doubling step, h - (f(h) - x) h' formed by Series arithmetic. The
    reference for the packed Newton loop of Series.comp_inverse, flag
    included."""
    if f.nvars != 1:
        raise ShapeMismatch("compositional inverse needs one variable")
    if not f.constant_term().is_zero():
        raise NonZeroConstantTerm(
            "compositional inverse needs zero constant term")
    b0 = f.coeff((1,))
    if b0.full_counit() != 1:
        raise NonInvertibleConstantTerm(
            "linear coefficient must have full counit 1")
    if order is None:
        if f.order == INF:
            raise ValueError(
                "series is a complete polynomial; its compositional "
                "inverse is infinite, pass an explicit order")
        order = f.order
    if order > f.order:
        raise TruncationInsufficient(
            f"compositional inverse through order {order} needs the "
            f"input through that order (certified {f.order})",
            certified=f.order, requested=order)
    b0_inv = b0.mul_inverse()
    if order < 1:
        return Series(f.algebra, f.arity, 1, {}, order, f.names,
                      f.truncated)
    g = f.truncate(order)
    x = Series.variable(f.algebra, f.arity, 1, 0, INF, f.names)
    h = Series(f.algebra, f.arity, 1, {(1,): b0_inv._flagged(False)}, 1,
               f.names)
    for p in series_module._doubling_orders(1, order):
        poly = h.with_order(INF)
        err = g.truncate(p).substitute([poly]) - x
        if err.is_zero():
            h = poly.truncate(p)
        else:
            h = poly - err * poly.derivative()
    return Series(f.algebra, f.arity, 1, h.terms, order, f.names,
                  f.truncated)


def outcome(fn, *args, **kwargs):
    """The value of fn, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # compared, never swallowed: see callers
        return None, (type(exc), str(exc))


def assert_same_outcome(got, want):
    """Equal exceptions, or results equal in terms, certified order,
    `truncated` and names."""
    assert got[1] == want[1]
    if want[1] is None:
        _assert_same(got[0], want[0])


NEWTON_ALGEBRAS = st.tuples(st.sampled_from(["trivial", "qt1", "qt2", "qtu"]),
                             st.integers(3, 8))

SELDOM = st.sampled_from([False] * 7 + [True])


@st.composite
def tensor_coefficients(draw, algebra, arity, unit=None):
    """A small random tensor: `unit` (when given) times the unit plus a
    combination of a few low-degree basis keys (positive degree only when
    `unit` is given), with a rare `truncated` flag."""
    monos = algebra.monomials()
    low = st.sampled_from([m for m in monos if algebra.degree(m) <= 2])
    mono = st.one_of(low, low, st.sampled_from(monos))
    raw = {}
    if unit is not None:
        raw[(algebra.unit_mono,) * arity] = Q(unit)
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):
        key = tuple(draw(mono) for _ in range(arity))
        if unit is not None and algebra.key_degree(key) == 0:
            continue
        raw[key] = Q(draw(st.sampled_from([-2, -1, 1, 1, 3])),
                     draw(st.integers(1, 3)))
    return TensorElement(algebra, arity, raw, draw(_RARE))


@st.composite
def requested_orders(draw, stored):
    """(stored order, requested order): mostly a finite stored order and a
    request up to one above it or none; seldom a complete polynomial, with
    an explicit request or (raising) none."""
    if draw(SELDOM):
        return INF, draw(st.one_of(st.sampled_from(range(21)), st.none()))
    return stored, draw(st.one_of(st.sampled_from(range(stored + 2)),
                                  st.none()))


@st.composite
def reversion_inputs(draw):
    """(f, requested order): f = b0 x + sparse higher terms over one of four
    algebras at degree bounds 3-8, arity 1 or 2, with b0 of full counit 1
    and a nilpotent part, orders 0-20; seldom a constant term or a linear
    coefficient of counit 2. Half the time the nilpotent part of b0 is one
    basis key: b0^-1 is then its geometric series up to the degree bound
    with no term dropped, so the order-by-order loop's products by b0^-1
    overflow the bound, and flag its coefficients, only at some orders."""
    name, bound = draw(NEWTON_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    arity = draw(st.integers(1, 2))
    unit = 2 if draw(SELDOM) else 1
    b0 = draw(tensor_coefficients(alg, arity, unit=unit))
    if name != "trivial" and draw(st.booleans()):
        key = draw(st.sampled_from([
            k for k in itertools.product(alg.monomials(), repeat=arity)
            if 0 < alg.key_degree(k) <= bound]))
        b0 = TensorElement(alg, arity, {
            (alg.unit_mono,) * arity: Q(unit),
            key: Q(draw(st.sampled_from([-2, -1, 1, 3])))})
    terms = {(1,): b0}
    if draw(SELDOM):
        terms[(0,)] = TensorElement.unit(alg, arity)
    for _ in range(draw(st.integers(0, 4))):
        terms[(draw(st.integers(2, 20)),)] = draw(
            tensor_coefficients(alg, arity))
    f_order, order = draw(requested_orders(draw(st.sampled_from(range(21)))))
    f = Series(alg, arity, 1, terms, f_order, truncated=draw(_RARE))
    return f, order


class TestNewtonReversion:
    """Series.comp_inverse by Newton doubling gives what the order-by-order
    loop gives: terms, certified order, `truncated` and every
    exception."""

    @settings(max_examples=200)
    @given(reversion_inputs())
    def test_matches_order_by_order_loop(self, case):
        f, order = case
        assert_same_outcome(outcome(f.comp_inverse, order=order),
                            outcome(reference_comp_inverse, f, order=order))

    @settings(max_examples=200)
    @given(reversion_inputs())
    def test_matches_series_newton_loop(self, case):
        """The packed loop gives the terms, the order and the series flag
        of the same loop on Series."""
        f, order = case
        assert_same_outcome(
            outcome(f.comp_inverse, order=order),
            outcome(series_newton_comp_inverse, f, order=order))

    def test_substitutes_nothing(self, qt1, monkeypatch):
        """Every Newton step evaluates f(h) on the packed kernel: no
        Series.substitute call, and the products are `_series_mul` calls,
        where the benchmark's tracer counts them."""
        t = TensorElement.from_slots(HopfElement.generator(qt1, "t"))
        one = TensorElement.unit(qt1, 1)
        x = var(qt1)
        f = (Series.constant(one + t, 1) * x + Series.constant(t, 1) * x ** 2
             + x ** 3).with_order(9)
        substitutions, products = [], []
        substitute = Series.substitute
        series_mul = series_module._series_mul

        def counted(series, assignments):
            substitutions.append(series)
            return substitute(series, assignments)

        def counted_mul(g, h, **kwargs):
            products.append(g)
            return series_mul(g, h, **kwargs)

        monkeypatch.setattr(Series, "substitute", counted)
        monkeypatch.setattr(series_module, "_series_mul", counted_mul)
        got = f.comp_inverse()
        assert substitutions == [] and products
        monkeypatch.undo()
        _assert_same(got, series_newton_comp_inverse(f))

    def test_overflowing_products_flag_no_coefficient(self):
        """b0 with a nilpotent part at a low degree bound: the products
        of the solve drop terms to the bound, which flags the tensors
        (b0^-1 among them) but not the series; the Newton root's
        coefficients and series carry no flag."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        one = TensorElement.unit(alg, 1)
        x = var(alg)
        f = (Series.constant(one + t * t, 1) * x
             + Series.constant(t, 1) * x ** 2 + x ** 5)
        got = f.comp_inverse(order=9)
        want = reference_comp_inverse(f, order=9)
        _assert_same(got, want)
        assert ((one + t * t).mul_inverse() * t * t).truncated
        assert not any(c.truncated for c in got.terms.values())
        assert not got.truncated


# -- reverting a coproduct lift over H ----------------------------------------

LIFT_ALGEBRAS = st.sampled_from(
    [("qt1", d) for d in range(2, 7)] + [("qt2", 3), ("qt2", 8),
                                         ("qtu", 4), ("qtu", 8)])


@st.composite
def lift_inputs(draw, near=False):
    """(f, requested order): f = Delta g for g a random logarithm of top
    degree 2-10 over qt1 at degree bounds 2-6, qt2 or qtu, half the time
    with linear coefficient 1 + nilpotent (a low bound then flags
    coefficients), stored through a finite order or complete. With
    `near`, one coefficient of f gains a multiple of t (x) 1, which is in
    no coproduct, so f is no lift."""
    name, bound = draw(LIFT_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    top = draw(st.integers(2, 10))
    g = random_logarithm(alg, draw(st.integers(0, 2 ** 32)), top)
    if draw(st.booleans()):
        g = g + Series.constant(
            draw(tensor_coefficients(alg, 1, unit=0)), 1) * var(alg)
    stored, order = draw(requested_orders(top))
    f = g.with_order(stored).map_coefficients(
        lambda A: A.apply_slot(0, "comul"))
    if near:
        t = alg.monomials()[1]
        k = draw(st.sampled_from(sorted(f.terms)))
        f = f + Series(alg, 2, 1, {k: TensorElement(alg, 2, {
            (t, alg.unit_mono): Q(draw(st.sampled_from([-1, 1, 2])))})},
            f.order)
    return f, order


def evaluated_arities(monkeypatch, f, order):
    """(arities, precisions) of the `_evaluate` calls of f.comp_inverse:
    the tensor arity of each call's operand h, read off its one-variable
    layout, whose shift is the Hopf fields' width, and each call's p."""
    calls = []
    original = series_module._evaluate

    def recorded(coeffs, h, p, bound):
        calls.append((h.shift, p))
        return original(coeffs, h, p, bound)

    monkeypatch.setattr(series_module, "_evaluate", recorded)
    f.comp_inverse(order=order)
    monkeypatch.undo()
    slot_bits = f.algebra._codec(1).hopf_bits
    return ([shift // slot_bits for shift, _ in calls],
            [p for _, p in calls])


class TestLiftReversion:
    """A coproduct lift Delta g reverts over H as Delta(g^-1): the terms,
    the order and the series flag of the Newton loop on Series over
    H (x) H, and every exception; a near-lift takes the general route to
    the same result."""

    @settings(max_examples=100)
    @given(lift_inputs())
    def test_lift_matches_series_newton_loop(self, case):
        f, order = case
        assert_same_outcome(
            outcome(f.comp_inverse, order=order),
            outcome(series_newton_comp_inverse, f, order=order))

    @settings(max_examples=60)
    @given(lift_inputs(near=True))
    def test_near_lift_matches_series_newton_loop(self, case):
        f, order = case
        assert series_module._coproduct_base(f) is None
        assert_same_outcome(
            outcome(f.comp_inverse, order=order),
            outcome(series_newton_comp_inverse, f, order=order))

    def test_low_bound_flags_no_coefficient(self):
        """b0 = Delta(1 + t) at degree bound 3: the lift route gives the
        terms, order and series flag of the Series loop, and no
        coefficient is flagged."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        g = (Series.constant(TensorElement.unit(alg, 1) + t, 1) * var(alg)
             + Series.constant(t, 1) * var(alg) ** 2 + var(alg) ** 4)
        f = g.map_coefficients(lambda A: A.apply_slot(0, "comul"))
        assert series_module._coproduct_base(f) is not None
        got = f.comp_inverse(order=7)
        _assert_same(got, series_newton_comp_inverse(f, order=7))
        assert not any(c.truncated for c in got.terms.values())

    def test_route_pin(self, monkeypatch):
        """The reversion workload's qt2 item reverts over H: every
        evaluated operand has arity 1, at the precisions 2, 4, 8, 16; a
        near-lift evaluates arity-2 operands at the same precisions."""
        alg = builtin_algebra("qt2")
        f = random_logarithm(alg, 7, 16).map_coefficients(
            lambda A: A.apply_slot(0, "comul"))
        assert evaluated_arities(monkeypatch, f, 16) == ([1] * 4,
                                                         [2, 4, 8, 16])
        t = alg.monomials()[1]
        near = f + Series(alg, 2, 1, {(3,): TensorElement(
            alg, 2, {(t, alg.unit_mono): Q(1)})})
        assert evaluated_arities(monkeypatch, near, 16) == ([2] * 4,
                                                            [2, 4, 8, 16])

    def test_first_coefficient_off_the_coproducts_decides(self):
        """A lift in every coefficient but the top one is no lift."""
        alg = builtin_algebra("qt1", degree_bound=4)
        f = random_logarithm(alg, 3, 6).map_coefficients(
            lambda A: A.apply_slot(0, "comul"))
        top = max(f.terms)
        t = alg.monomials()[1]
        near = f + Series(alg, 2, 1, {top: TensorElement(
            alg, 2, {(alg.unit_mono, t): Q(1)})})
        assert series_module._coproduct_base(f) is not None
        assert series_module._coproduct_base(near) is None
        _assert_same(near.comp_inverse(order=6),
                     series_newton_comp_inverse(near, order=6))


    def test_degree_lowering_coproduct_takes_the_general_route(self):
        """Delta(u) = u (x) 1 + 1 (x) u + t (x) t at degree bound 3 lowers
        a degree, so Delta(u t) = 0 but Delta(u) Delta(t) != 0: Delta is no
        ring homomorphism, and a lift of it reverts in H (x) H."""
        qtu = builtin_algebra("qtu", degree_bound=3)
        t, u, one = [(m,) for m in ((1, 0), (0, 1), (0, 0))]
        alg = qtu.mutated(comul={"u": {(u[0], one[0]): Q(1),
                                        (one[0], u[0]): Q(1),
                                        (t[0], t[0]): Q(1)}})
        g = Series(alg, 1, 1, {(1,): TensorElement(alg, 1, {one: Q(1)}),
                               (2,): TensorElement(alg, 1, {u: Q(1)}),
                               (3,): TensorElement(alg, 1, {t: Q(1)})}, 6)
        f = g.map_coefficients(lambda A: A.apply_slot(0, "comul"))
        assert series_module._coproduct_base(f) is None
        _assert_same(f.comp_inverse(), series_newton_comp_inverse(f))


# -- the packed Paterson-Stockmeyer evaluator against Series.substitute -------

@st.composite
def evaluation_inputs(draw, constant=False):
    """(F, h, p): F(x, y) = sum_k C_k(x) y^k, complete, with k up to a top
    k_max of 0-20 and the C_k constants or (half the time) polynomials of
    degree up to 4 in x; h a one-variable polynomial of valuation 0 (a
    nilpotent constant term) or at least 1, seldom 0; p from 0 to 20,
    seldom inf. Over trivial, qt1, qt2 or qtu at degree bounds 3-6, arity
    1 or 2. With `constant`, h always has a nonzero nilpotent constant
    term (so the algebra is never trivial)."""
    names = ["trivial", "qt1", "qt2", "qtu"][constant:]
    name = draw(st.sampled_from(names))
    alg = builtin_algebra(name, degree_bound=draw(st.integers(3, 6)))
    arity = draw(st.sampled_from([1, 1, 2]))
    k_max = draw(st.integers(0, 20))
    ks = draw(st.sets(st.integers(0, k_max), max_size=4)) | {k_max}
    xmax = 4 if draw(st.booleans()) else 0
    terms = {}
    for k in ks:
        for i in draw(st.sets(st.integers(0, xmax), min_size=1, max_size=2)):
            terms[(i, k)] = draw(tensor_coefficients(alg, arity))
    h_terms = {}
    if constant or name != "trivial" and draw(st.booleans()):
        h_terms[(0,)] = draw(tensor_coefficients(alg, arity, unit=0))
        assume(not (constant and h_terms[(0,)].is_zero()))
    for d in draw(st.sets(st.integers(1, 6), min_size=1, max_size=3)):
        h_terms[(d,)] = draw(tensor_coefficients(alg, arity))
    if not constant and draw(SELDOM):
        h_terms = {}
    return (Series(alg, arity, 2, terms), Series(alg, arity, 1, h_terms),
            INF if draw(SELDOM) else draw(st.integers(0, 20)))


def y_groups(codec, F):
    """{k: C_k} for F(x, y) = sum_k C_k(x) y^k, each C_k packed in the
    one-variable layout of codec as a complete polynomial."""
    groups = {}
    for (i, k), coeff in F.terms.items():
        groups.setdefault(k, {})[(i,)] = coeff
    return {k: codec.pack(terms) for k, terms in groups.items()}


def reference_evaluate(coeffs, h, p, bound):
    """`series._evaluate` without the expansion about h's constant: the
    blocks run in h itself, so a nilpotent constant leaves val(h) = 0
    and no block is cut."""
    if not coeffs:
        return _Packed({}, 1, p, False, h.shift)
    kmax = max(coeffs)
    m = max(1, math.isqrt(kmax))
    v = 0 if p == INF else min(h.val, p + 1)
    powers = [_UNIT, h.truncate(p)]
    while len(powers) <= m:
        powers.append(powers[-1].times(powers[1], p, bound))
    acc = None
    for i in range(kmax // m, -1, -1):
        pairs = [(coeffs[i * m + j], powers[j]) for j in range(m)
                 if i * m + j in coeffs]
        if acc is not None:
            pairs.append((acc, powers[m]))
        acc = _Packed.sum_of_products(pairs, p - i * m * v, bound)
    return acc


class TestEvaluator:
    """`series._evaluate` sums C_k h^k, with F grouped into the C_k, to the
    terms that Series.substitute gives F(x, h) through the order."""

    @settings(max_examples=120)
    @given(evaluation_inputs())
    def test_matches_substitute(self, case):
        F, h, p = case
        alg = F.algebra
        want = F.substitute([Series.variable(alg, F.arity, 1, 0),
                             h.truncate(p)]).truncate(p)
        codec = _Codec(
            alg, F.arity, ("x",),
            max(p if p != INF else 0, F.max_degree(), h.max_degree()))
        got = series_module._evaluate(
            y_groups(codec, F),
            codec.pack(h.terms), p, alg.degree_bound)
        assert got.order == p
        assert codec.unpack(got) == want.terms

    @settings(max_examples=250)
    @given(evaluation_inputs(constant=True))
    def test_expansion_about_the_constant(self, case):
        """A point with a nilpotent constant is expanded about it: the
        same terms and order as the blocks run in h itself
        (`reference_evaluate`)."""
        F, h, p = case
        alg = F.algebra
        codec = _Codec(
            alg, F.arity, ("x",),
            max(p if p != INF else 0, F.max_degree(), h.max_degree()))
        groups, point = y_groups(codec, F), codec.pack(h.terms)
        got = series_module._evaluate(groups, point, p, alg.degree_bound)
        want = reference_evaluate(groups, point, p, alg.degree_bound)
        assert got.order == want.order == p
        assert codec.unpack(got) == codec.unpack(want)

    def test_expansion_uses_every_power_of_the_constant(self):
        """1 + y + y^2 at y = t + x over qt1 (D = 6): G_0 = 1 + t + t^2
        needs kappa^2 = t^2, as high as the top k."""
        alg = builtin_algebra("qt1", degree_bound=6)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        one = TensorElement.unit(alg, 1)
        F = Series(alg, 1, 2, {(0, k): one for k in range(3)})
        codec = _Codec(alg, 1, ("x",), 6)
        groups = y_groups(codec, F)
        point = codec.pack({(0,): t, (1,): one})
        got = series_module._evaluate(groups, point, 4, 6)
        assert codec.unpack(got) == codec.unpack(
            reference_evaluate(groups, point, 4, 6))
        assert codec.unpack(got)[(0,)] == one + t + t * t

    @pytest.mark.parametrize("p", [3, 9, INF])
    def test_sparse_coefficients_with_a_nilpotent_constant(self, p):
        """2t + x y^3 + (2 + t x^2) y^40 at y = t + x over qt1 (D = 4),
        expanded about kappa = t over the three present k only, gives the
        unexpanded sum of C_k h^k, each power of h by plain products."""
        alg = builtin_algebra("qt1", degree_bound=4)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        one = TensorElement.unit(alg, 1)
        codec = _Codec(alg, 1, ("x",), 64)
        coeffs = {0: codec.pack({(0,): t * 2}), 3: codec.pack({(1,): one}),
                  40: codec.pack({(0,): one * 2, (2,): t})}
        point = codec.pack({(0,): t, (1,): one})
        powers = [_UNIT]
        while len(powers) <= 40:
            powers.append(powers[-1].times(point, p, 4))
        want = _Packed.sum_of_products(
            [(c, powers[k]) for k, c in coeffs.items()], p, 4)
        got = series_module._evaluate(coeffs, point, p, 4)
        assert got.order == p
        assert codec.unpack(got) == codec.unpack(want)

    @settings(max_examples=60)
    @given(evaluation_inputs())
    def test_y_coefficients_fold_the_law(self, case):
        """`fgl._y_coefficients` packs the nonzero C_k of (mu . (id (x)
        S))F, the series whose root the group inverse is."""
        F, _, _ = case
        assume(F.arity == 2)
        folded = F.map_coefficients(
            lambda A: A.apply_slot(1, "antipode").contract_mul((0, 1)))
        codec = _Codec(F.algebra, 1, ("x",), F.max_degree())
        got = _y_coefficients(codec, F)
        want = y_groups(codec, folded)
        assert {k: codec.unpack(c) for k, c in got.items()} == {
            k: codec.unpack(c) for k, c in want.items()}


# -- packed mul_inverse against the TensorElement recursion -------------------

def reference_mul_inverse(f, order=None):
    """Series.mul_inverse order by order on TensorElement coefficients: the
    recursion the packed one keeps, flags included (a zero product flags
    the series, not its coefficient)."""
    f0 = f.constant_term()
    if f0.full_counit() != 1:
        raise NonInvertibleConstantTerm(
            "constant term must have full counit 1 "
            "(rational rescaling is the caller's job)")
    f0_inv = f0.mul_inverse()
    if order is not None and order > f.order:
        raise TruncationInsufficient(
            f"inverse through order {order} needs the input through "
            f"that order (certified {f.order})",
            certified=f.order, requested=order)
    parts = {}
    for e, c in f.terms.items():
        d = sum(e)
        if d:
            parts.setdefault(d, []).append((e, c))
    if not parts:
        # a constant series keeps its order and its own flag
        return Series(f.algebra, f.arity, f.nvars,
                      {(0,) * f.nvars: f0_inv}, f.order, f.names,
                      f.truncated)
    maxdeg = max(parts)
    exhaustive = False
    if order is None:
        if f.order != INF:
            order = f.order
        else:
            if any(c.full_counit() != 0
                   for entries in parts.values() for _, c in entries):
                raise ValueError(
                    "series is a complete polynomial with a "
                    "non-nilpotent positive part; its inverse is "
                    "infinite, pass an explicit order")
            exhaustive = True
            order = f.arity * f.algebra.degree_bound * maxdeg + maxdeg
    levels = {0: {(0,) * f.nvars: f0_inv}}
    acc_terms = {(0,) * f.nvars: f0_inv}
    truncated = f.truncated
    for m in range(1, order + 1):
        raw = {}
        for j in range(1, min(m, maxdeg) + 1):
            prev = levels.get(m - j)
            if not prev:
                continue
            for e_f, c_f in parts.get(j, ()):
                for e_b, c_b in prev.items():
                    e = tuple(a + b for a, b in zip(e_f, e_b))
                    prod = c_f * c_b
                    truncated = truncated or prod.truncated
                    if prod.is_zero():
                        continue
                    cur = raw.get(e)
                    raw[e] = prod if cur is None else cur + prod
        level = {}
        for e, c in raw.items():
            val = -(f0_inv * c)
            if not val.is_zero():
                level[e] = val
                acc_terms[e] = val
        levels[m] = level
        if exhaustive and m >= maxdeg and all(
                not levels[m - i] for i in range(maxdeg)):
            break
    result_order = INF if exhaustive else min(order, f.order)
    return Series(f.algebra, f.arity, f.nvars, acc_terms, result_order,
                  f.names, truncated)


@st.composite
def mul_inverse_inputs(draw):
    """(f, requested order): f = 1 + a nilpotent constant part + up to five
    terms over qt1 or qtu at degree bounds 3-8, 1 or 2 variables, arity 1
    or 2, with rare coefficient and series flags; half the time every
    positive-degree coefficient is nilpotent, so a complete polynomial
    with no requested order takes the exhaustive branch. Orders 0-8,
    requests up to one above. Half the coefficients are one basis key
    (plus the unit in the constant term): their products are either zero
    and flagged or nonzero and unflagged, so a coefficient that takes
    in a zero product's flag shows."""
    name, bound = draw(_ENGINE_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    arity = draw(st.integers(1, 2))
    nvars = draw(st.integers(1, 2))
    nilpotent = draw(st.booleans())
    keys = [k for k in itertools.product(alg.monomials(), repeat=arity)
            if alg.key_degree(k) <= bound]
    simple = draw(st.booleans())

    def coefficient(unit):
        if not simple and draw(st.booleans()):
            return draw(tensor_coefficients(alg, arity, unit=unit))
        key = draw(st.sampled_from(keys if unit is None else keys[1:]))
        raw = {key: Q(draw(st.sampled_from([-2, -1, 1, 3])))}
        if unit:
            raw[keys[0]] = Q(unit)
        return TensorElement(alg, arity, raw, not simple and draw(_RARE))

    terms = {(0,) * nvars: (TensorElement.unit(alg, arity) if simple
                            else coefficient(1))}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.lists(st.integers(0, 3), min_size=nvars,
                                   max_size=nvars)))
        if any(exps):
            terms[exps] = coefficient(0 if nilpotent else None)
    f_order = draw(st.one_of(st.just(INF), st.integers(0, 8)))
    order = draw(st.one_of(st.none(), st.integers(0, 9)))
    return Series(alg, arity, nvars, terms, f_order,
                  truncated=draw(_RARE)), order


class TestPackedMulInverse:
    """Series.mul_inverse on packed rows gives what the TensorElement
    recursion gives: terms, certified order, `truncated` and every
    exception."""

    @settings(max_examples=250)
    @given(mul_inverse_inputs())
    def test_matches_tensor_recursion(self, case):
        f, order = case
        assert_same_outcome(outcome(f.mul_inverse, order),
                            outcome(reference_mul_inverse, f, order))

    def test_zero_product_flags_only_the_series(self, qt1):
        """In the inverse of 1 + t^2 x + x^2 at degree bound 3, the x^2
        coefficient sums t^2 times the -t^2 of order 1, which leaves the
        bound (a zero, flagged product), and 1 times 1: the series is
        flagged, but the x^2 coefficient, -1, is not."""
        alg = builtin_algebra("qt1", degree_bound=3)
        t = TensorElement.from_slots(HopfElement.generator(alg, "t"))
        one = TensorElement.unit(alg, 1)
        f = Series(alg, 1, 1, {(0,): one, (1,): t * t, (2,): one}, 3)
        got = f.mul_inverse()
        _assert_same(got, reference_mul_inverse(f))
        assert got.truncated
        assert not got.coeff((2,)).truncated

    @settings(max_examples=250)
    @given(mul_inverse_inputs())
    def test_product_is_one(self, case):
        """f times its inverse is 1 through the inverse's certified order,
        exactly for a complete inverse."""
        f, order = case
        g, raised = outcome(f.mul_inverse, order)
        assume(raised is None)
        product = f * g
        assert product.order >= g.order
        assert (product - 1).truncate(g.order).is_zero()

    @pytest.mark.parametrize("scale", [1, -2])
    def test_complete_inverse_without_a_linear_term(self, qt1, scale):
        """1 + s t x^2 over qt1 (s = 1, -2) has no x term, so every odd
        row of the recursion is zero, but the even ones are not: the
        exhaustive stop waits for two zero rows in a row, and the inverse
        is the complete sum of (-s t)^k x^(2k) up to t^8, flagged, since
        row 18 leaves the degree bound."""
        t = TensorElement.from_slots(HopfElement.generator(qt1, "t"))
        f = Series(qt1, 1, 1, {(0,): TensorElement.unit(qt1, 1),
                               (2,): t * scale})
        got = f.mul_inverse()
        want = Series(qt1, 1, 1, {(2 * k,): (t * -scale) ** k
                                  for k in range(9)}, truncated=True)
        _assert_same(got, want)
        assert (f * got - 1).is_zero()


# -- operations on the packed codes against dict-based references -------------
#
# A Series is one _Packed of its codec's layout. The bodies below are the
# term-dict forms these operations had before they ran on the codes; each
# builds its result with the public constructor, as those bodies built it
# from the same terms, order, names and flag.

def ref_series(f, terms, order=None, names=None, truncated=None):
    names = f.names if names is None else tuple(names)
    return Series(f.algebra, f.arity, len(names), terms,
                  f.order if order is None else order, names,
                  f.truncated if truncated is None else truncated)


def ref_combine(f, g, sign):
    order = min(f.order, g.order)
    acc = dict(f.terms)
    for e, c in g.terms.items():
        cur = acc.get(e)
        if cur is not None:
            acc[e] = cur + c if sign > 0 else cur - c
        else:
            acc[e] = c if sign > 0 else -c
    terms = {e: c for e, c in acc.items()
             if sum(e) <= order and not c.is_zero()}
    return ref_series(f, terms, order, truncated=f.truncated or g.truncated)


def ref_neg(f):
    return ref_series(f, {e: -c for e, c in f.terms.items()})


def ref_scale(f, q):
    if q == 0:
        return Series.zero(f.algebra, f.arity, f.nvars, f.order, f.names)
    return ref_series(f, {e: c * q for e, c in f.terms.items()})


def ref_derivative(f, var):
    acc = {}
    for e, c in f.terms.items():
        k = e[var]
        if k:
            acc[e[:var] + (k - 1,) + e[var + 1:]] = c if k == 1 else c * k
    order = f.order - 1
    return ref_series(f, {e: c for e, c in acc.items()
                          if sum(e) <= order and not c.is_zero()}, order)


def ref_integrate(f, var):
    acc = {}
    for e, c in f.terms.items():
        acc[e[:var] + (e[var] + 1,) + e[var + 1:]] = c * Q(1, e[var] + 1)
    return ref_series(f, acc, f.order + 1)


def ref_embed_vars(f, nvars, positions):
    acc = {}
    for e, c in f.terms.items():
        exps = [0] * nvars
        for pos, k in zip(positions, e):
            exps[pos] = k
        acc[tuple(exps)] = c
    return ref_series(f, acc, names=series_module.DEFAULT_NAMES[nvars])


def ref_set_variable_zero(f, var):
    return ref_series(f, {e: c for e, c in f.terms.items() if e[var] == 0})


def ref_drop_variable(f, var):
    if any(e[var] for e in f.terms):
        raise ShapeMismatch(
            f"variable {f.names[var]} still occurs; cannot drop")
    return ref_series(f, {e[:var] + e[var + 1:]: c
                          for e, c in f.terms.items()},
                      names=f.names[:var] + f.names[var + 1:])


def ref_permute_vars(f, perm):
    return ref_series(f, {tuple(e[p] for p in perm): c
                          for e, c in f.terms.items()})


def ref_with_order(f, order):
    if order <= f.order:
        return ref_series(f, {e: c for e, c in f.terms.items()
                              if sum(e) <= order}, order)
    return ref_series(f, dict(f.terms), order)


def assert_one_packed_form(s):
    """The packed form is all of s: its terms are the codec's unpacking,
    its order and flag the packed form's, its shape the codec's; every
    bucket is nonempty, sorted and free of zeros, and every code decodes
    to nonnegative exponents within the order and the width of its
    fields, and to a tensor key of its bucket's Hopf degree."""
    codec, packed = s._codec, s._packed
    assert s.terms == codec.unpack(packed)
    assert (s.order, s.truncated) == (packed.order, packed.flag)
    assert (s.algebra, s.arity, s.nvars, s.names) == (
        codec.algebra, codec.arity, codec.nvars, codec.names)
    assert packed.shift == codec.shift and packed.den > 0
    key = s.algebra._codec(s.arity).key
    mask = (1 << codec.hopf_bits) - 1
    for h, bucket in packed.buckets.items():
        codes = [code for code, _ in bucket]
        assert codes and codes == sorted(set(codes))
        assert all(n for _, n in bucket)
        assert h <= s.algebra.degree_bound
        for code in codes:
            exps = codec._code_exps(code >> codec.hopf_bits)
            assert len(exps) == s.nvars and min(exps, default=0) >= 0
            assert sum(exps) == code >> codec.shift <= s.order
            assert codec._exps_code(exps) | code & mask == code
            assert s.algebra.key_degree(key(code & mask)) == h


@st.composite
def code_op_inputs(draw, arities=(1, 2, 3), nvars=(1, 2, 3)):
    """A series over qt1 or qtu at degree bounds 3-8, of arity and variable
    count drawn from the given ones, flagged half the time, with
    exponents up to 3, and a second one of the same shape."""
    name, bound = draw(_ENGINE_ALGEBRAS)
    alg = builtin_algebra(name, degree_bound=bound)
    arity = draw(st.sampled_from(arities))
    n = draw(st.sampled_from(nvars))
    f, g = (draw(engine_series(alg, arity, n, top=3, flags=st.booleans()))
            for _ in range(2))
    return f, g


def _code_op_cases(data, op):
    """(got, want) of one operation on drawn inputs: the operation as the
    Series runs it, and its reference."""
    if op in ("add", "sub", "neg", "scale", "with_order", "with_names"):
        f, g = data.draw(code_op_inputs())
        if op == "add":
            return f + g, ref_combine(f, g, 1)
        if op == "sub":
            return f - g, ref_combine(f, g, -1)
        if op == "neg":
            return -f, ref_neg(f)
        if op == "scale":
            q = Q(data.draw(st.sampled_from([0, 1, -1, 2, -3])),
                  data.draw(st.sampled_from([1, 2, 3])))
            return f.scale(q), ref_scale(f, q)
        if op == "with_order":
            order = data.draw(st.one_of(st.just(INF), st.integers(-1, 10)))
            return f.with_order(order), ref_with_order(f, order)
        names = ("a", "b", "c")[:f.nvars]
        return f.with_names(names), ref_series(f, f.terms, names=names)
    f, _ = data.draw(code_op_inputs())
    var = data.draw(st.integers(0, f.nvars - 1))
    if op == "derivative":
        return f.derivative(var), ref_derivative(f, var)
    if op == "integrate":
        return f.integrate(var), ref_integrate(f, var)
    if op == "set_variable_zero":
        return f.set_variable_zero(var), ref_set_variable_zero(f, var)
    if op == "drop_variable":
        if data.draw(st.booleans()):
            f = f.set_variable_zero(var)
        return (outcome(f.drop_variable, var),
                outcome(ref_drop_variable, f, var))
    if op == "permute_vars":
        perm = tuple(data.draw(st.permutations(range(f.nvars))))
        return f.permute_vars(perm), ref_permute_vars(f, perm)
    nvars = data.draw(st.integers(f.nvars, 3))
    positions = tuple(sorted(data.draw(st.sets(
        st.integers(0, nvars - 1), min_size=f.nvars, max_size=f.nvars))))
    return (f.embed_vars(nvars, positions),
            ref_embed_vars(f, nvars, positions))


@st.composite
def slot_map_cases(draw):
    """(got, want) of a structure map on a drawn series: comul, counit,
    antipode or mu in a slot, or a slot embedding, as the Series runs it
    on its codes and as map_coefficients runs it on each coefficient."""
    f, _ = draw(code_op_inputs())
    arity = f.arity
    ops = [("antipode", 1)]
    if arity < 3:
        ops += [("comul", 2), ("embed", None)]
    if arity > 1:
        ops += [("counit", 0), ("mul", None)]
    op, _ = draw(st.sampled_from(ops))
    if op == "embed":
        target = draw(st.integers(arity + 1, 3))
        slots = tuple(sorted(draw(st.sets(st.integers(0, target - 1),
                                          min_size=arity, max_size=arity))))
        return (f.embed(target, slots),
                f.map_coefficients(lambda A: A.embed(target, slots)))
    if op == "mul":
        i = draw(st.integers(0, arity - 2))
        return (f.contract_mul((i, i + 1)),
                f.map_coefficients(lambda A: A.contract_mul((i, i + 1))))
    slot = draw(st.integers(0, arity - 1))
    return (f.apply_slot(slot, op),
            f.map_coefficients(lambda A: A.apply_slot(slot, op)))


class TestCodeOps:
    """Each operation that runs on a series' codes gives what the term-dict
    form gives: terms, certified order, flag and names, and its result is
    one consistent packed form."""

    @pytest.mark.parametrize("op", [
        "add", "sub", "neg", "scale", "derivative", "integrate",
        "embed_vars", "set_variable_zero", "drop_variable", "permute_vars",
        "with_order", "with_names"])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_the_term_dict_form(self, op, data):
        got, want = _code_op_cases(data, op)
        if isinstance(got, tuple):
            assert_same_outcome(got, want)
            got = got[0]
        else:
            _assert_same(got, want)
        if got is not None:
            assert_one_packed_form(got)

    @settings(max_examples=300)
    @given(slot_map_cases())
    def test_structure_maps_match_map_coefficients(self, case):
        got, want = case
        _assert_same(got, want)
        assert got.arity == want.arity
        assert_one_packed_form(got)

    @settings(max_examples=100)
    @given(code_op_inputs(arities=(1, 2)), st.data())
    def test_every_public_op_is_one_packed_form(self, case, data):
        """The results of the constructors, the ring and calculus
        operations, truncation, the structure maps, substitution and both
        inverses, where they are defined."""
        f, g = case
        alg, arity, n = f.algebra, f.arity, f.nvars
        one = Series.constant(TensorElement.unit(alg, arity), n, INF, f.names)
        x = Series.variable(alg, arity, 1, 0, 6)
        results = [f, g, one, x, Series.zero(alg, arity, n), f + g, f - g,
                   -f, f * g, f ** 2, 3 * f, f.derivative(), f.integrate(),
                   f.truncate(data.draw(st.integers(-1, 6))),
                   f.with_order(9), f.embed_vars(3, range(n)),
                   f.set_variable_zero(0), f.permute_vars(range(n)[::-1]),
                   f.apply_slot(0, "antipode"),
                   f.embed(arity + 1, range(arity)),
                   f.map_coefficients(lambda A: A * 2),
                   (f * x.embed_vars(n, (0,), f.names)).truncate(5)]
        if arity == 2:
            results += [f.apply_slot(1, "counit"), f.contract_mul()]
        inverse = outcome((one + f.set_variable_zero(0)
                           * Series.variable(alg, arity, n, 0, 6, f.names)
                           ).mul_inverse, 5)
        h = x + x * x
        assigns = [h.with_names(("x",))] * n
        results += [r for r in (
            inverse[0], outcome(f.substitute, assigns, 4)[0],
            outcome(h.comp_inverse, 5)[0]) if r is not None]
        for r in results:
            assert_one_packed_form(r)

    def test_negative_exponent_rejected(self, qt1):
        """The packed layout holds no negative exponent; the square of
        X^-1 Y^2 would print as X^2 Y^-3."""
        with pytest.raises(ShapeMismatch):
            Series(qt1, 1, 2, {(-1, 2): TensorElement.unit(qt1, 1)},
                   names=("X", "Y"))
