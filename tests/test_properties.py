"""Randomized invariants for the algebra, cocycle and group law layers.

These complement the per-monomial axiom sweeps with random linear
combinations, and exercise the advertised equivalences (coboundaries are
cocycles, the constant-cocycle biconditional, reconstruction round trips,
serialization) on machine-generated inputs.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fglog import builtin_algebra
from fglog.exprparse import parse_tensor
from fglog.fgl import (
    check_axioms,
    check_cocycle,
    check_log,
    coboundary,
    cocycle_defect,
    extract_cocycle,
    inverse_series,
    lemma_law,
    logarithm,
    reconstruct,
)
from fglog.hopf import HopfElement, TensorElement
from fglog.jsonio import (
    group_from_json,
    group_to_json,
    series_from_json,
    series_to_json,
    tensor_from_json,
    tensor_to_json,
)
from fglog.scalars import rational
from fglog.series import Series

QT1 = builtin_algebra("qt1")
QT2 = builtin_algebra("qt2")
QTU = builtin_algebra("qtu")


def rationals(nonzero=False):
    base = st.fractions(min_value=Fraction(-4), max_value=Fraction(4),
                        max_denominator=4)
    if nonzero:
        base = base.filter(lambda f: f != 0)
    return base.map(rational)


def elements(algebra, zero_counit=False, max_terms=3):
    monos = list(algebra.monomials())
    if zero_counit:
        monos = [m for m in monos if any(m)]
    return st.dictionaries(st.sampled_from(monos), rationals(nonzero=True),
                           max_size=max_terms).map(
        lambda d: HopfElement(algebra, dict(d)))


def tensors(algebra, arity, max_terms=3, zero_counit=False):
    monos = list(algebra.monomials())
    keys = st.tuples(*([st.sampled_from(monos)] * arity)).filter(
        lambda k: algebra.key_degree(k) <= algebra.degree_bound)
    if zero_counit:
        keys = keys.filter(lambda k: all(any(m) for m in k))
    return st.dictionaries(keys, rationals(nonzero=True),
                           max_size=max_terms).map(
        lambda d: TensorElement(algebra, arity, dict(d)))


class TestHopfInvariants:
    @given(a=elements(QTU), b=elements(QTU))
    def test_counit_multiplicative(self, a, b):
        assert (a * b).counit() == a.counit() * b.counit()

    @given(a=elements(QTU), b=elements(QTU))
    def test_comul_multiplicative(self, a, b):
        assert (a * b).comul() == a.comul() * b.comul()

    @given(a=elements(QTU))
    def test_antipode_fold_is_counit(self, a):
        folded = a.comul().apply_slot(0, "antipode").contract_mul((0, 1))
        target = HopfElement.from_scalar(QTU, a.counit())
        assert folded == target

    @given(a=elements(QTU))
    def test_antipode_is_involutive(self, a):
        # H is commutative, so S has order two
        assert a.antipode().antipode() == a

    @given(a=elements(QTU))
    def test_counit_kills_antipode(self, a):
        assert a.antipode().counit() == a.counit()

    @given(a=elements(QTU))
    def test_builtin_coproducts_are_cocommutative(self, a):
        dm = a.comul()
        assert dm.permute((1, 0)) == dm


class TestCocycleInvariants:
    @given(h=elements(QTU, zero_counit=True))
    def test_coboundaries_are_cocycles(self, h):
        assert check_cocycle(coboundary(h)).passed

    @given(h=elements(QTU, zero_counit=True))
    def test_coboundaries_are_symmetric(self, h):
        b = coboundary(h)
        assert b.permute((1, 0)) == b

    @given(c1=tensors(QT2, 2), c2=tensors(QT2, 2), q=rationals())
    def test_defect_is_linear(self, c1, c2, q):
        lhs = cocycle_defect(c1 * q + c2)
        assert lhs == cocycle_defect(c1) * q + cocycle_defect(c2)

    @given(c=tensors(QT2, 2, zero_counit=True))
    def test_lemma_biconditional(self, c):
        """c + X + Y satisfies the group axioms iff c is a symmetric
        2-cocycle with zero counit."""
        sym = c + c.permute((1, 0))
        F = lemma_law(QT2, sym)
        assert check_cocycle(sym).passed == check_axioms(F, order=4).passed


def small_logarithms(algebra, degrees):
    """x + a*m2*x^2 + b*m3*x^3 with monomial coefficients of the given
    generator powers."""
    monos = list(algebra.monomials())
    picks = st.sampled_from([m for m in monos
                             if algebra.degree(m) in degrees])
    return st.builds(
        lambda m2, m3, a, b: (
            Series.variable(algebra, 1, 1, 0, names=("x",))
            + Series.constant(
                TensorElement(algebra, 1, {(m2,): a}), 1, names=("x",))
            * Series.variable(algebra, 1, 1, 0, names=("x",)) ** 2
            + Series.constant(
                TensorElement(algebra, 1, {(m3,): b}), 1, names=("x",))
            * Series.variable(algebra, 1, 1, 0, names=("x",)) ** 3),
        picks, picks, rationals(), rationals())


def small_cocycles(algebra, powers):
    """q * d(t^k) + r * (t (x) t): provably in the cocycle span."""
    t = HopfElement.generator(algebra, algebra.names[0])

    def build(k, q, r):
        c = coboundary(t ** k) * q
        return c + TensorElement.from_slots(t, t) * r

    return st.builds(build, st.sampled_from(powers), rationals(),
                     rationals())


class TestGroupLawRoundTrips:
    # Verifying a returned law externally costs the nilpotency slack of its
    # constant term, so these tests reconstruct that much further out and
    # certify at the target order, as the certification contract requires.

    @settings(max_examples=15)
    @given(g=small_logarithms(QT2, (2, 4)), c=small_cocycles(QT2, (2, 3)))
    def test_reconstruct_recovers_inputs(self, g, c):
        F = reconstruct(QT2, c, g, order=4 + c.nilpotency_slack())
        assert check_axioms(F, order=4).passed
        assert logarithm(F, order=4) == g.truncate(4)
        assert extract_cocycle(F) == c

    @settings(max_examples=15)
    @given(c=small_cocycles(QT2, (2, 3)))
    def test_log_equation_certifies_both_routes(self, c):
        work = 5 + c.nilpotency_slack()
        F = reconstruct(QT2, c, Series.variable(QT2, 1, 1, 0, names=("x",)),
                        order=work)
        g = logarithm(F, order=work)
        report = check_log(F, g, order=4)
        assert report.passed
        assert report.certified_order == 4

    @settings(max_examples=15)
    @given(g=small_logarithms(QT2, (2,)))
    def test_inverse_fold_vanishes(self, g):
        F = reconstruct(QT2, TensorElement.zero(QT2, 2), g, order=4)
        iota = inverse_series(F, order=4)
        folded = F.map_coefficients(
            lambda A: A.apply_slot(1, "antipode").contract_mul((0, 1)))
        x = Series.variable(QT2, 1, 1, 0, 4, ("x",))
        assert folded.substitute([x, iota]).truncate(4).is_zero()


class TestSerializationRoundTrips:
    @given(c=tensors(QTU, 2))
    def test_tensor_json(self, c):
        assert tensor_from_json(tensor_to_json(c), QTU) == c

    @given(c=tensors(QTU, 3, max_terms=2))
    def test_tensor_json_arity_three(self, c):
        assert tensor_from_json(tensor_to_json(c), QTU) == c

    @given(c=tensors(QT1, 2))
    def test_expression_print_parse(self, c):
        assert parse_tensor(str(c), QT1, arity=2) == c

    @given(coeffs=st.lists(tensors(QT1, 1, max_terms=2), min_size=1,
                           max_size=3),
           order=st.integers(3, 9))
    def test_series_json(self, coeffs, order):
        terms = {(i + 1,): c for i, c in enumerate(coeffs)}
        s = Series(QT1, 1, 1, terms, order, ("x",))
        back = series_from_json(series_to_json(s), QT1)
        assert back == s
        assert back.order == s.order

    @given(g=small_logarithms(QT2, (2,)), c=small_cocycles(QT2, (2,)))
    def test_group_json(self, g, c):
        F = reconstruct(QT2, c, g, order=4)
        algebra2, F2 = group_from_json(group_to_json(F))
        assert F2 == F
        assert F2.order == F.order
