"""Classical rational-series oracle and its agreement with the kernel."""

from fractions import Fraction

import pytest

from fglog import Series, TensorElement, logarithm
from classical import (
    additivity_defect,
    classical_logarithm,
    poly_add,
    poly_mul,
    poly_scale,
    poly_truncate,
)

XY = ("X", "Y")


def multiplicative():
    return {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)}


def tanh_sum(order):
    """(x + y) / (1 + x y) expanded through the given total degree."""
    F = {}
    k = 0
    while 2 * k + 1 <= order:
        s = Fraction((-1) ** k)
        F[(k + 1, k)] = s
        F[(k, k + 1)] = s
        k += 1
    return poly_truncate(F, order)


class TestPolyOps:
    def test_add_cancels(self):
        a = {(1, 0): Fraction(2)}
        b = {(1, 0): Fraction(-2), (0, 1): Fraction(1)}
        assert poly_add(a, b) == {(0, 1): Fraction(1)}

    def test_scale_zero(self):
        assert poly_scale({(1, 0): Fraction(1)}, 0) == {}

    def test_mul_truncates(self):
        a = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        out = poly_mul(a, a, 1)
        assert out == {}

    def test_mul_binomial(self):
        a = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        out = poly_mul(a, a, 2)
        assert out == {(2, 0): Fraction(1), (1, 1): Fraction(2),
                       (0, 2): Fraction(1)}


class TestClassicalLogarithm:
    def test_multiplicative_is_log_one_plus_x(self):
        got = classical_logarithm(multiplicative(), 12)
        assert got == [Fraction((-1) ** (n + 1), n) for n in range(1, 13)]

    def test_tanh_sum_is_atanh(self):
        got = classical_logarithm(tanh_sum(9), 9)
        expect = [Fraction(1) if n % 2 else Fraction(0)
                  for n in range(1, 10)]
        expect = [q / n if q else q for n, q in enumerate(expect, start=1)]
        assert got == expect

    def test_additive_is_identity(self):
        F = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        assert classical_logarithm(F, 8) == [Fraction(1)] + [Fraction(0)] * 7

    def test_non_law_rejected(self):
        F = {(1, 0): Fraction(1), (0, 1): Fraction(1), (2, 0): Fraction(1)}
        with pytest.raises(ValueError):
            classical_logarithm(F, 6)

    def test_bad_linear_part_rejected(self):
        with pytest.raises(ValueError):
            classical_logarithm({(1, 0): Fraction(2), (0, 1): Fraction(1)}, 4)
        with pytest.raises(ValueError):
            classical_logarithm({(1, 0): Fraction(1), (0, 1): Fraction(1),
                                 (0, 0): Fraction(1)}, 4)

    def test_defect_vanishes_for_true_logarithm(self):
        F = multiplicative()
        g = classical_logarithm(F, 10)
        assert additivity_defect(g, F, 10) == {}

    def test_defect_flags_wrong_logarithm(self):
        F = multiplicative()
        assert additivity_defect([Fraction(1)], F, 4)


class TestKernelAgreement:
    def test_multiplicative_logarithm_matches(self, trivial):
        unit = TensorElement.unit(trivial, 2)
        F = Series(trivial, 2, 2,
                   {(1, 0): unit, (0, 1): unit, (1, 1): unit},
                   names=XY)
        g = logarithm(F, order=12)
        oracle = classical_logarithm(multiplicative(), 12)
        for n in range(1, 13):
            assert g.coeff((n,)).full_counit() == oracle[n - 1]

    def test_tanh_sum_logarithm_matches(self, trivial):
        unit = TensorElement.unit(trivial, 2)
        terms = {e: unit * q for e, q in tanh_sum(9).items()}
        F = Series(trivial, 2, 2, terms, 9, XY)
        g = logarithm(F, order=9)
        oracle = classical_logarithm(tanh_sum(9), 9)
        for n in range(1, 10):
            assert g.coeff((n,)).full_counit() == oracle[n - 1]
