"""Inline expression parser."""

from fractions import Fraction

import pytest

from fglog import HopfElement, TensorElement
from fglog.errors import ParseError
from fglog.exprparse import (
    MAX_EXPONENT,
    _digit_limit,
    parse_element,
    parse_tensor,
)


class TestParseElement:
    def test_sum_and_power(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_element("t^2 + 3t", qt1)
        assert (got - (t * t + t * 3)).is_zero()

    def test_scalar_promotion(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_element("1 + t", qt1)
        assert (got - (HopfElement.one(qt1) + t)).is_zero()

    def test_leading_minus(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_element("-t + 2", qt1)
        assert (got - (HopfElement.one(qt1) * 2 - t)).is_zero()

    def test_rational_coefficient(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_element("1/2 t^2 - 3/4 t", qt1)
        want = t * t * Fraction(1, 2) - t * Fraction(3, 4)
        assert (got - want).is_zero()

    def test_pure_scalar(self, qt1):
        got = parse_element("5/3", qt1)
        assert (got - HopfElement.one(qt1) * Fraction(5, 3)).is_zero()

    def test_two_generators(self, qtu):
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        got = parse_element("2 t u - u^2", qtu)
        assert (got - (t * u * 2 - u * u)).is_zero()

    def test_tensor_input_rejected(self, qt1):
        with pytest.raises(ParseError):
            parse_element("t (x) t", qt1)


class TestParseTensor:
    def test_ascii_tensor(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("2 t (x) t", qt1)
        assert (got - TensorElement.from_slots(t, t) * 2).is_zero()

    def test_unicode_tensor(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("t ⊗ t^2", qt1)
        assert (got - TensorElement.from_slots(t, t * t)).is_zero()

    def test_sum_of_tensors(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("1/2 t (x) t^2 - t^2 (x) t", qt1)
        want = (TensorElement.from_slots(t, t * t) * Fraction(1, 2)
                - TensorElement.from_slots(t * t, t))
        assert (got - want).is_zero()

    def test_parenthesized_slots(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("(t + t^2) (x) (t - t^2)", qt1)
        assert (got - TensorElement.from_slots(t + t * t, t - t * t)).is_zero()

    def test_triple_tensor(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("t (x) t (x) t", qt1)
        assert (got - TensorElement.from_slots(t, t, t)).is_zero()

    def test_explicit_star(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = parse_tensor("3 * t (x) 2 * t", qt1)
        assert (got - TensorElement.from_slots(t * 3, t * 2)).is_zero()

    def test_arity_check(self, qt1):
        with pytest.raises(ParseError):
            parse_tensor("t (x) t", qt1, arity=3)
        assert parse_tensor("t (x) t", qt1, arity=2).arity == 2

    def test_scalar_becomes_unit_multiple(self, qt1):
        got = parse_tensor("3", qt1)
        assert (got - TensorElement.unit(qt1, 1) * 3).is_zero()


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "t +",
        "q",
        "t (x) t + t",
        "2 // 3",
        "t^",
        "t^t",
        "(t (x) t) (x) t",
        "t ) t",
        "t @ t",
        "",
    ])
    def test_rejected(self, qt1, text):
        with pytest.raises(ParseError):
            parse_tensor(text, qt1)

    def test_unknown_generator_names_alternatives(self, qt1):
        with pytest.raises(ParseError) as exc:
            parse_tensor("u (x) u", qt1)
        assert "t" in str(exc.value)


class TestDegreeBound:
    @pytest.mark.parametrize("algebra, text, term", [
        ("qt2", "t^9 (x) t", "t^9 (x) t"),
        ("qt2", "t^3 (x) t^2 + t (x) t", "t^3 (x) t^2"),
        ("qt2", "t (x) t - 2 t^2 (x) t^3", "2 t^2 (x) t^3"),
        ("qt2", "t + (t^4 + t^5)", "t^5"),
        ("qt1", "t^5 * t^4", "t^5 * t^4"),
        ("qt1", "-(1 + t)^9", "(1 + t)^9"),
    ])
    def test_term_above_bound_is_named(self, request, algebra, text, term):
        with pytest.raises(ParseError) as exc:
            parse_tensor(text, request.getfixturevalue(algebra))
        assert repr(term) in str(exc.value)
        assert f"position {text.index(term)}" in str(exc.value)

    def test_element_above_bound_rejected(self, qt1):
        with pytest.raises(ParseError) as exc:
            parse_element("t^2 + t^9", qt1)
        assert "'t^9'" in str(exc.value)

    def test_terms_at_the_bound_accepted(self, qt1, qt2):
        t = HopfElement.generator(qt2, "t")
        got = parse_tensor("t^2 (x) t^2 + t^4 (x) 1", qt2)
        assert not got.truncated
        assert got == (TensorElement.from_slots(t * t, t * t)
                       + TensorElement.from_slots(t ** 4, HopfElement.one(qt2)))
        assert parse_element("(1 + t)^8", qt1) == (
            HopfElement.one(qt1) + HopfElement.generator(qt1, "t")) ** 8


class TestSizeLimits:
    def test_exponent_limit(self, qt1):
        assert parse_element(f"(-1)^{MAX_EXPONENT} t", qt1) == (
            HopfElement.generator(qt1, "t"))
        with pytest.raises(ParseError) as exc:
            parse_element(f"t + (1 + t)^{MAX_EXPONENT + 1}", qt1)
        assert str(exc.value) == (
            f"exponent {MAX_EXPONENT + 1} at position 12 is above the "
            f"limit {MAX_EXPONENT}")

    def test_exponent_longer_than_the_digit_limit(self, qt1):
        with pytest.raises(ParseError) as exc:
            parse_element("t^" + "0" * 4000 + "9" * 1000, qt1)
        assert "exponent 00000000000000000000...(5000 chars)" in str(exc.value)
        assert parse_element("t^" + "0" * 5000 + "1", qt1) == (
            HopfElement.generator(qt1, "t"))

    def test_numbers_up_to_the_digit_limit(self, qt1):
        limit = _digit_limit()
        t = HopfElement.generator(qt1, "t")
        inside = "9" * limit
        assert parse_element(f"{inside} t", qt1) == t * int(inside)
        assert parse_element(f"1/{inside}", qt1) == Fraction(1, int(inside))
        for text, what in [(inside + "9", "number"),
                           ("1/" + inside + "9", "number"),
                           (f"{inside} + 1", "sum"),
                           (f"{inside} t * 10", "term"),
                           ("10^" + str(limit), "term"),
                           ("10^" + str(limit + 2), "power"),
                           (f"(1/10 + t)^{limit + 2}", "power")]:
            with pytest.raises(ParseError) as exc:
                parse_element(text, qt1)
            assert str(exc.value).startswith(what + " ")
            assert f"more than {limit} digits" in str(exc.value)
        assert parse_element(f"10^{limit - 1}", qt1) == (
            HopfElement.one(qt1) * 10 ** (limit - 1))


class TestTensorPower:
    def test_squaring_matches_repeated_products(self, qtu):
        t = HopfElement.generator(qtu, "t")
        u = HopfElement.generator(qtu, "u")
        base = HopfElement.one(qtu) * Fraction(1, 2) + t - u * 3
        acc = HopfElement.one(qtu)
        for n in range(12):
            got = base ** n
            assert (got, got.truncated) == (acc, acc.truncated)
            acc = acc * base

    def test_power_killed_by_the_bound_stops_early(self, qt1):
        t = HopfElement.generator(qt1, "t")
        got = t ** (10 ** 18)
        assert got.is_zero() and got.truncated
        assert not (t ** 8).truncated
