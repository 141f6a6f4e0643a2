"""JSON interchange: round trips, schema tolerance, malformed input."""

import json
import math

import pytest
from fractions import Fraction

from fglog import (
    HopfElement,
    Series,
    TensorElement,
    additive_law,
    algebra_description,
    build_hopf_algebra,
    check_axioms,
    lemma_law,
)
from fglog.errors import ParseError
from fglog.report import Report, Violation
from fglog import jsonio as J

INF = math.inf
XY = ("X", "Y")


def two_t_t(algebra):
    t = HopfElement.generator(algebra, "t")
    return TensorElement.from_slots(t, t) * 2


class TestAlgebraJson:
    def test_round_trip_builtin(self, qtu):
        desc = algebra_description(qtu)
        back = build_hopf_algebra(desc)
        assert back == qtu

    def test_round_trip_custom_coproduct(self):
        desc = {
            "generators": [{"name": "t", "degree": 2}],
            "degree_bound": 6,
            "coproduct": {"t": [[["t"], ["1"], "1"], [["1"], ["t"], "1"]]},
        }
        H = build_hopf_algebra(desc)
        desc2 = algebra_description(H)
        # explicit primitive tables normalize to the shorthand
        assert desc2["coproduct"]["t"] == "primitive"
        assert build_hopf_algebra(desc2) == H

    def test_load_algebra_builtin_name(self):
        H = J.load_algebra("qt2")
        assert H.degrees == (2,)

    def test_load_algebra_rejects_garbage(self):
        with pytest.raises(ParseError):
            J.load_algebra(42)


class TestTensorJson:
    def test_round_trip(self, qt1):
        t = HopfElement.generator(qt1, "t")
        c = (TensorElement.from_slots(t, t * t) * Fraction(1, 3)
             - TensorElement.from_slots(t * t, t))
        back = J.tensor_from_json(J.tensor_to_json(c), qt1)
        assert (back - c).is_zero()

    def test_exponent_vector_monomials(self, qt1):
        obj = {"arity": 2, "terms": [[[1], [2], "3/2"]]}
        t = HopfElement.generator(qt1, "t")
        want = TensorElement.from_slots(t, t * t) * Fraction(3, 2)
        assert (J.tensor_from_json(obj, qt1) - want).is_zero()

    def test_zero_terms_need_arity(self, qt1):
        assert J.tensor_from_json({"arity": 2, "terms": []}, qt1).is_zero()
        with pytest.raises(ParseError):
            J.tensor_from_json({"terms": []}, qt1)

    def test_deterministic_output(self, qt1):
        t = HopfElement.generator(qt1, "t")
        c = TensorElement.from_slots(t, t * t) + TensorElement.from_slots(
            t * t, t)
        assert J.dumps(J.tensor_to_json(c)) == J.dumps(J.tensor_to_json(c))

    def test_malformed_term(self, qt1):
        with pytest.raises(ParseError):
            J.tensor_from_json({"arity": 2, "terms": [["t"]]}, qt1)


class TestSeriesJson:
    def test_round_trip_truncated(self, qt1):
        t = HopfElement.generator(qt1, "t")
        F = lemma_law(qt1, two_t_t(qt1), order=5)
        obj = J.series_to_json(F)
        back = J.series_from_json(obj, qt1)
        assert (back - F).is_zero()
        assert back.order == 5
        assert back.names == F.names

    def test_exact_series_has_no_order_key(self, qt1):
        obj = J.series_to_json(additive_law(qt1))
        assert "order" not in obj
        back = J.series_from_json(obj, qt1)
        assert back.order == INF

    def test_fallback_order(self, qt1):
        obj = J.series_to_json(additive_law(qt1))
        back = J.series_from_json(obj, qt1, fallback_order=4)
        assert back.order == 4

    def test_own_order_wins_over_fallback(self, qt1):
        obj = J.series_to_json(additive_law(qt1).truncate(6))
        back = J.series_from_json(obj, qt1, fallback_order=3)
        assert back.order == 6

    def test_negative_exponent_rejected(self, qt1):
        obj = {"variables": ["x"], "arity": 1,
               "terms": [{"exp": [-1], "coeff": [[["1"], "1"]]}]}
        with pytest.raises(ParseError):
            J.series_from_json(obj, qt1)

    def test_repeated_exponents_are_summed(self, qt1):
        """Entries of one exponent add up, as a tensor's terms do; a zero
        sum drops the term."""
        obj = {"variables": ["x"], "arity": 2, "terms": [
            {"exp": [1], "coeff": [[["t"], ["1"], "1"]]},
            {"exp": [2], "coeff": [[["1"], ["1"], "1"]]},
            {"exp": [1], "coeff": [[["1"], ["t"], "1"]]},
            {"exp": [2], "coeff": [[["1"], ["1"], "-1"]]}]}
        t = HopfElement.generator(qt1, "t")
        one = HopfElement.one(qt1)
        back = J.series_from_json(obj, qt1)
        assert back.terms == {(1,): TensorElement.from_slots(t, one)
                              + TensorElement.from_slots(one, t)}

    def test_exponent_arity_mismatch_rejected(self, qt1):
        obj = {"variables": ["x"], "arity": 1,
               "terms": [{"exp": [1, 2], "coeff": [[["1"], "1"]]}]}
        with pytest.raises(ParseError):
            J.series_from_json(obj, qt1)


class TestGroupJson:
    def test_round_trip_inline_hopf(self, qt2):
        F = lemma_law(qt2, two_t_t(qt2))
        alg, back = J.group_from_json(J.group_to_json(F))
        assert alg == qt2
        assert (back - F).is_zero()

    def test_group_level_order_fallback(self, qt1):
        obj = J.group_to_json(additive_law(qt1))
        obj["order"] = 7
        _, back = J.group_from_json(obj)
        assert back.order == 7

    def test_hopf_path_reference(self, qt2, tmp_path):
        algebra_file = tmp_path / "alg.json"
        algebra_file.write_text(json.dumps(algebra_description(qt2)))
        F = lemma_law(qt2, two_t_t(qt2), order=4)
        obj = J.group_to_json(F)
        obj["hopf"] = "alg.json"
        group_file = tmp_path / "group.json"
        group_file.write_text(json.dumps(obj))
        alg, back = J.load_group(str(group_file))
        assert alg == qt2
        assert (back - F).is_zero()

    def test_hopf_builtin_reference(self, qt2):
        F = lemma_law(qt2, two_t_t(qt2), order=4)
        obj = J.group_to_json(F)
        obj["hopf"] = "qt2"
        alg, back = J.group_from_json(obj)
        assert alg == qt2
        assert (back - F).is_zero()

    def test_wrong_shape_rejected(self, qt1):
        one_var = Series.variable(qt1, 2, 1, 0, INF, ("x",))
        obj = {"hopf": "qt1", "series": J.series_to_json(one_var)}
        with pytest.raises(ParseError):
            J.group_from_json(obj)

    def test_missing_keys_rejected(self):
        with pytest.raises(ParseError):
            J.group_from_json({"hopf": "qt1"})


class TestReportRecords:
    def test_fields_and_defaults(self):
        assert Report(True) == Report.ok()
        rep = Report(False, [Violation("unit")], 3)
        assert (rep.passed, rep.violations, rep.certified_order) == (
            False, [Violation("unit", None, "")], 3)
        assert Report.fail([Violation("unit")], certified_order=3) == \
            Report(False, (Violation("unit"),), 3)
        assert not Report.fail([]) and Report.ok(4)
        assert str(Report.ok(4)) == "pass (certified through order 4)"

    def test_equal_and_hashed_by_fields(self):
        v = Violation("counit", None, "left")
        assert v == Violation("counit", detail="left")
        assert v != Violation("counit", detail="right")
        assert hash(v) == hash(Violation("counit", None, "left"))
        assert len({Report.ok(2), Report.ok(2), Report.ok(3)}) == 2

    def test_immutable(self):
        rep = Report.fail([Violation("unit")])
        for target, field in ((rep, "passed"), (rep, "checks"),
                              (rep.violations[0], "axiom")):
            with pytest.raises(AttributeError):
                setattr(target, field, None)


class TestReportJson:
    def test_passing_report(self, qt1):
        rep = check_axioms(lemma_law(qt1, two_t_t(qt1)))
        obj = J.report_to_json(rep)
        assert obj["pass"] is True
        assert obj["violations"] == []

    def test_failing_report_defects_reparse(self, qt1):
        t = HopfElement.generator(qt1, "t")
        bad = TensorElement.from_slots(t, t * t)
        rep = check_axioms(lemma_law(qt1, bad))
        obj = json.loads(J.dumps(J.report_to_json(rep)))
        assert obj["pass"] is False
        axioms = [v["axiom"] for v in obj["violations"]]
        assert "associativity" in axioms
        for v in obj["violations"]:
            d = J.defect_from_json(v["defect"], qt1)
            assert not d.is_zero()

    def test_emitted_json_reparses_equal(self, qt2):
        """The serialization round trip the interchange format promises."""
        F = lemma_law(qt2, two_t_t(qt2), order=6)
        text = J.dumps(J.group_to_json(F))
        alg, back = J.group_from_json(json.loads(text))
        assert (back - F).is_zero()
        assert J.dumps(J.group_to_json(back)) == text
