"""End-to-end tests of the command line front end, run in process."""

import copy
import io
import itertools
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from fglog.cli import main
from fglog.exprparse import MAX_EXPONENT, _digit_limit
from fglog.fgl import check_axioms, lemma_law, logarithm
from fglog.hopf import HopfElement, TensorElement, builtin_algebra
from fglog.jsonio import (
    defect_from_json,
    dumps,
    group_from_json,
    group_to_json,
    load_group,
    series_from_json,
    tensor_from_json,
)
from fglog.series import Series

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.delenv("FGLOG_COLOR", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_multiplicative_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_mult.json"),
                             "--order", "8")
        assert code == 0
        assert out.splitlines()[0] == "# fglog verify (order 8, hdeg 1)"
        assert "pass (certified through order 8)" in out

    def test_default_order_announced(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_mult.json"))
        assert code == 0
        assert "(order 8, hdeg 1)" in out.splitlines()[0]

    def test_stored_order_caps_requests(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_tanh.json"),
                             "--order", "12")
        assert code == 3
        assert out == ""
        assert "order 9" in err

    def test_tanh_at_stored_order(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_tanh.json"),
                             "--order", "9")
        assert code == 0

    def test_group_from_stdin(self, capsys, monkeypatch):
        import io
        doc = open(fx("fg_mult.json")).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "verify", "--group", "-", "--order", "5")
        assert code == 0
        assert "pass (certified through order 5)" in out

    def test_json_report(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_mult.json"),
                             "--order", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["order"] == 6
        assert doc["hdeg"] == 1
        assert doc["pass"] is True
        assert doc["certified_order"] == 6
        assert doc["violations"] == []

    def test_violation_reported(self, capsys, tmp_path):
        doc = json.load(open(fx("fg_tanh.json")))
        doc["series"]["terms"].append(
            {"exp": [1, 1], "coeff": [[["1"], ["1"], "1"]]})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--group", str(bad),
                             "--order", "6", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert [v["axiom"] for v in report["violations"]] == ["associativity"]

    def test_one_composite_defect_keeps_its_flag(self, capsys, tmp_path):
        """A law equal to its flip passes or fails on the left composite,
        but its reported defect is the right composite's: only that one
        sets the flag here."""
        law = {"hopf": "qt2", "series": {
            "variables": ["X", "Y"], "order": 5, "arity": 2, "terms": [
                {"exp": [1, 0], "coeff": [[["1"], ["1"], "1"]]},
                {"exp": [0, 1], "coeff": [[["1"], ["1"], "1"]]},
                {"exp": [3, 2], "coeff": [[["t", "t"], ["1"], "-2"]]},
                {"exp": [2, 3], "coeff": [[["1"], ["t", "t"], "-2"]]}]}}
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        code, out, err = run(capsys, "verify", "--group", str(path),
                             "--order", "5", "--hdeg", "4", "--format",
                             "json")
        assert code == 1
        (violation,) = json.loads(out)["violations"]
        assert violation["axiom"] == "associativity"
        assert violation["defect"]["truncated"] is True

    def test_split_coefficient_is_summed(self, capsys, tmp_path):
        """The constant (t (x) t^2) + (t^2 (x) t) of a lemma law over qt1,
        given as two entries of one exponent, is read as their sum: the
        law is symmetric and passes."""
        law = {"hopf": "qt1", "series": {
            "variables": ["X", "Y"], "order": 6, "arity": 2, "terms": [
                {"exp": [0, 0], "coeff": [[["t"], ["t", "t"], "1"]]},
                {"exp": [0, 0], "coeff": [[["t", "t"], ["t"], "1"]]},
                {"exp": [1, 0], "coeff": [[["1"], ["1"], "1"]]},
                {"exp": [0, 1], "coeff": [[["1"], ["1"], "1"]]}]}}
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        code, out, err = run(capsys, "verify", "--group", str(path),
                             "--order", "4")
        assert code == 0, out
        assert "pass (certified through order 4)" in out

    def test_strict_grading_weight_announced(self, capsys):
        # deg t = 2, so the constant cocycle 2(t x t) sits in degree 4 and
        # homogeneity holds exactly at weight 4
        code, out, err = run(capsys, "verify", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4",
                             "--strict-grading", "--weight", "4")
        assert code == 0
        assert "strict grading: weight 4" in out

    def test_strict_grading_failure(self, capsys):
        code, out, err = run(capsys, "verify", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4",
                             "--strict-grading", "--weight", "-2")
        assert code == 1
        assert "strict-grading" in out


class TestLog:
    def test_pretty_matches_geometric_integral(self, capsys):
        code, out, err = run(capsys, "log", "--group", fx("fg_mult.json"),
                             "--order", "6", "--format", "pretty")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# fglog log (order 6, hdeg 1)"
        assert lines[1] == ("x - 1/2·x^2 + 1/3·x^3 - 1/4·x^4"
                            " + 1/5·x^5 - 1/6·x^6")

    def test_json_round_trips(self, capsys):
        code, out, err = run(capsys, "log", "--group", fx("fg_mult.json"),
                             "--order", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        algebra, F = load_group(fx("fg_mult.json"))
        g = series_from_json(doc["logarithm"], algebra)
        assert g == logarithm(F, order=6)

    def test_strict_grading_pass(self, capsys):
        code, out, err = run(capsys, "log", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4",
                             "--strict-grading", "--weight", "2")
        assert code == 0
        assert "strict-grading: pass" in out


def _law_file(tmp_path, F):
    path = tmp_path / "law.json"
    path.write_text(dumps(group_to_json(F)))
    return str(path)


def _qt2_lemma_law(order):
    """2(t (x) t) + X + Y over qt2: its differential is the constant 1."""
    alg = builtin_algebra("qt2")
    t = HopfElement.generator(alg, "t")
    return lemma_law(alg, TensorElement.from_slots(t, t) * 2, order)


class TestOverRequest:
    """A logarithm or cocycle beyond what the stored law certifies exits
    3, whatever the shape of the differential."""

    @pytest.mark.parametrize("order, code", [("5", 0), ("8", 3)])
    def test_constant_differential(self, capsys, tmp_path, order, code):
        path = _law_file(tmp_path, _qt2_lemma_law(5))
        got, out, err = run(capsys, "log", "--group", path, "--order", order)
        assert got == code
        if code == 3:
            assert (out, err) == ("", "error: inverse through order 7 needs "
                                  "the input through that order (certified "
                                  "4)\n")

    def test_nonconstant_differential(self, capsys, tmp_path):
        F = _qt2_lemma_law(5)
        F = F + Series.variable(F.algebra, 2, 2, 0, 5, F.names) * \
            Series.variable(F.algebra, 2, 2, 1, 5, F.names)
        code, out, err = run(capsys, "log", "--group", _law_file(tmp_path, F),
                             "--order", "8")
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("argv", [["log", "--order", "1"], ["cocycle"]])
    def test_law_stored_at_order_zero(self, capsys, tmp_path, argv):
        path = _law_file(tmp_path, _qt2_lemma_law(0))
        code, out, err = run(capsys, argv[0], "--group", path, *argv[1:])
        assert (code, out) == (3, "")
        assert "differential" not in err


class TestCocycleCommands:
    def test_extract_from_lemma_group(self, capsys):
        code, out, err = run(capsys, "cocycle", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4")
        assert code == 0
        assert out.splitlines()[1] == "2(t⊗t)"

    def test_extract_json(self, capsys):
        code, out, err = run(capsys, "cocycle", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4",
                             "--format", "json")
        doc = json.loads(out)
        qt2 = builtin_algebra("qt2")
        c = tensor_from_json(doc["cocycle"], qt2)
        t = HopfElement.generator(qt2, "t")
        assert c == 2 * TensorElement.from_slots(t, t)

    def test_residual_checked_through_the_order(self, capsys, tmp_path):
        """X + Y + (t (x) t)X^2 Y^2 over qt1 has the logarithm x at every
        order; its residual is nonconstant only at degree 4."""
        alg = builtin_algebra("qt1")
        t = HopfElement.generator(alg, "t")
        F = Series.variable(alg, 2, 2, 0) + Series.variable(alg, 2, 2, 1) \
            + Series(alg, 2, 2, {(2, 2): TensorElement.from_slots(t, t)})
        path = _law_file(tmp_path, F)
        code, out, err = run(capsys, "cocycle", "--group", path,
                             "--order", "3")
        assert (code, out.splitlines()[1:], err) == (0, ["0"], "")
        code, out, err = run(capsys, "cocycle", "--group", path,
                             "--order", "4")
        assert (code, out) == (1, "")
        assert "nonconstant term at (2, 2)" in err

    def test_check_cocycle_failure_reports_defect(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x) t^2")
        assert code == 1
        assert "  - cocycle [defect: 2(t⊗t⊗t)]" in out.splitlines()

    def test_check_cocycle_failure_json_defect(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x) t^2", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        qt1 = builtin_algebra("qt1")
        t = HopfElement.generator(qt1, "t")
        defect = defect_from_json(doc["violations"][0]["defect"], qt1)
        assert defect == 2 * TensorElement.from_slots(t, t, t)

    def test_check_coboundary_passes(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x) t^2 + t^2 (x) t")
        assert code == 0
        assert "pass" in out

    def test_counit_condition_failure(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x) 1")
        assert code == 1
        assert "counit" in out

    def test_coboundary_of_square(self, capsys):
        code, out, err = run(capsys, "coboundary", "--hopf", "qt1",
                             "--element", "t^2")
        assert code == 0
        assert out.splitlines()[1] == "2(t⊗t)"

    def test_coboundary_requires_zero_counit(self, capsys):
        code, out, err = run(capsys, "coboundary", "--hopf", "qt1",
                             "--element", "1 + t")
        assert code == 1
        assert "counit" in err


class TestCheckHopf:
    def test_builtin_passes(self, capsys):
        code, out, err = run(capsys, "check-hopf", "--hopf", "qtu")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# fglog check-hopf (hdeg 8)"
        assert lines[1] == "hopf: generators t (deg 1), u (deg 3); bound 8"
        assert lines[2] == "pass"

    def test_hdeg_override_announced(self, capsys):
        code, out, err = run(capsys, "check-hopf", "--hopf", "qt1",
                             "--hdeg", "5")
        assert code == 0
        assert "(hdeg 5)" in out.splitlines()[0]

    def test_non_coassociative_description_fails(self, capsys):
        code, out, err = run(capsys, "check-hopf", "--hopf",
                             fx("hopf_bad_coassoc.json"))
        assert code == 1
        assert "coassociativity" in out

    def test_inline_json_description(self, capsys):
        desc = json.dumps({"generators": [{"name": "s", "degree": 2}],
                           "degree_bound": 6,
                           "coproduct": {"s": "primitive"}})
        code, out, err = run(capsys, "check-hopf", "--hopf", desc)
        assert code == 0
        assert "s (deg 2)" in out


class TestInverse:
    def test_multiplicative_alternating(self, capsys):
        code, out, err = run(capsys, "inverse", "--group", fx("fg_mult.json"),
                             "--order", "10")
        assert code == 0
        expected = " ".join(
            f"{'-' if n % 2 else '+'} x^{n}" if n > 1 else "-x"
            for n in range(1, 11))
        assert out.splitlines()[1] == expected

    def test_lemma_inverse_json(self, capsys):
        code, out, err = run(capsys, "inverse", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "4",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        qt2 = builtin_algebra("qt2")
        theta = series_from_json(doc["inverse"], qt2)
        t = HopfElement.generator(qt2, "t")
        assert theta.coeff((0,)) == (t * t) * 2
        assert theta.coeff((1,)) == -TensorElement.unit(qt2, 1)


class TestReconstruct:
    def test_lemma_form(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt2",
                             "--cocycle", "2 t (x) t", "--order", "4")
        assert code == 0
        assert out.splitlines()[1] == "2(t⊗t) + X + Y"

    def test_zero_cocycle_default_gives_additive(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt2",
                             "--order", "4")
        assert code == 0
        assert out.splitlines()[1] == "X + Y"

    def test_log_file_round_trips(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt2",
                             "--cocycle", "0", "--log", fx("glog_qt2.json"),
                             "--order", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        algebra, F = group_from_json(doc["group"])
        assert check_axioms(F, order=4).passed
        g = logarithm(F, order=4)
        qt2 = builtin_algebra("qt2")
        t = HopfElement.generator(qt2, "t")
        assert g.coeff((2,)) == t

    def test_asymmetric_cocycle_rejected(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt1",
                             "--cocycle", "t (x) t^2", "--order", "4")
        assert code == 1
        assert "symmetry" in err

    def test_strict_grading(self, capsys):
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt2",
                             "--cocycle", "2 t (x) t", "--order", "4",
                             "--strict-grading", "--weight", "4")
        assert code == 0
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt2",
                             "--cocycle", "2 t (x) t", "--order", "4",
                             "--strict-grading", "--weight", "-2")
        assert code == 1


class TestSpecialize:
    def test_lemma_collapses_to_additive(self, capsys):
        code, out, err = run(capsys, "specialize", "--group",
                             fx("fg_lemma_qt2.json"))
        assert code == 0
        assert out.splitlines()[1] == "X + Y"

    def test_multiplicative_is_its_own_image(self, capsys):
        code, out, err = run(capsys, "specialize", "--group",
                             fx("fg_mult.json"))
        assert code == 0
        assert out.splitlines()[1] == "x + y + x·y"

    def test_order_flag_truncates(self, capsys):
        code, out, err = run(capsys, "specialize", "--group",
                             fx("fg_tanh.json"), "--order", "3",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 3
        assert max(sum(t["exp"]) for t in doc["series"]["terms"]) <= 3


class TestRoundtrip:
    def test_multiplicative_all_stages_pass(self, capsys):
        code, out, err = run(capsys, "roundtrip", "--group",
                             fx("fg_mult.json"), "--order", "8")
        assert code == 0
        assert out.splitlines()[-1] == "roundtrip: pass"
        for stage in ("axioms", "logarithm", "extract-cocycle",
                      "check-cocycle", "log-equation", "reconstruct",
                      "compare"):
            assert any(line.startswith(stage + ":")
                       for line in out.splitlines())

    def test_lemma_stages_and_cocycle_payload(self, capsys):
        code, out, err = run(capsys, "roundtrip", "--group",
                             fx("fg_lemma_qt2.json"), "--order", "6",
                             "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        stages = {s["stage"]: s for s in doc["stages"]}
        assert all(s["pass"] for s in doc["stages"])
        qt2 = builtin_algebra("qt2")
        t = HopfElement.generator(qt2, "t")
        c = tensor_from_json(stages["extract-cocycle"]["cocycle"], qt2)
        assert c == 2 * TensorElement.from_slots(t, t)

    def test_nilpotent_constant_term_spends_slack(self, capsys, tmp_path):
        # F(0, 0) = t (x) t has nilpotency slack 2 under --hdeg 4, so the
        # log-equation stage needs the logarithm through N + 1 + 2; the
        # stored order 10 caps it, so N = 8 certifies only order 7
        log = tmp_path / "g.json"
        log.write_text(json.dumps({
            "variables": ["x"], "arity": 1, "terms": [
                {"exp": [1], "coeff": [[["1"], "1"]]},
                {"exp": [2], "coeff": [[["1"], "1/2"], [["t"], "1"]]},
                {"exp": [3], "coeff": [[["t", "t"], "2"]]}]}))
        code, out, err = run(capsys, "reconstruct", "--hopf", "qt1",
                             "--cocycle", "t (x) t", "--log", str(log),
                             "--order", "10", "--hdeg", "4",
                             "--format", "json")
        assert code == 0
        law = tmp_path / "law.json"
        law.write_text(json.dumps(json.loads(out)["group"]))
        for order in ("2", "4", "6"):
            code, out, err = run(capsys, "roundtrip", "--group", str(law),
                                 "--order", order)
            assert (code, err) == (0, "")
            assert out.splitlines()[-1] == "roundtrip: pass"
        code, out, err = run(capsys, "roundtrip", "--group", str(law),
                             "--order", "8")
        assert (code, out) == (3, "")
        assert "only order 7 is certified" in err

    def test_corrupted_coefficient_fails_at_axioms(self, capsys, tmp_path):
        doc = json.load(open(fx("fg_tanh.json")))
        doc["series"]["terms"].append(
            {"exp": [1, 1], "coeff": [[["1"], ["1"], "1"]]})
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "roundtrip", "--group", str(bad),
                             "--order", "6")
        assert code == 1
        lines = out.splitlines()
        assert lines[1].startswith("axioms: fail")
        assert any("associativity" in line for line in lines)
        assert lines[-1] == "roundtrip: fail"
        assert not any(line.startswith("logarithm:") for line in lines)


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "verify", "--group", "no_such.json")
        assert code == 2
        assert out == ""
        assert "no_such.json" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        code, out, err = run(capsys, "verify", "--group", str(bad))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc["series"]["terms"][1].update(exp=[1, "a"]),
         "series term 'exp' must be an integer, got 'a'"),
        (lambda doc: doc["series"].update(arity="two"),
         "series 'arity' must be an integer, got 'two'"),
        (lambda doc: doc["series"].update(order="x"),
         "series 'order' must be an integer, got 'x'"),
        (lambda doc: doc["series"]["terms"][1].update(coeff=7),
         "series term 'coeff' must be a list, got 7"),
        (lambda doc: doc["hopf"].update(generators=5),
         "'generators' must be a list, got 5"),
        (lambda doc: doc["hopf"].update(degree_bound="x"),
         "'degree_bound' must be an integer, got 'x'"),
    ])
    def test_malformed_group_field(self, capsys, monkeypatch, edit, named):
        doc = json.load(open(fx("fg_lemma_qt2.json")))
        doc["hopf"] = {"generators": [{"name": "t", "degree": 2}],
                       "degree_bound": 8}
        edit(doc)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "verify", "--group", "-")
        assert (code, out) == (2, "")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc["series"]["terms"][0].update(exp=[1.9, 0]),
         "series term 'exp' must be an integer, got 1.9"),
        (lambda doc: doc["series"]["terms"][0].update(exp=[True, 0]),
         "series term 'exp' must be an integer, got True"),
        (lambda doc: doc["series"].update(order=4.5),
         "series 'order' must be an integer, got 4.5"),
        (lambda doc: doc["series"].update(order=True),
         "series 'order' must be an integer, got True"),
        (lambda doc: doc.update(order=6.5),
         "series 'order' must be an integer, got 6.5"),
        (lambda doc: doc["series"].update(arity=2.5),
         "series 'arity' must be an integer, got 2.5"),
        (lambda doc: doc["series"].update(arity=True),
         "series 'arity' must be an integer, got True"),
        (lambda doc: doc["series"].update(arity=False),
         "series 'arity' must be an integer, got False"),
        (lambda doc: doc["hopf"].update(degree_bound=1.5),
         "'degree_bound' must be an integer, got 1.5"),
        (lambda doc: doc["hopf"].update(
            generators=[{"name": "t", "degree": 1.5}]),
         "generator 't' 'degree' must be an integer, got 1.5"),
        (lambda doc: doc["series"]["terms"][0]["coeff"][0].__setitem__(
            0, [True]),
         "monomial [True] holds a boolean"),
    ])
    def test_inexact_number_refused(self, capsys, monkeypatch, edit, named):
        """A boolean or a non-integral number where an integer belongs is
        refused with exit 2 and the field named, not read as 0 or 1 or
        floored into a law the file does not state."""
        doc = json.load(open(fx("fg_mult.json")))
        doc["hopf"] = {"generators": [{"name": "t", "degree": 1}],
                       "degree_bound": 4}
        edit(doc)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "verify", "--group", "-", "--order",
                             "4")
        assert (code, out) == (2, "")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda doc: None,
        lambda doc: doc["series"]["terms"][0].update(exp=[1.0, 0]),
        lambda doc: doc["series"].update(order=6.0, arity=2.0),
        lambda doc: doc["hopf"].update(degree_bound=4.0),
    ])
    def test_integral_numbers_read_as_before(self, capsys, monkeypatch,
                                             edit):
        doc = json.load(open(fx("fg_mult.json")))
        doc["hopf"] = {"generators": [{"name": "t", "degree": 1}],
                       "degree_bound": 4}
        edit(doc)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run(capsys, "verify", "--group", "-", "--order",
                             "4")
        assert (code, err) == (0, "")
        assert "pass" in out

    def test_bad_inline_expression(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x)")
        assert code == 2

    def test_wrong_arity_inline(self, capsys):
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", "t (x) t (x) t")
        assert code == 2
        assert "arity" in err

    @pytest.mark.parametrize("argv, term", [
        (("check-cocycle", "--hopf", "qt2", "--cocycle", "t^9 (x) t"),
         "t^9 (x) t"),
        (("check-cocycle", "--hopf", "qt2", "--cocycle",
          "t^3 (x) t^2 + t (x) t"), "t^3 (x) t^2"),
        (("check-cocycle", "--hopf", "qt2", "--hdeg", "4", "--cocycle",
          "t (x) t + t^2 (x) t"), "t^2 (x) t"),
        (("reconstruct", "--hopf", "qt1", "--cocycle", "t^5 (x) t^4"),
         "t^5 (x) t^4"),
        (("coboundary", "--hopf", "qt2", "--element", "t^3 - t^5"), "t^5"),
    ])
    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_inline_term_above_degree_bound(self, capsys, argv, term, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert repr(term) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag, rows", [
        ("check-cocycle", "--cocycle", [[["t"] * 9, ["t"], "1"]]),
        ("check-cocycle", "--cocycle", [[["t"] * 3, ["t"] * 2, "1"],
                                        [["t"], ["t"], "2"]]),
        ("reconstruct", "--cocycle", [[["t"] * 9, ["t"], "1"],
                                      [["t"], ["t"], "2"]]),
        ("coboundary", "--element", [[["t"] * 3, "1"], [["t"] * 5, "-1"]]),
    ])
    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_tensor_file_above_degree_bound(self, capsys, tmp_path, command,
                                            flag, rows, fmt):
        """A tensor file is refused as the inline term is: no cut tensor
        is checked or built from."""
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"terms": rows}))
        argv = [command, "--hopf", "qt2", flag, str(path), "--format", fmt]
        if command == "reconstruct":
            argv += ["--order", "3"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{path} holds a term that reaches above the degree bound 8" \
            in err

    def test_tensor_file_at_the_degree_bound(self, capsys, tmp_path):
        """A term of degree exactly the bound is kept."""
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"terms": [[["t"] * 3, ["t"], "1"]]}))
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt2",
                             "--cocycle", str(path))
        assert code == 1 and err == ""
        assert "t^3⊗t" in out

    def test_missing_required_flag(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    def test_order_must_be_positive(self, capsys):
        code, out, err = run(capsys, "verify", "--group", fx("fg_mult.json"),
                             "--order", "0")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "roundtrip" in out


_OVERSIZED = [
    ("2^20000 t (x) t", "power '2^20000' at position 0"),
    ("t^200000 (x) t", "term 't^200000 (x) t' at position 0"),
    (f"t^{MAX_EXPONENT + 1} (x) t",
     f"exponent {MAX_EXPONENT + 1} at position 2 is above the limit"),
    ("(1/3 + t)^100000 (x) t", "power '(1/3 + t)^100000' at position 0"),
    ("9" * 5000 + " t (x) t", "number '99999999999999999999...(5000 chars)'"),
]


def _fresh_env():
    """Environment for a fresh interpreter that imports fglog from src."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("FGLOG_COLOR", None)
    return env


class TestStartup:
    def test_cli_import_leaves_out_dataclasses(self):
        """Reports are plain records: importing the CLI does not import
        dataclasses (nor the inspect module that it pulls in)."""
        proc = subprocess.run(
            [sys.executable, "-c", "import fglog.cli, sys; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
            env=_fresh_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


class TestSizeLimits:
    """Oversized inline numbers and exponents end in exit 2 and a message
    naming them, within a second, in process and from a fresh
    interpreter."""

    @pytest.mark.parametrize("text, named", _OVERSIZED)
    def test_in_process(self, capsys, text, named):
        start = time.perf_counter()
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt2",
                             "--cocycle", text)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, named", _OVERSIZED)
    def test_subprocess(self, text, named):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fglog", "check-cocycle", "--hopf", "qt2",
             "--cocycle", text], env=_fresh_env(), capture_output=True,
            text=True, timeout=60)
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stdout) == (2, "")
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sum_above_the_digit_limit(self, capsys):
        inside = "9" * _digit_limit()
        code, out, err = run(capsys, "check-cocycle", "--hopf", "qt1",
                             "--cocycle", f"{inside} t (x) t + t (x) t")
        assert (code, out) == (2, "")
        assert "sum '99999999999999999999..." in err


    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_result_above_the_digit_limit(self, capsys, fmt):
        # every input number is within the limit, but the coboundary
        # 2(10^limit - 1) t (x) t has one digit more
        nines = "9" * _digit_limit()
        code, out, err = run(capsys, "coboundary", "--hopf", "qt1",
                             "--element", f"{nines} t^2", "--format", fmt)
        assert (code, out) == (2, "")
        assert f"more than {_digit_limit()} digits" in err
        assert "Traceback" not in err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["pretty", "json"])
    def test_repeat_runs_byte_identical(self, capsys, fmt):
        argv = ("roundtrip", "--group", fx("fg_lemma_qt2.json"),
                "--order", "5", "--format", fmt)
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_color_env_adds_ansi(self, capsys, monkeypatch):
        monkeypatch.setenv("FGLOG_COLOR", "1")
        code, out, err = run(capsys, "verify", "--group", fx("fg_mult.json"),
                             "--order", "4")
        assert code == 0
        assert "\x1b[32mpass\x1b[0m" in out


_TOKENS = ("t", "u", "0", "1", "2", "3", "1/2", "+", "-", "*", "/", "^",
           "(", ")", "(x)", "⊗", "x", "@", "12", "20000", "200000",
           str(MAX_EXPONENT + 1), "9" * 5000)


# Exponents of one to seven digits and beyond, some above MAX_EXPONENT.
_EXPONENTS = st.one_of(
    st.sampled_from(["", "^2", "^5", "^9"]),
    st.integers(0, 3 * MAX_EXPONENT).map("^{}".format),
    st.integers(8, 40).map(lambda n: "^" + "9" * n))


def _expressions(inner):
    factor = st.tuples(st.one_of(inner, inner.map("({})".format)),
                       _EXPONENTS).map("".join)
    product = st.lists(factor, min_size=1, max_size=2).map(" ".join)
    term = st.lists(product, min_size=1, max_size=2).map(" (x) ".join)
    return st.tuples(st.sampled_from([" + ", " - "]),
                     st.lists(term, min_size=1, max_size=3)).map(
        lambda p: p[0].join(p[1]))


# Token soup joined by spaces, with numbers (exponents too) from one digit
# to beyond the digit limit, and well-formed expressions over t and u, some
# of them above the degree bound or the size limits.
_INLINE_TEXT = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join),
    st.recursive(st.sampled_from(["t", "u", "1", "2", "1/2"]), _expressions,
                 max_leaves=6))


class TestInlineFuzz:
    @settings(max_examples=150)
    @given(command=st.sampled_from(["check-cocycle", "coboundary",
                                    "reconstruct"]),
           hopf=st.sampled_from(["trivial", "qt1", "qt2", "qtu"]),
           text=_INLINE_TEXT)
    def test_inline_value_ends_in_an_exit_code(self, command, hopf, text):
        flag = "--element" if command == "coboundary" else "--cocycle"
        argv = [command, "--hopf", hopf, flag, text]
        if command == "reconstruct":
            argv += ["--order", "3"]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


# -- group JSON documents -----------------------------------------------------
#
# Well-formed documents in the formats of jsonio.py, over builtin and inline
# algebras, of which about half then have one to three fields replaced by
# junk or deleted, and now and then junk instead of a document. Degree
# bounds, exponents and orders stay at 12 or below.

_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 12),
                  st.sampled_from(["", "x", "two", "1/0", "\x00", "t"]),
                  st.sampled_from([0.5, float("inf"), float("nan")]),
                  st.just([]), st.just({}), st.just([["t"]]),
                  st.just([1, "a"]))
_BUILTIN_GENERATORS = {"trivial": [], "qt1": ["t"], "qt2": ["t"],
                       "qtu": ["t", "u"]}


def _places(node):
    """(container, key) of every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _places(value)


@st.composite
def _group_documents(draw):
    hopf = draw(st.sampled_from(["trivial", "qt1", "qt2", "qtu", None]))
    if hopf is None:
        degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        names = ["t", "u"][:len(degrees)]
        hopf = {"generators": [{"name": n, "degree": d}
                               for n, d in zip(names, degrees)],
                "degree_bound": draw(st.integers(max(degrees), 12)),
                "coproduct": {"t": "primitive"}}
    else:
        names = _BUILTIN_GENERATORS[hopf]
    mono = st.lists(st.sampled_from(names + ["1"]), max_size=3).map(
        lambda m: m or ["1"])
    row = st.tuples(mono, mono, st.sampled_from(
        ["1", "-1", "1/2", "2", "-3/2"])).map(list)
    entry = st.fixed_dictionaries({
        "exp": st.lists(st.one_of(st.integers(0, 3), st.integers(0, 12)),
                        min_size=2, max_size=2),
        "coeff": st.lists(row, min_size=1, max_size=3)})
    unit = [["1"], ["1"], "1"]
    terms = [{"exp": [1, 0], "coeff": [unit]},
             {"exp": [0, 1], "coeff": [unit]}]
    series = {"variables": ["X", "Y"], "arity": 2,
              "terms": terms + draw(st.lists(entry, max_size=3))}
    order = draw(st.one_of(st.none(), st.integers(0, 12)))
    if order is not None:
        series["order"] = order
    return _junked(draw, {"hopf": hopf, "series": series})


def _junked(draw, doc):
    """A copy of the document with zero to three fields replaced by junk
    or deleted."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        places = list(_places(doc))
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(_JUNK))
    return doc


class TestGroupJsonFuzz:
    @settings(max_examples=300)
    @given(command=st.sampled_from(["verify", "log", "cocycle", "inverse",
                                    "specialize", "roundtrip"]),
           doc=st.one_of(_group_documents(), _JUNK),
           order=st.integers(1, 12),
           hdeg=st.one_of(st.none(), st.integers(1, 12)))
    def test_group_document_ends_in_an_exit_code(self, command, doc, order,
                                                 hdeg):
        argv = [command, "--group", "-", "--order", str(order)]
        if hdeg is not None:
            argv += ["--hdeg", str(hdeg)]
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(json.dumps(doc))
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = stdin
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


# -- series and tensor JSON files ----------------------------------------------
#
# Well-formed `--log` series files and `--cocycle` / `--element` tensor files
# over the builtin algebras, of which about half then have one to three
# fields replaced by junk or deleted, and now and then junk or text that is
# not JSON instead of a document. Exponents and orders stay at 12 or below.

_NOT_JSON = st.sampled_from(["", "{", "[1,", "nul", "\x00"])


def _monomials(names):
    """Name lists, and exponent vectors up to 12."""
    return st.one_of(
        st.lists(st.sampled_from(names + ["1"]), max_size=3).map(
            lambda m: m or ["1"]),
        st.lists(st.integers(0, 12), min_size=len(names),
                 max_size=len(names)))


_RATIONALS = st.sampled_from(["1", "-1", "1/2", "2", "-3/2", "0"])


@st.composite
def _log_files(draw, hopf):
    """Text of a one-variable series file x + ... over `hopf`."""
    row = st.tuples(_monomials(_BUILTIN_GENERATORS[hopf]), _RATIONALS).map(
        list)
    entry = st.fixed_dictionaries({
        "exp": st.lists(st.integers(0, 12), min_size=1, max_size=1),
        "coeff": st.lists(row, min_size=1, max_size=3)})
    series = {"variables": ["x"], "arity": 1,
              "terms": [{"exp": [1], "coeff": [[["1"], "1"]]}]
              + draw(st.lists(entry, max_size=3))}
    order = draw(st.one_of(st.none(), st.integers(0, 12)))
    if order is not None:
        series["order"] = order
    if draw(st.booleans()):
        series["truncated"] = draw(st.booleans())
    return json.dumps(_junked(draw, series))


@st.composite
def _tensor_files(draw, hopf, arity):
    """Text of an arity-`arity` tensor file over `hopf`."""
    mono = _monomials(_BUILTIN_GENERATORS[hopf])
    row = st.tuples(st.lists(mono, min_size=arity, max_size=arity),
                    _RATIONALS).map(lambda r: r[0] + [r[1]])
    tensor = {"terms": draw(st.lists(row, min_size=1, max_size=3))}
    if draw(st.booleans()):
        tensor["arity"] = arity
    return json.dumps(_junked(draw, tensor))


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("files") / "input.json"


class TestFileFuzz:
    @settings(max_examples=100)
    @given(data=st.data(), hopf=st.sampled_from(["qt1", "qt2", "qtu"]),
           order=st.integers(1, 6))
    def test_log_file_ends_in_an_exit_code(self, json_path, data, hopf,
                                           order):
        json_path.write_text(data.draw(st.one_of(
            _log_files(hopf), _NOT_JSON, _JUNK.map(json.dumps))))
        _exit_code(["reconstruct", "--hopf", hopf, "--log", str(json_path),
                    "--cocycle", data.draw(st.sampled_from(
                        ["0", "t (x) t"])), "--order", str(order)])

    @settings(max_examples=100)
    @given(data=st.data(), hopf=st.sampled_from(["qt1", "qt2", "qtu"]),
           command=st.sampled_from(["check-cocycle", "coboundary",
                                    "reconstruct"]))
    def test_tensor_file_ends_in_an_exit_code(self, json_path, data, hopf,
                                              command):
        arity = 1 if command == "coboundary" else 2
        json_path.write_text(data.draw(st.one_of(
            _tensor_files(hopf, arity), _tensor_files(hopf, 3 - arity),
            _NOT_JSON, _JUNK.map(json.dumps))))
        flag = "--element" if command == "coboundary" else "--cocycle"
        argv = [command, "--hopf", hopf, flag, str(json_path)]
        if command == "reconstruct":
            argv += ["--order", "3"]
        _exit_code(argv)


# -- algebra JSON documents ----------------------------------------------------
#
# Inline `--hopf` descriptions with one or two generators and coproduct
# tables that are primitive or not: the counital rows g (x) 1 + 1 (x) g or
# not, and rows of monomial pairs whose degrees add up to the generator's
# (homogeneous) or not. About half then have one to three fields replaced
# by junk or deleted. Degrees, bounds and exponents stay at 12 or below.

@st.composite
def _algebra_documents(draw):
    degrees = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=1,
                            max_size=2))
    names = ["t", "u"][:len(degrees)]
    monos = [["1"]] + [list(m) for k in (1, 2, 3)
                       for m in itertools.combinations_with_replacement(
                           names, k)]

    def degree(mono):
        return sum(degrees[names.index(m)] for m in mono if m != "1")

    coproduct = {}
    for name, gdeg in zip(names, degrees):
        kind = draw(st.sampled_from(["primitive", "table", "table",
                                     "omitted"]))
        if kind != "table":
            if kind == "primitive":
                coproduct[name] = kind
            continue
        rows = []
        if draw(st.integers(0, 4)):  # mostly counital
            rows += [[[name], ["1"], "1"], [["1"], [name], "1"]]
        # mostly rows of two positive-degree legs that add up to the
        # generator's degree, which keep the table counital
        inner = [[a, b] for a in monos for b in monos
                 if degree(a) + degree(b) == gdeg and "1" not in a + b]
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.integers(0, 3)):
                if not inner:
                    continue
                pair = draw(st.sampled_from(inner))
            else:
                pair = [draw(st.sampled_from(monos)) for _ in "lr"]
            rows.append(pair + [draw(st.sampled_from(
                ["1", "-1", "1/2", "2", "0"]))])
        coproduct[name] = rows
    doc = {"generators": [{"name": n, "degree": d}
                          for n, d in zip(names, degrees)],
           "degree_bound": draw(st.integers(max(degrees), 12)),
           "coproduct": coproduct}
    return json.dumps(_junked(draw, doc))


class TestAlgebraJsonFuzz:
    @settings(max_examples=200)
    @given(data=st.data(), command=st.sampled_from(
        ["check-hopf", "check-cocycle", "coboundary", "reconstruct"]),
        hdeg=st.one_of(st.none(), st.integers(1, 12)))
    def test_algebra_document_ends_in_an_exit_code(self, data, command,
                                                   hdeg):
        argv = [command, "--hopf", data.draw(_algebra_documents())]
        if command == "coboundary":
            argv += ["--element", data.draw(st.sampled_from(
                ["t", "t^2", "t u - u t"]))]
        elif command != "check-hopf":
            argv += ["--cocycle", data.draw(st.sampled_from(
                ["0", "t (x) t", "t (x) u + u (x) t"]))]
        if command == "reconstruct":
            argv += ["--order", "3"]
        if hdeg is not None:
            argv += ["--hdeg", str(hdeg)]
        _exit_code(argv)
