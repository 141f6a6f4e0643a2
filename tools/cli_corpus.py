"""Byte-identity corpus of fglog command-line invocations.

    python tools/cli_corpus.py record SRC OUT.json
    python tools/cli_corpus.py compare A.json B.json

`record` imports fglog from SRC (the `src/` directory of a checkout), runs
a fixed set of invocations of `fglog.cli.main` in this process and writes
the argument list, exit code, stdout and stderr of each to OUT.json. The
inputs are the group-law, logarithm and algebra fixtures of tests/fixtures
and laws generated here from fixed seeds without fglog, so two checkouts
get the same inputs: Lemma laws c + X + Y with c a coboundary (group laws)
or any symmetric tensor, symmetric perturbations of them, perturbations
with broken symmetry and classical laws X + Y + aXY, each at a finite or
infinite order and some marked "truncated": true. Over each law it runs
verify, roundtrip, log, inverse and cocycle under several --order, --hdeg
and --format options, and reconstruct from generated logarithms and
cocycles over qt1, from cocycles and non-cocycles over qt2, qtu and
QTU_HALF given as a --hopf file (VERDICTS), and over algebras that are
not cocommutative or not coassociative (OTHER_HOPF): Q[t, s, u] given as
a --hopf file (QTSU), where symmetry is read by a reversal of the law,
and three non-coassociative ones, where the axiom gate decides:
hopf_bad_coassoc.json and the cocommutative TU_BAD with and without the
non-cocommutative generators of TSUV_BAD. Over QTSU and
hopf_bad_coassoc.json, which are not cocommutative, Lemma laws that pass,
fail symmetry or fail associativity (ROUTE_LAWS) run verify and inverse
at orders 3 and 6 in both formats, so the two-composite defect is printed
too. The sparse
complete laws X + Y + X^N + Y^N over trivial and 2(t (x) t) + X + Y +
X^N + Y^N over qt1 (N = SPARSE_N) run verify, inverse, log, cocycle and
roundtrip at orders 4 and 8, where the work must follow the order, not
N. The qt1 law 2(t (x) t) + X + Y stored through orders 0, 1 and 2 runs
verify, log, cocycle and roundtrip at orders 1 and 2, and stored through
order 4 runs roundtrip and verify at order 3 with --hdeg 4: its unknown
tail reaches down by the nilpotency slack of 2(t (x) t). The qt1 law
X + Y + (t (x) 1) X^2 Y + (1 (x) t) X Y^2, complete and stored through
order 9, whose invariant differential 1 + t x^2 has no degree-1 term,
runs log and roundtrip at orders 4 and 8. The qt1 law 2(t (x) t) + X +
Y with t^2 (x) t^2 added to its X^0 Y^0 or X^0 Y^1 coefficient runs
inverse at order 3 with --hdeg 3, which cuts that term, and 4. The
logarithm (1 + t) x + t x^2, whose reversion has a nilpotent slope,
reconstructs as the generated ones do. Tensor files over qt2 within,
at and above the degree bound (TENSOR_FILES) run check-cocycle,
reconstruct --cocycle and coboundary, some with --hdeg 4. The inputs are
written to a temporary directory that is the working directory during
the run, so no output names an absolute path.
`record` exits 1 if an invocation raised (its traceback is recorded in
place of stderr) or ended with an exit code outside 0-3.

`compare` lists every invocation whose exit code, stdout or stderr
differ between two records, and those in one record only, and exits 1 if
there is any. Under each differing invocation it prints both exit codes
and, for each differing stream, the first line at which the two differ.
"""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import traceback
from math import comb
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# QTU_HALF is cocommutative with u not primitive; ALGEBRAS lists the
# (name, degree) generators of the algebras the generated laws use
QTU_HALF = {"generators": [{"name": "t", "degree": 1},
                           {"name": "u", "degree": 2}],
            "degree_bound": 8,
            "coproduct": {"t": "primitive",
                          "u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                                [["t"], ["t"], "1/2"]]}}
# Q[t, s, u] with Delta u = u (x) 1 + 1 (x) u + t (x) s is not cocommutative
QTSU = {"generators": [{"name": "t", "degree": 1}, {"name": "s", "degree": 2},
                       {"name": "u", "degree": 3}],
        "degree_bound": 6,
        "coproduct": {"u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                            [["t"], ["s"], "1"]]}}
# Q[t, u] with Delta u = u (x) 1 + 1 (x) u + t^2 (x) t^2 is cocommutative
# and not coassociative; TSUV_BAD adds s and v with a t (x) s leg
TU_BAD = {"generators": [{"name": "t", "degree": 1},
                         {"name": "u", "degree": 4}],
          "degree_bound": 8,
          "coproduct": {"u": [[["u"], ["1"], "1"], [["1"], ["u"], "1"],
                              [["t", "t"], ["t", "t"], "1"]]}}
TSUV_BAD = {"generators": TU_BAD["generators"] + [
                {"name": "s", "degree": 2}, {"name": "v", "degree": 3}],
            "degree_bound": 8,
            "coproduct": {**TU_BAD["coproduct"],
                          "v": [[["v"], ["1"], "1"], [["1"], ["v"], "1"],
                                [["t"], ["s"], "1"]]}}
ALGEBRAS = {"qt1": [("t", 1)], "qt2": [("t", 2)],
            "qtu": [("t", 1), ("u", 3)], "qtu_half": [("t", 1), ("u", 2)]}
ORDERS = ("2", "4", "7")
# (--hopf, --cocycle) of reconstructions away from qt1: a symmetric
# non-cocycle, an asymmetric cocycle, a non-counital tensor, and cocycles
# and non-cocycles over QTU_HALF
VERDICTS = (("qt2", "3(t (x) t) + t^2 (x) t^2"), ("qtu", "t (x) u"),
            ("qt1", "t (x) 1 + 1 (x) t"), ("qtu_half.json", "1/2 t (x) t"),
            ("qtu_half.json", "t (x) u + u (x) t"),
            ("qtu_half.json", "u (x) u"))
# (--hopf, --cocycle, --log) of reconstructions over algebras that are not
# cocommutative or not coassociative: laws that pass, laws that fail
# symmetry by c or by the u coefficient of log_u.json (x + u x^2), a
# non-counital tensor and a symmetric non-cocycle, and over TU_BAD and
# TSUV_BAD laws that fail associativity with c = 0 by that coefficient;
# None is the default log x
OTHER_HOPF = tuple(
    (hopf, cocycle, log) for hopf, cases in (
        ("qtsu.json", (("0", None), ("0", "log00.json"),
                       ("t (x) s + s (x) t", None), ("2 t (x) t", "log01.json"),
                       ("t (x) s", None), ("0", "log_u.json"),
                       ("t (x) 1 + 1 (x) t", None),
                       ("t^2 (x) t^2", None))),
        ("hopf_bad_coassoc.json", (("0", None), ("2 t (x) t", "log02.json"),
                                   ("t (x) t^2", None),
                                   ("0", "log_u.json"))),
        ("tu_bad.json", (("0", None), ("0", "log_u.json"),
                         ("t (x) t", "log03.json"))),
        ("tsuv_bad.json", (("0", None), ("0", "log_u.json"),
                           ("t (x) s", None))))
    for cocycle, log in cases)
# (--hopf file, [(kind, c)]) of Lemma laws c + X + Y over the two algebras
# that are not cocommutative, where check_axioms takes both composites: a
# law that passes, one that fails symmetry only (an asymmetric cocycle)
# and one that fails associativity only (a symmetric non-cocycle)
ROUTE_LAWS = (
    ("qtsu.json", (("pass", [[["t"], ["s"], "1"], [["s"], ["t"], "1"]]),
                   ("symmetry", [[["t"], ["s"], "1"]]),
                   ("associativity", [[["t", "t"], ["t", "t"], "1"]]))),
    ("hopf_bad_coassoc.json", (
        ("pass", [[["t"], ["t"], "2"]]),
        ("symmetry", [[["t"], ["u"], "-3"], [["u"], ["t"], "3"],
                      [["t"], ["t", "t", "t"], "1"]]),
        ("associativity", [[["t", "t"], ["t", "t"], "1"]]))))
# (name, arity, rows) of tensor files over qt2 (degree bound 8): terms
# within the bound, one at it, and terms above it, which are refused as an
# inline term is
TENSOR_FILES = (
    ("tensor_in.json", 2, [[["t"], ["t"], "2"]]),
    ("tensor_at_bound.json", 2, [[["t"] * 3, ["t"], "1"],
                                 [["t"], ["t"], "2"]]),
    ("tensor_above.json", 2, [[["t"] * 9, ["t"], "1"]]),
    ("tensor_above_mixed.json", 2, [[["t"], ["t"], "2"],
                                    [["t"] * 4, ["t"], "1"]]),
    ("element_in.json", 1, [[["t"] * 2, "1"], [["t"] * 4, "-1"]]),
    ("element_above.json", 1, [[["t"] * 3, "1"], [["t"] * 5, "-1"]]))
SEEDS = range(48)
SPARSE_N = 2000


def _rational(rng):
    q = rng.choice([1, -1, 2, -2, 3, 1, -1])
    d = rng.choice([1, 1, 2, 3])
    return str(q) if d == 1 else f"{q}/{d}"


def _monomial(rng, gens, top):
    """A generator-name list of positive degree at most `top`."""
    while True:
        mono = [name for name, deg in gens
                for _ in range(rng.randint(0, top // deg))]
        degree = sum(deg for name, deg in gens for m in mono if m == name)
        if 0 < degree <= top:
            return mono


def _coboundary_of_power(n):
    """d(t^n) = sum_{0<i<n} C(n, i) t^i (x) t^(n-i) for a primitive t."""
    return [[["t"] * i, ["t"] * (n - i), str(comb(n, i))]
            for i in range(1, n)]


def _term(exp, coeff):
    return {"exp": list(exp), "coeff": coeff}


def _law(rng, seed):
    """(name, group JSON) of a generated law."""
    name = rng.choice(sorted(ALGEBRAS))
    gens = ALGEBRAS[name]
    kind = ("coboundary", "symmetric", "perturbed", "asymmetric",
            "classical")[seed % 5]
    one = [["1"], ["1"], "1"]
    terms = {(1, 0): [one], (0, 1): [one]}
    if kind == "classical":
        terms[(1, 1)] = [[["1"], ["1"], _rational(rng)]]
    elif kind == "coboundary" or name == "qt2":
        terms[(0, 0)] = _coboundary_of_power(rng.randint(2, 4))
    else:
        a, b = _monomial(rng, gens, 3), _monomial(rng, gens, 3)
        q = _rational(rng)
        terms[(0, 0)] = [[a, b, q], [b, a, q]] if a != b else [[a, a, q]]
    if kind in ("perturbed", "asymmetric"):
        i, j = rng.randint(0, 3), rng.randint(1, 3)
        a, b = _monomial(rng, gens, 4), ["1"]
        q = _rational(rng)
        terms.setdefault((i, j), []).append([a, b, q])
        if kind == "perturbed":
            terms.setdefault((j, i), []).append([b, a, q])
    series = {"variables": ["X", "Y"], "arity": 2,
              "terms": [_term(e, c) for e, c in sorted(terms.items())]}
    if rng.random() < 0.3:
        series["truncated"] = True
    doc = {"hopf": QTU_HALF if name == "qtu_half" else name,
           "series": series}
    if rng.random() < 0.7:
        doc["order"] = rng.randint(3, 9)
    return f"law{seed:02d}_{name}_{kind}.json", doc


def _sparse_laws():
    """(name, group JSON) of the complete laws X + Y + X^N + Y^N over
    trivial and 2(t (x) t) + X + Y + X^N + Y^N over qt1, N = SPARSE_N; both
    equal their flip (a complete law that does not is checked through
    its own order by both composites)."""
    one = [["1"], ["1"], "1"]
    for hopf, constant in (("trivial", None), ("qt1", [["t"], ["t"], "2"])):
        terms = {(1, 0): [one], (0, 1): [one], (SPARSE_N, 0): [one],
                 (0, SPARSE_N): [one]}
        if constant:
            terms[(0, 0)] = [constant]
        yield f"sparse_{hopf}.json", {"hopf": hopf, "series": {
            "variables": ["X", "Y"], "arity": 2,
            "terms": [_term(e, c) for e, c in sorted(terms.items())]}}


def _nilpotent_omega_laws():
    """(name, group JSON) of X + Y + (t (x) 1) X^2 Y + (1 (x) t) X Y^2 over
    qt1, complete and stored through order 9: its invariant differential
    1 + t x^2 has a nilpotent positive part and no degree-1 term."""
    one = [["1"], ["1"], "1"]
    series = {"variables": ["X", "Y"], "arity": 2, "terms": [
        _term((0, 1), [one]), _term((1, 0), [one]),
        _term((1, 2), [[["1"], ["t"], "1"]]),
        _term((2, 1), [[["t"], ["1"], "1"]])]}
    yield "omega_complete.json", {"hopf": "qt1", "series": series}
    yield "omega_stored.json", {"hopf": "qt1", "series": series, "order": 9}


def _cut_constant_laws():
    """(name, group JSON) of 2(t (x) t) + X + Y over qt1 with
    t^2 (x) t^2 added to its X^0 Y^0 or X^0 Y^1 coefficient, which
    --hdeg 3 cuts: the cut flags the law, and so its inverse."""
    one = [["1"], ["1"], "1"]
    big = [["t", "t"], ["t", "t"], "1"]
    for k in (0, 1):
        terms = {(0, 0): [[["t"], ["t"], "2"]], (0, 1): [one],
                 (1, 0): [one]}
        terms[(0, k)].append(big)
        yield f"cut_y{k}.json", {"hopf": "qt1", "series": {
            "variables": ["X", "Y"], "arity": 2,
            "terms": [_term(e, c) for e, c in sorted(terms.items())]}}


def _route_laws(workdir):
    """(name, group JSON) of the ROUTE_LAWS, each algebra given inline as
    its --hopf file in workdir reads."""
    one = [["1"], ["1"], "1"]
    for hopf, cases in ROUTE_LAWS:
        algebra = json.loads((workdir / hopf).read_text())
        for kind, constant in cases:
            terms = [_term((0, 0), constant), _term((0, 1), [one]),
                     _term((1, 0), [one])]
            yield f"route_{Path(hopf).stem}_{kind}.json", {
                "hopf": algebra, "series": {"variables": ["X", "Y"],
                                            "arity": 2, "terms": terms}}


def _witness_laws():
    """(stored order, name, group JSON) of the qt1 law 2(t (x) t) + X + Y
    stored through orders 0, 1, 2 and 4."""
    one = [["1"], ["1"], "1"]
    series = {"variables": ["X", "Y"], "arity": 2,
              "terms": [_term((0, 0), [[["t"], ["t"], "2"]]),
                        _term((0, 1), [one]), _term((1, 0), [one])]}
    for order in (0, 1, 2, 4):
        yield order, f"witness_{order}.json", {"hopf": "qt1",
                                               "series": series,
                                               "order": order}


def _log(rng, seed):
    """(name, series JSON) of a logarithm x + sum of t-coefficients."""
    terms = [_term((1,), [[["1"], "1"]])]
    for k in sorted(rng.sample(range(2, 6), rng.randint(1, 2))):
        terms.append(_term((k,), [[["t"] * rng.randint(1, 2),
                                   _rational(rng)]]))
    return f"log{seed:02d}.json", {"variables": ["x"], "arity": 1,
                                   "terms": terms}


def invocations(workdir):
    """Write the inputs into workdir and return the argument lists."""
    for path in sorted(FIXTURES.glob("*.json")):
        shutil.copy(path, workdir / path.name)
    laws = sorted(p.name for p in FIXTURES.glob("fg_*.json"))
    logs = []
    for seed in SEEDS:
        rng = random.Random(seed)
        name, doc = _law(rng, seed)
        (workdir / name).write_text(json.dumps(doc, indent=1))
        laws.append(name)
        name, doc = _log(rng, seed)
        (workdir / name).write_text(json.dumps(doc, indent=1))
        logs.append(name)
    argvs = []
    for law in laws:
        for cmd in ("verify", "roundtrip", "log", "inverse", "cocycle"):
            for order in ORDERS:
                for fmt in ("pretty", "json"):
                    argvs.append([cmd, "--group", law, "--order", order,
                                  "--format", fmt])
            argvs.append([cmd, "--group", law, "--order", "5", "--hdeg",
                          "3"])
        argvs.append(["verify", "--group", law, "--strict-grading"])
        argvs.append(["specialize", "--group", law, "--format", "json"])
    for name, doc in _sparse_laws():
        (workdir / name).write_text(json.dumps(doc, indent=1))
        for cmd in ("verify", "inverse", "log", "cocycle", "roundtrip"):
            for order in ("4", "8"):
                argvs.append([cmd, "--group", name, "--order", order])
    for name, doc in _nilpotent_omega_laws():
        (workdir / name).write_text(json.dumps(doc, indent=1))
        for cmd in ("log", "roundtrip"):
            for order in ("4", "8"):
                argvs.append([cmd, "--group", name, "--order", order])
    for name, doc in _cut_constant_laws():
        (workdir / name).write_text(json.dumps(doc, indent=1))
        for hdeg in ("3", "4"):
            argvs.append(["inverse", "--group", name, "--order", "3",
                          "--hdeg", hdeg, "--format", "json"])
    for stored, name, doc in _witness_laws():
        (workdir / name).write_text(json.dumps(doc, indent=1))
        if stored == 4:
            argvs += [[cmd, "--group", name, "--order", "3", "--hdeg", "4"]
                      for cmd in ("roundtrip", "verify")]
            continue
        for cmd in ("verify", "log", "cocycle", "roundtrip"):
            for order in ("1", "2"):
                for fmt in ("pretty", "json"):
                    argvs.append([cmd, "--group", name, "--order", order,
                                  "--format", fmt])
    (workdir / "log_nilpotent_slope.json").write_text(json.dumps({
        "variables": ["x"], "arity": 1,
        "terms": [_term((1,), [[["1"], "1"], [["t"], "1"]]),
                  _term((2,), [[["t"], "1"]])]}, indent=1))
    for i, log in enumerate(logs + ["log_nilpotent_slope.json"]):
        for cocycle in ("0", "2 t (x) t", "3 t (x) t^2 + 3 t^2 (x) t"):
            for order, hdeg in (("3", "4"), ("6", "8"), ("8", "3")):
                argvs.append(["reconstruct", "--hopf", "qt1", "--cocycle",
                              cocycle, "--log", log, "--order", order,
                              "--hdeg", hdeg,
                              "--format", ("pretty", "json")[i % 2]])
    (workdir / "qtu_half.json").write_text(json.dumps(QTU_HALF, indent=1))
    for i, (hopf, cocycle) in enumerate(VERDICTS):
        argvs.append(["check-cocycle", "--hopf", hopf, "--cocycle",
                      cocycle])
        for log in logs[i::len(VERDICTS)][:4]:
            for order, hdeg in (("3", "4"), ("5", "8")):
                argvs.append(["reconstruct", "--hopf", hopf, "--cocycle",
                              cocycle, "--log", log, "--order", order,
                              "--hdeg", hdeg,
                              "--format", ("pretty", "json")[i % 2]])
    (workdir / "qtsu.json").write_text(json.dumps(QTSU, indent=1))
    (workdir / "log_u.json").write_text(json.dumps({
        "variables": ["x"], "arity": 1,
        "terms": [_term((1,), [[["1"], "1"]]), _term((2,), [[["u"], "1"]])]},
        indent=1))
    (workdir / "tu_bad.json").write_text(json.dumps(TU_BAD, indent=1))
    (workdir / "tsuv_bad.json").write_text(json.dumps(TSUV_BAD, indent=1))
    for name, doc in _route_laws(workdir):
        (workdir / name).write_text(json.dumps(doc, indent=1))
        for cmd in ("verify", "inverse"):
            for order in ("3", "6"):
                for fmt in ("pretty", "json"):
                    argvs.append([cmd, "--group", name, "--order", order,
                                  "--format", fmt])
    for i, (hopf, cocycle, log) in enumerate(OTHER_HOPF):
        for order, hdeg in (("3", "6"), ("5", "4")):
            argvs.append(["reconstruct", "--hopf", hopf, "--cocycle", cocycle]
                         + (["--log", log] if log else [])
                         + ["--order", order, "--hdeg", hdeg,
                            "--format", ("pretty", "json")[i % 2]])
    for name, arity, rows in TENSOR_FILES:
        (workdir / name).write_text(json.dumps({"arity": arity,
                                                "terms": rows}, indent=1))
        if arity == 1:
            argvs += [["coboundary", "--hopf", "qt2", "--element", name]
                      + hdeg for hdeg in ([], ["--hdeg", "4"])]
            continue
        for fmt in ("pretty", "json"):
            argvs.append(["check-cocycle", "--hopf", "qt2", "--cocycle",
                          name, "--format", fmt])
        argvs += [["check-cocycle", "--hopf", "qt2", "--cocycle", name,
                   "--hdeg", "4"],
                  ["reconstruct", "--hopf", "qt2", "--cocycle", name,
                   "--order", "3"]]
    argvs += [["verify", "--group", "missing.json"],
              ["verify", "--group", laws[0], "--order", "0"],
              ["check-hopf", "--hopf", "hopf_bad_coassoc.json"],
              ["check-hopf", "--hopf", "tu_bad.json"],
              ["check-cocycle", "--hopf", "qtu", "--cocycle",
               "u (x) t + t (x) u"],
              ["coboundary", "--hopf", "qt1", "--element", "t^3"]]
    return argvs


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:  # recorded, and fails the record
            return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def record(src, out_path):
    sys.path.insert(0, str(Path(src).resolve()))
    from fglog.cli import main

    os.environ.pop("FGLOG_COLOR", None)
    home = os.getcwd()
    records, bad = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in invocations(Path(tmp)):
                code, stdout, stderr = _run(main, argv)
                if code not in (0, 1, 2, 3):
                    bad += 1
                    print(f"exit {code}: {' '.join(argv)}", file=sys.stderr)
                records.append({"argv": argv, "exit": code,
                                "stdout": stdout, "stderr": stderr})
        finally:
            os.chdir(home)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"invocations": records}, fh, indent=0)
    codes = sorted({str(r["exit"]) for r in records})
    print(f"{len(records)} invocations, exit codes {', '.join(codes)}")
    return 1 if bad else 0


def _first_difference(a, b):
    """(1-based line number, line of a, line of b) of the first line at
    which two different texts differ; a text that has ended gives None."""
    pairs = itertools.zip_longest(a.split("\n"), b.split("\n"))
    return next((i, old, new) for i, (old, new) in enumerate(pairs, 1)
                if old != new)


def compare(a_path, b_path):
    runs = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as fh:
            runs.append({"\0".join(r["argv"]): r
                         for r in json.load(fh)["invocations"]})
    a, b = runs
    differ = 0
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            differ += 1
            name = " ".join(key.split("\0"))
            if key not in a or key not in b:
                print(f"{name}: only in one record")
                continue
            fields = [f for f in ("exit", "stdout", "stderr")
                      if a[key][f] != b[key][f]]
            print(f"{name}: {', '.join(fields)}")
            print(f"    exit {a[key]['exit']} -> {b[key]['exit']}")
            for f in fields:
                if f != "exit":
                    line, old, new = _first_difference(a[key][f], b[key][f])
                    print(f"    {f} line {line}:\n      - {old!r}\n"
                          f"      + {new!r}")
    print(f"{differ} of {len(set(a) | set(b))} invocations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] in ("record", "compare"):
        sys.exit((record if args[0] == "record" else compare)(*args[1:]))
    sys.exit(__doc__.split("\n\n")[1])
