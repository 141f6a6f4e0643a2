"""The benchmark's workloads and their golden-checked operations.

An operation (`Item`) is one criterion-6 round trip, one reversion, or one
CLI invocation. Every library operation builds its own `HopfAlgebra`, so
the algebra's memo caches start cold in every operation, as they do in
every CLI process. After the timed call each operation is checked twice,
outside the timer: by the exact mathematical equalities its acceptance
test states, and by the SHA-256 digest of its output (the `jsonio`
serialisation for library operations; exit code and stdout bytes for CLI
invocations) against `goldens.json`.

Every pass of a workload runs the same fixed set of operations, each with
a recorded golden (`record_goldens.py`); the run seed shuffles their order
in every pass. The sets are fixed because the cost of a random input
swings widely with its seed (criterion-6 trials take from 0.2 s to 28 s,
random reversions at N = 16 over qt2 from 0.2 s to 2.6 s), so seed-drawn
inputs would move the metrics between seeds by more than their bounds.
Passes are short, so every operation repeats within a run:

- roundtrip6: trials CRITERION6_TRIALS of criterion 6's own stream (seed
  20260817), one for each slack 3, 0 and 1 that costs under 3 s; the
  9-28 s slack-3 trials cannot repeat within a run.
- reversion: random logarithms from the sub-seeds REVERSION_SEEDS, plus
  the tanh law.
- cli: the command list CLI_COMMANDS.
"""

import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
CRITERION6_SEED = 20260817
CRITERION6_TRIALS = (0, 1, 10)

FIXTURES = "tests/fixtures/"
CLI_COMMANDS = (
    ("roundtrip", "--group", FIXTURES + "fg_mult.json"),
    ("roundtrip", "--group", FIXTURES + "fg_tanh.json"),
    ("roundtrip", "--group", FIXTURES + "fg_lemma_qt2.json",
     "--format", "json"),
    ("verify", "--group", FIXTURES + "fg_lemma_qt2.json"),
    ("log", "--group", FIXTURES + "fg_mult.json"),
    ("cocycle", "--group", FIXTURES + "fg_lemma_qt2.json"),
    ("inverse", "--group", FIXTURES + "fg_mult.json"),
    ("specialize", "--group", FIXTURES + "fg_tanh.json"),
    ("reconstruct", "--hopf", "qt1", "--cocycle", "2(t (x) t)",
     "--order", "8"),
    ("check-hopf", "--hopf", "qtu"),
    ("check-cocycle", "--hopf", "qt2", "--cocycle", "t (x) t^2"),
    ("coboundary", "--hopf", "qt2", "--element", "t^2 + 3t"),
    # the stored tanh law cannot certify order 12: exit 3
    ("verify", "--group", FIXTURES + "fg_tanh.json", "--order", "12"),
    # unbalanced parenthesis: exit 2
    ("check-cocycle", "--hopf", "qt2", "--cocycle", "t (x"),
)

# Inputs whose correct behaviour the program does not show yet. They run
# once per cli run, outside the timed operations, and are reported by
# status until the program is fixed.
KNOWN_DEFECTS = (
    {"argv": ("check-cocycle", "--hopf", "qt2", "--cocycle", "t^9 (x) t"),
     "expected_exit": 2,
     "why": "t^9 (x) t lies above the degree bound 8 and is dropped "
            "silently, so the command prints 'cocycle: 0', pass, exit 0"},
)


class Item:
    """One operation: `run` is timed; `check` (list of problems) and
    `digest` run afterwards, untimed."""

    __slots__ = ("id", "run", "check", "digest")

    def __init__(self, id, run, check, digest):
        self.id = id
        self.run = run
        self.check = check
        self.digest = digest


class Workload:
    __slots__ = ("name", "all_items", "trace_passes", "min_ops",
                 "known_defects", "goldens", "fg")

    def __init__(self, name, all_items, trace_passes=1, min_ops=1,
                 known_defects=()):
        self.name = name
        self.all_items = all_items  # (inprocess=False) -> [Item] of a pass
        self.trace_passes = trace_passes
        self.min_ops = min_ops
        self.known_defects = known_defects
        self.goldens = None  # item id -> digest, set by setup
        self.fg = None  # the fglog package the items call, set by setup

    def make_pass(self, rng, inprocess):
        """Every operation once, in an order drawn from `rng`. CLI
        invocations run in a fresh interpreter unless `inprocess`."""
        items = self.all_items(inprocess)
        rng.shuffle(items)
        return items


def import_fglog(root):
    """Import fglog afresh from `root/src`, dropping any copy already
    imported; refuse a copy from anywhere else."""
    src = root / "src"
    for name in [n for n in sys.modules
                 if n == "fglog" or n.startswith("fglog.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    fglog = importlib.import_module("fglog")
    where = Path(fglog.__file__).resolve().parent
    if where != (src / "fglog").resolve():
        raise ImportError(f"fglog imported from {where}, not from {src}")
    for sub in ("cli", "generate", "jsonio"):
        importlib.import_module(f"fglog.{sub}")
    return fglog


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def _json_digest(fg, *objs):
    return sha256(fg.jsonio.dumps(list(objs)).encode("utf-8"))


# -- roundtrip6 -----------------------------------------------------------

def _criterion6_algebra(fg):
    alg = fg.builtin_algebra("qt1", degree_bound=6)
    tm = alg.generator_mono("t")
    return alg, [alg.unit_mono, tm, alg.mul_mono(tm, tm)]


def criterion6_states(fg, count):
    """Random states at the start of criterion 6's first `count` trials."""
    rng = random.Random(CRITERION6_SEED)
    alg, pool = _criterion6_algebra(fg)
    states = []
    for _ in range(count):
        states.append(rng.getstate())
        fg.generate.random_logarithm(alg, rng, order=6, coeff_pool=pool)
        fg.generate.random_cocycle(alg, rng)
    return states


def _trial_item(fg, index, state):
    """One criterion-6 trial: reconstruct -> logarithm -> extract_cocycle
    -> reconstruct over qt1 with D = 6."""
    def run():
        rng = random.Random()
        rng.setstate(state)
        alg, pool = _criterion6_algebra(fg)
        g = fg.generate.random_logarithm(alg, rng, order=6, coeff_pool=pool)
        c = fg.generate.random_cocycle(alg, rng)
        F = fg.reconstruct(alg, c, g, order=6)
        g_rec = fg.logarithm(F, order=6)
        c_rec = fg.extract_cocycle(F)
        F2 = fg.reconstruct(alg, c_rec, g_rec.with_order(fg.INF), order=6)
        return g, c, F, g_rec, c_rec, F2

    def check(out):
        g, c, F, g_rec, c_rec, F2 = out
        problems = []
        if g.max_degree() > 6:
            problems.append("logarithm above degree 6")
        if g_rec != g.truncate(6):
            problems.append("recovered logarithm differs")
        if c_rec != c:
            problems.append("recovered cocycle differs")
        if F2 != F:
            problems.append("rebuilt law differs")
        return problems

    def digest(out):
        _, _, F, g_rec, c_rec, _ = out
        js = fg.jsonio
        return _json_digest(fg, js.series_to_json(F),
                            js.series_to_json(g_rec), js.tensor_to_json(c_rec))

    return Item(f"roundtrip6/trial{index}", run, check, digest)


def _roundtrip6(fg, root, smoke):
    trials = CRITERION6_TRIALS[:2] if smoke else CRITERION6_TRIALS
    states = criterion6_states(fg, max(trials) + 1)

    def all_items(inprocess=False):
        return [_trial_item(fg, i, states[i]) for i in trials]

    return Workload("roundtrip6", all_items)


# -- reversion ------------------------------------------------------------

def _is_identity(fg, composite, order):
    x = fg.Series.variable(composite.algebra, composite.arity, 1, 0, order,
                           composite.names)
    return composite.truncate(order) == x


def trivial_item(fg, sub, order):
    """Compositional inverse of a random logarithm over Q (sub-seed sub)."""
    def run():
        alg = fg.builtin_algebra("trivial")
        g = fg.generate.random_logarithm(alg, random.Random(sub), order)
        return g, g.comp_inverse(order=order)

    def check(out):
        g, h = out
        return [] if _is_identity(fg, g.substitute([h]), order) else [
            "g(h(x)) != x"]

    def digest(out):
        return _json_digest(fg, fg.jsonio.series_to_json(out[1]))

    return Item(f"reversion/trivial-N{order}-s{sub}", run, check, digest)


def qt2_item(fg, sub, order):
    """Compositional inverse of the coproduct lift (Delta (x) id) of a
    random qt2 logarithm (sub-seed sub): an arity-2 reversion."""
    def run():
        alg = fg.builtin_algebra("qt2")
        g = fg.generate.random_logarithm(alg, random.Random(sub), order)
        lifted = g.map_coefficients(lambda A: A.apply_slot(0, "comul"))
        return lifted, lifted.comp_inverse(order=order)

    def check(out):
        lifted, h = out
        return [] if _is_identity(fg, lifted.substitute([h]), order) else [
            "Delta g(h(x)) != x"]

    def digest(out):
        return _json_digest(fg, fg.jsonio.series_to_json(out[1]))

    return Item(f"reversion/qt2-lift-N{order}-s{sub}", run, check, digest)


def _tanh_item(fg, order):
    """Group inverse of the tanh law (x + y)/(1 + xy) stored through
    `order`; the exact answer is -x."""
    def run():
        alg = fg.builtin_algebra("trivial")
        one2 = fg.TensorElement.unit(alg, 2)
        terms = {}
        for k in range((order + 1) // 2):
            q = fg.rational((-1) ** k)
            terms[(k + 1, k)] = one2 * q
            terms[(k, k + 1)] = one2 * q
        tanh = fg.Series(alg, 2, 2, terms, order, ("x", "y"))
        return (fg.inverse_series(tanh, order=order),)

    def check(out):
        (iota,) = out
        minus_x = -fg.Series.variable(iota.algebra, 1, 1, 0, order,
                                      iota.names)
        return [] if iota == minus_x else ["inverse differs from -x"]

    def digest(out):
        return _json_digest(fg, fg.jsonio.series_to_json(out[0]))

    return Item(f"reversion/tanh-inverse-N{order}", run, check, digest)


REVERSION_ORDERS = {"trivial": 32, "qt2": 16, "tanh": 33}
REVERSION_SMOKE_ORDERS = {"trivial": 12, "qt2": 8, "tanh": 9}
REVERSION_SEEDS = {"trivial": (1,), "qt2": (7,)}


def _reversion(fg, root, smoke):
    orders = REVERSION_SMOKE_ORDERS if smoke else REVERSION_ORDERS

    def all_items(inprocess=False):
        return ([trivial_item(fg, s, orders["trivial"])
                 for s in REVERSION_SEEDS["trivial"]]
                + [qt2_item(fg, s, orders["qt2"])
                   for s in REVERSION_SEEDS["qt2"]]
                + [_tanh_item(fg, orders["tanh"])])

    return Workload("reversion", all_items)


# -- cli ------------------------------------------------------------------

def cli_env(root):
    env = dict(os.environ)
    env.pop("FGLOG_COLOR", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_cli(root, argv, env):
    """`python -m fglog argv` in a fresh interpreter: (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "fglog", *argv], cwd=root,
                          env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def _cli_item(fg, root, argv, env, inprocess):
    def run():
        if not inprocess:
            return run_cli(root, argv, env)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fg.cli.main(list(argv))
        return code, out.getvalue().encode("utf-8")

    def digest(out):
        code, stdout = out
        return sha256(b"exit %d\n" % code + stdout)

    return Item("cli/" + " ".join(argv), run, lambda out: [], digest)


def _cli(fg, root, smoke):
    for argv in CLI_COMMANDS:
        for arg in argv:
            if arg.startswith(FIXTURES) and not (root / arg).is_file():
                raise FileNotFoundError(root / arg)
    env = cli_env(root)

    def all_items(inprocess=False):
        return [_cli_item(fg, root, argv, env, inprocess)
                for argv in CLI_COMMANDS]

    return Workload("cli", all_items,
                    trace_passes=1 if smoke else 8,
                    min_ops=len(CLI_COMMANDS) if smoke else 100,
                    known_defects=KNOWN_DEFECTS)


CONSTRUCTORS = {"roundtrip6": _roundtrip6, "reversion": _reversion,
                "cli": _cli}
NAMES = tuple(CONSTRUCTORS)


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def setup(name, root, smoke=False, goldens=None):
    """Import fglog from `root/src`, load the goldens and build the
    workload: everything a run does before its first timed operation."""
    fg = import_fglog(root)
    workload = CONSTRUCTORS[name](fg, root, smoke)
    workload.goldens = load_goldens() if goldens is None else goldens
    workload.fg = fg
    return workload
