"""fglog benchmark: one workload per run, golden-checked, metrics as JSON.

    python3 perfbench/run.py --workload roundtrip6|reversion|cli \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; fglog is imported from its `src/`. The
last stdout line is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it holds the details (environment, sample
counts, failures, known defects). With --trace 0 the metrics are the
`end_to_end` ones of BENCHMARK.json, with --trace 1 the `per_layer` ones;
a traced run also writes its spans to .perfbench_out/.

Timing is a closed loop with one client in one process on one thread:
whole passes over the workload's operations run until the loop has lasted
about --seconds (and, for cli, until 100 invocations have run). Set-up
(importing fglog, building the inputs, loading the goldens) is repeated
before and after the loop and its median reported as setup_s.

Every time in the end-to-end metrics is corrected for the host's
momentary speed: wall seconds divided by the slowdown that calibration
kernels timed around the operation show (see clock.py). The details line
also gives the same metrics from raw wall times, under "wall".

Exit status is 0 whenever a result is printed, failed operations
included; it is 2, with no result, when the checkout has no fglog to run.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from clock import Timer
from tracer import Tracer, fglog_modules, targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 8
PROBE_REPEATS = 5
NO_WAIT = ("wait_s is 0 for every layer: the benchmark and fglog run on one "
           "thread with no queues, so no work waits for a layer")


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


# -- timing loop ----------------------------------------------------------

class Phase:
    """Corrected times (see clock.py) and wall times of one loop's
    operations, plus its failures."""

    def __init__(self):
        self.op_ids = []
        self.op_times = []
        self.wall_times = []
        self.pass_times = []
        self.pass_walls = []
        self.attempted = 0
        self.failures = []  # (item id, problems)

    def item_medians(self, times=None):
        """{item id: median of its times in this loop}."""
        by_item = {}
        for item_id, seconds in zip(self.op_ids, times or self.op_times):
            by_item.setdefault(item_id, []).append(seconds)
        return {i: statistics.median(t) for i, t in by_item.items()}


def run_item(workload, item, timer, tracer=None):
    """Time one operation, then check it untimed (and untraced):
    (wall seconds, corrected seconds, problems)."""
    out, wall, corrected = timer.measure(item.run)
    if isinstance(out, Exception):  # a raising operation failed
        return wall, corrected, [f"{type(out).__name__}: {out}"]
    if tracer is not None:
        tracer.active = False
    try:
        problems = item.check(out)
        golden = workload.goldens.get(item.id)
        if golden is None:
            problems.append("no golden digest recorded")
        elif item.digest(out) != golden:
            problems.append("output digest differs from the golden")
    except Exception as exc:  # a check that cannot run fails the operation
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.active = True
    return wall, corrected, problems


def run_passes(workload, rng, inprocess, seconds=None, passes=None,
               tracer=None):
    """Whole passes until the workload's minimum operation count is reached
    and the wall time is as near `seconds` as whole passes allow, or
    exactly `passes` passes."""
    phase = Phase()
    timer = Timer()
    started = perf_counter()
    while True:
        pass_time = pass_wall = 0.0
        for item in workload.make_pass(rng, inprocess):
            if tracer is not None:
                tracer.op_id = phase.attempted
            wall, corrected, problems = run_item(workload, item, timer,
                                                 tracer)
            phase.attempted += 1
            phase.op_ids.append(item.id)
            phase.op_times.append(corrected)
            phase.wall_times.append(wall)
            pass_time += corrected
            pass_wall += wall
            if problems:
                phase.failures.append((item.id, problems))
        phase.pass_times.append(pass_time)
        phase.pass_walls.append(pass_wall)
        if passes is not None:
            if len(phase.pass_walls) >= passes:
                break
        elif (phase.attempted >= workload.min_ops
              and perf_counter() - started + statistics.mean(
                  phase.pass_walls) / 2 >= seconds):
            break  # the next pass would end nearer past `seconds` than now
    return phase


def tail(samples):
    """The highest sample with at least ten samples above it; the maximum
    when there are fewer than eleven samples."""
    ordered = sorted(samples)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


# -- probes ---------------------------------------------------------------

def known_defects(workload):
    out = []
    env = workloads.cli_env(ROOT)
    for defect in workload.known_defects:
        code, _ = workloads.run_cli(ROOT, defect["argv"], env)
        out.append({"argv": list(defect["argv"]),
                    "expected_exit": defect["expected_exit"], "exit": code,
                    "status": ("fixed" if code == defect["expected_exit"]
                               else "still failing"),
                    "why": defect["why"]})
    return out


def _median_wall(argv, env):
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def startup_probes():
    """Interpreter start and `import fglog.cli`, each in fresh processes."""
    env = workloads.cli_env(ROOT)
    interp = _median_wall([sys.executable, "-c", "pass"], env)
    imported = _median_wall([sys.executable, "-c", "import fglog.cli"], env)
    return {"cli.interp_start_s": interp, "cli.import_s": imported - interp}


# -- environment ----------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fglog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(fg):
    return {"python": platform.python_version(),
            "rational_backend": f"{fg.Q.__module__}.{fg.Q.__qualname__}",
            "have_gmpy2": fg.HAVE_GMPY2,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(),
            "src_sha256": _source_digest()}


# -- metrics --------------------------------------------------------------

def end_to_end(workload, setup_times, phase, kind="corrected"):
    """Corrected values, or with kind "wall" raw wall ones. On cli every invocation is a
    latency sample, as a client sees it. On the library workloads each
    operation repeats in every pass and counts with its median time in the
    run, so that its cost weighs the same however often it repeats."""
    times = phase.wall_times if kind == "wall" else phase.op_times
    if workload.name == "cli":
        samples = times
        who = resource.RUSAGE_CHILDREN
    else:
        samples = list(phase.item_medians(times).values())
        who = resource.RUSAGE_SELF
    return {"setup_s": statistics.median(setup_times[kind]),
            "ops_per_s": len(samples) / sum(samples),
            "cmd_p50_s": statistics.median(samples),
            "cmd_tail_s": tail(samples),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}


def per_layer(tracer, untraced, traced, probes, cli_main_s):
    """Per-layer values of a traced phase. The traced phase replays the
    untraced phase's first passes (same seed), so the overhead ratio
    compares the same operations."""
    paired = list(zip(traced.pass_times, untraced.pass_times))
    values = {f"{name}.{kind}": 0
              for name, _, _ in targets() for kind in ("calls", "self_s")}
    modules = {}
    for name, (calls, self_s) in tracer.by_name().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        module = name.split(".", 1)[0]
        total = modules.setdefault(module, [0, 0.0])
        total[0] += calls
        total[1] += self_s
    for module in ("jsonio", "exprparse"):
        calls, self_s = modules.get(module, (0, 0.0))
        values[f"{module}.calls"] = calls
        values[f"{module}.self_s"] = self_s
    counters = tracer.counters
    pairs = counters["series.mul.pairs"]
    madds = counters["series.mul.madds"]
    values.update({
        "series.mul.pairs": pairs,
        "series.mul.madds": madds,
        "series.mul.max_pairs": counters["series.mul.max_pairs"],
        "series.mul.useful_ratio": madds / pairs if pairs else 0.0,
        "scalars.madd_ns": (values["series.mul.self_s"] / madds * 1e9
                            if madds else 0.0),
        "cli.main_s": cli_main_s,
        "trace.overhead_ratio": (sum(t for t, _ in paired)
                                 / sum(u for _, u in paired)),
        "trace.min_coverage": min(
            tracer.top_level_cover(op) / wall
            for op, wall in enumerate(traced.wall_times)),
    })
    values.update(probes)
    return values


def pick(declared, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# -- main -----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int,
                        default=workloads.CRITERION6_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(name, times):
    """Set the workload up SETUP_REPEATS times, appending each duration to
    times["corrected"] and times["wall"]."""
    timer = Timer()
    for _ in range(SETUP_REPEATS):
        workload, wall, corrected = timer.measure(
            lambda: workloads.setup(name, ROOT))
        if isinstance(workload, Exception):
            raise workload
        times["corrected"].append(corrected)
        times["wall"].append(wall)
    return workload


def measure(args, workload, setup_times):
    """(result line, details) of one run."""
    e2e_declared, layer_declared = declared_metrics()
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "env": environment(workload.fg),
               "notes": [NO_WAIT]}
    inprocess = bool(args.trace)
    untraced = run_passes(workload, random.Random(args.seed), inprocess,
                          seconds=args.seconds)
    phases = [untraced]
    if args.trace:
        tracer = Tracer()
        tracer.install(fglog_modules())
        try:
            traced = run_passes(workload, random.Random(args.seed),
                                inprocess, passes=workload.trace_passes,
                                tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        cli_main_s = (statistics.median(untraced.wall_times)
                      if workload.name == "cli" else 0.0)
        values = per_layer(tracer, untraced, traced, startup_probes(),
                           cli_main_s)
        metrics = pick(layer_declared, values)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        details["spans"] = {"file": str(spans.relative_to(ROOT)),
                            "count": len(tracer.spans),
                            "traced_ops": traced.attempted}
    else:
        # set up again after the loop, so that the median spans the run
        timed_setup(args.workload, setup_times)
        metrics = pick(e2e_declared,
                       end_to_end(workload, setup_times, untraced))
        details["wall"] = end_to_end(workload, setup_times, untraced, "wall")
        details["samples"] = {"operations": untraced.attempted,
                              "passes": len(untraced.pass_walls),
                              "distinct_operations": len(
                                  untraced.item_medians()),
                              "setups": len(setup_times["wall"])}
    if workload.known_defects:
        details["known_defects"] = known_defects(workload)
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    details["fail_ratio"] = len(failures) / attempted
    details["failures"] = failures[:20]
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, details


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    setup_times = {"corrected": [], "wall": []}
    try:
        workload = timed_setup(args.workload, setup_times)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}",
              file=sys.stderr)
        return 2
    result, details = measure(args, workload, setup_times)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
