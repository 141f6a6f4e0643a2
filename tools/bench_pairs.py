"""Alternating benchmark pairs of two checkouts, written as BENCH_<W>.json.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        --pairs N [--seed S] [--seconds T] [--traced T] [--out DIR]

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0` (run.py's default seed unless --seed is given) once in each
checkout, in a new process with the checkout as its root; the side that
runs first alternates from pair to pair, so a drift of the host's speed
favours neither. With --traced T each side also runs one `--trace 1
--seconds T` pass at the end.

BENCH_<W>.json, written to the directory --out (default: the current
one), holds the command, the environment line of each side, whether all
runs of a side were correct and how many operations they attempted and
failed, every run's end-to-end metrics and, per metric of
BENCHMARK.json's `end_to_end` list, each side's median and quartiles, the
change-to-parent ratio of the medians and the pairs each side won (better
by the metric's direction; a tie counts for neither), plus the traced
per-layer metrics when asked.

Exit status: 0 when every run reports `correct` with no failed
operation, 1 otherwise (the file is written either way), 2 when a run
prints no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root, workload, seed, seconds, trace):
    """(details, result) of one perfbench/run.py run in checkout `root`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"bench_pairs: no result from {root}: {proc.stderr.strip()}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    """{median, q1, q3} of the values (inclusive quartiles)."""
    if len(values) == 1:
        (v,) = values
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(declared, runs):
    """Per-metric spread of each side, ratio of the medians and pairs
    won; runs[side] is the list of each pair's metric values."""
    out = {}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        values = {side: [r[name]["value"] for r in runs[side]]
                  for side in SIDES}
        won = {side: 0 for side in SIDES}
        for p, c in zip(values["parent"], values["change"]):
            if p != c:
                change_better = c < p if better == "lower" else c > p
                won["change" if change_better else "parent"] += 1
        medians = {side: spread(values[side]) for side in SIDES}
        base = medians["parent"]["median"]
        out[name] = {
            "unit": metric["unit"], "better": better,
            "bound": metric["bound"], **medians,
            "ratio": medians["change"]["median"] / base if base else None,
            "pairs_won": won}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--traced", type=float, default=None,
                        metavar="SECONDS")
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    roots = {"parent": args.parent_root.resolve(),
             "change": args.change_root.resolve()}
    with open(roots["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    runs = {side: [] for side in SIDES}
    env, seeds = {}, set()
    tally = {side: {"correct": True, "attempted": 0, "failed": 0}
             for side in SIDES}

    def run(side, seconds, trace):
        details, result = run_once(roots[side], args.workload, args.seed,
                                   seconds, trace)
        env.setdefault(side, details["env"])
        seeds.add(details["seed"])
        t = tally[side]
        t["correct"] = t["correct"] and result["correct"]
        t["attempted"] += result["attempted"]
        t["failed"] += result["failed"]
        return result["metrics"]

    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side, args.seconds, 0))
    (seed,) = seeds
    report = {
        "command": (f"perfbench/run.py --workload {args.workload} --seed "
                    f"{seed} --seconds {args.seconds:g} --trace 0"),
        "workload": args.workload, "seed": seed,
        "seconds": args.seconds, "pairs": args.pairs,
        "env": env, "outcome": tally,
        "metrics": summary(declared, runs),
        "runs": runs,
    }
    if args.traced is not None:
        report["traced"] = {
            side: {name: m["value"]
                   for name, m in run(side, args.traced, 1).items()}
            for side in SIDES}
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, m in report["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g} "
              f"[{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}] -> "
              f"change {m['change']['median']:.6g} "
              f"[{m['change']['q1']:.6g}, {m['change']['q3']:.6g}], "
              f"won {m['pairs_won']['change']}/{args.pairs}")
    print(f"wrote {path}")
    ok = all(t["correct"] and not t["failed"] for t in tally.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
