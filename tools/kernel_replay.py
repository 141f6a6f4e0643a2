"""The product kernel's share of a benchmark workload, replayed alone.

    python3 tools/kernel_replay.py ROOT --workload W [--repeats N] [--smoke]

Imports fglog from ROOT/src and the workload from ROOT/perfbench, runs
one in-process pass of the workload's operations while recording every
call of the product kernel (`_Packed.sum_of_products`, which every series
product, substitution step, evaluator block and tensor product reaches),
then replays each operation's recorded calls N times (default 5) in the
same process and prints the best time of each operation's calls and their
total: the series product layer's seconds, with the rest of the operation
taken away. --smoke uses the workload's small smoke inputs. Each row also
gives the term pairs that its calls form: the pairs of terms whose Hopf
degrees stay within the bound and whose variable degrees sum to at most
the call's `keep`, capped by the operands' orders as the kernel caps it.
They depend on the calls alone, so they repeat exactly from run to run.
Under each operation and under the total, indented rows give the calls,
seconds and pairs of each fglog function that reached the kernel, as
`module.function` (`series._horner`, `series._evaluate`,
`series._newton_root`, `series.mul_inverse`, `hopf.__mul__` for tensor
products, ...): the kernel's one-pair and sum wrappers (`_Packed.times`,
`_Packed.summed`, `series._series_mul`) and comprehensions are looked
through to their own caller. Each function's calls are replayed on their
own.

Running it on two checkouts compares their kernels on the calls that each
one's own pipeline makes. Exit status is 1 when an operation's output
differs from its golden digest, 0 otherwise.
"""

import argparse
import random
import sys
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

INF = float("inf")


# the kernel's wrappers, named by the function that calls them
WRAPPERS = {"times", "summed", "_series_mul"}


def caller(frame):
    """`module.function` of the first fglog function at or above frame
    that is no kernel wrapper and no comprehension (`<dictcomp>`, ...)."""
    while (frame.f_code.co_name in WRAPPERS
           or frame.f_code.co_name.startswith("<")):
        frame = frame.f_back
    code = frame.f_code
    return f"{Path(code.co_filename).stem}.{code.co_name}"


def record(workload):
    """[(item id, [(pairs, keep, bound, caller), ...])] of one in-process
    pass, in a fixed order, and the ids of the operations whose output
    missed its golden."""
    packed = workload.fg.packed._Packed
    kernel = packed.sum_of_products
    calls = []

    def recorded(pairs, keep, bound):
        pairs = list(pairs)
        calls.append((pairs, keep, bound, caller(sys._getframe(1))))
        return kernel(pairs, keep, bound)

    per_item, outs = [], []
    packed.sum_of_products = staticmethod(recorded)
    try:
        for item in workload.make_pass(random.Random(0), inprocess=True):
            calls = []
            outs.append((item, item.run()))
            per_item.append((item.id, calls))
    finally:
        packed.sum_of_products = staticmethod(kernel)
    missed = [item.id for item, out in outs
              if item.check(out)
              or item.digest(out) != workload.goldens.get(item.id)]
    return per_item, missed


def formed_pairs(pairs, keep, bound):
    """The term pairs one kernel call forms (see the module docstring)."""
    caps = [INF if a.order == b.order == INF
            else min(a.order + b.val, b.order + a.val) for a, b in pairs]
    keep = min([keep, *caps])
    count = 0
    for a, b in pairs:
        shift = max(a.shift, b.shift)
        for ha, la in a.buckets.items():
            for hb, lb in b.buckets.items():
                if ha + hb > bound:
                    continue
                if keep == INF:
                    count += len(la) * len(lb)
                    continue
                for code, _ in la:
                    room = keep - (code >> shift)
                    count += bisect_left(lb, ((room + 1) << shift,))
    return count


def replay(kernel, calls, repeats):
    """Best wall seconds of one run through the recorded calls."""
    best = INF
    for _ in range(repeats):
        start = perf_counter()
        for pairs, keep, bound, _ in calls:
            kernel(pairs, keep, bound)
        best = min(best, perf_counter() - start)
    return best


def line(calls, seconds, pairs):
    return f"{calls} calls, {seconds:.6f} s, {pairs} pairs"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    workload = workloads.setup(args.workload, root, smoke=args.smoke)
    per_item, missed = record(workload)
    kernel = workload.fg.packed._Packed.sum_of_products
    total = [0, 0.0, 0]  # calls, seconds, pairs
    totals = {}  # caller -> [calls, seconds, pairs]
    for item_id, calls in sorted(per_item):
        groups = {}
        for call in calls:
            groups.setdefault(call[-1], []).append(call)
        rows = {}
        for name, group in sorted(groups.items()):
            rows[name] = (len(group), replay(kernel, group, args.repeats),
                          sum(formed_pairs(*call[:3]) for call in group))
        row = (len(calls), replay(kernel, calls, args.repeats),
               sum(r[2] for r in rows.values()))
        print(f"{item_id}: " + line(*row))
        total = [x + y for x, y in zip(total, row)]
        for name, row in rows.items():
            totals[name] = [x + y for x, y in zip(
                totals.get(name, (0, 0.0, 0)), row)]
            print(f"  {name}: " + line(*row))
    print("total: " + line(*total))
    for name, row in sorted(totals.items()):
        print(f"  {name}: " + line(*row))
    for item_id in missed:
        print(f"kernel_replay: {item_id} differs from its golden",
              file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
