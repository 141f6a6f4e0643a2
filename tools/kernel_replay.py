"""The product kernel's share of a benchmark workload, replayed alone.

    python3 tools/kernel_replay.py ROOT --workload W [--repeats N] [--smoke]

Imports fglog from ROOT/src and the workload from ROOT/perfbench, runs
one in-process pass of the workload's operations while recording every
call of the product kernel (`_Packed.sum_of_products`, which every series
product, substitution step, evaluator block and tensor product reaches),
then replays each operation's recorded calls N times (default 5) in the
same process and prints the best time of each operation's calls and their
total: the series product layer's seconds, with the rest of the operation
taken away. --smoke uses the workload's small smoke inputs. Under each
operation and under the total, indented rows give the calls and seconds
of each fglog function that reached the kernel, as
`module.function` (`series._horner`, `series._evaluate`,
`series._newton_root`, `series.mul_inverse`, `hopf.__mul__` for tensor
products, ...): the kernel's one-pair and sum wrappers (`_Packed.times`,
`_Packed.summed`, `series._series_mul`) are looked through to their own
caller. Each function's calls are replayed on their own.

Running it on two checkouts compares their kernels on the calls that each
one's own pipeline makes. Exit status is 1 when an operation's output
differs from its golden digest, 0 otherwise.
"""

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter


# the kernel's wrappers, named by the function that calls them
WRAPPERS = {"times", "summed", "_series_mul"}


def caller(frame):
    """`module.function` of the first fglog function at or above frame
    that is no kernel wrapper."""
    while frame.f_code.co_name in WRAPPERS:
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


def replay(kernel, calls, repeats):
    """Best wall seconds of one run through the recorded calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for pairs, keep, bound, _ in calls:
            kernel(pairs, keep, bound)
        best = min(best, perf_counter() - start)
    return best


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
    total_calls = total_s = 0
    totals = {}  # caller -> [calls, seconds]
    for item_id, calls in sorted(per_item):
        seconds = replay(kernel, calls, args.repeats)
        total_calls += len(calls)
        total_s += seconds
        print(f"{item_id}: {len(calls)} calls, {seconds:.6f} s")
        groups = {}
        for call in calls:
            groups.setdefault(call[-1], []).append(call)
        for name, group in sorted(groups.items()):
            seconds = replay(kernel, group, args.repeats)
            row = totals.setdefault(name, [0, 0.0])
            row[0] += len(group)
            row[1] += seconds
            print(f"  {name}: {len(group)} calls, {seconds:.6f} s")
    print(f"total: {total_calls} calls, {total_s:.6f} s")
    for name, (count, seconds) in sorted(totals.items()):
        print(f"  {name}: {count} calls, {seconds:.6f} s")
    for item_id in missed:
        print(f"kernel_replay: {item_id} differs from its golden",
              file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
