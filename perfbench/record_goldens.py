"""Record the digest of every benchmark operation's output into goldens.json.

    python3 perfbench/record_goldens.py

Run at the commit whose outputs are the reference. Every operation a pass
can hold, at full and at smoke size, is run once and checked exactly
before its digest is stored. CLI invocations are recorded from a fresh
interpreter and must give the same digest in-process, which is how traced
runs invoke them.
"""

import json
import sys

import workloads
from run import ROOT


def main():
    digests = {}
    for name in workloads.NAMES:
        for smoke in (False, True):
            workload = workloads.setup(name, ROOT, smoke, goldens=digests)
            for item in workload.all_items():
                out = item.run()
                problems = item.check(out)
                if problems:
                    raise SystemExit(f"{item.id}: {problems}")
                digests[item.id] = item.digest(out)
                print(f"{item.id}: {digests[item.id][:16]}", file=sys.stderr)
    cli = workloads.setup("cli", ROOT, goldens=digests)
    for item in cli.all_items(inprocess=True):
        if item.digest(item.run()) != digests[item.id]:
            raise SystemExit(f"{item.id}: in-process output differs")
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
