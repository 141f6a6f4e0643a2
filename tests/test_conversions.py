"""Conversions between the term-dict presentation and packed forms in one
smoke roundtrip6 pass of the benchmark (criterion-6 trials 0 and 1): a
series is one packed form, so the pass unpacks no series (reconstruct,
logarithm and extract_cocycle included) and packs and re-lays only a few,
and these bounds keep conversions and the glue around the product kernel
from creeping back unseen. Before series were packed forms the same pass
made 20 `_Codec.pack`, 14 `_Codec.unpack` and 2 `_Codec.relaid` calls;
with packed series and the right-hand side of reconstruct summed from
`Series.embed` and `Series.embed_vars` chains it made 10, 0 and 19, and
159 calls of the product kernel (`_Packed.sum_of_products`). The parts
of a law are now placed in one pass each (`_Codec.placed`): the two
re-layings left are those of `fgl.invariant_differential`."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the pass runs in a fresh interpreter: the workload imports fglog afresh
COUNT = """
import json, random, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
import workloads
workload = workloads.setup("roundtrip6", root, smoke=True)
codec = workload.fg.packed._Codec
packed = workload.fg.packed._Packed
counts = dict.fromkeys(("pack", "unpack", "relaid", "kernel"), 0)

def counted(name, method):
    def run(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)
    return run

for name in ("pack", "unpack", "relaid"):
    setattr(codec, name, counted(name, getattr(codec, name)))
packed.sum_of_products = staticmethod(
    counted("kernel", packed.sum_of_products))
for item in workload.make_pass(random.Random(1), True):
    item.run()
print(json.dumps(counts))
"""

BOUNDS = {"pack": 6, "unpack": 0, "relaid": 2, "kernel": 142}


def test_smoke_roundtrip6_pass_converts_little():
    proc = subprocess.run([sys.executable, "-c", COUNT, str(ROOT)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["pack"] and counts["relaid"]
    assert all(counts[name] <= bound for name, bound in BOUNDS.items()), (
        counts)
