"""tools/bench_pairs.py: one pair of zero-second reversion runs of this
checkout against itself writes a BENCH file with every summary key."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_writes_the_summary(tmp_path):
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", ".", ".", "--workload",
         "reversion", "--pairs", "1", "--seconds", "0", "--seed", "1",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_reversion.json").read_text())
    assert set(bench) == {"command", "workload", "seed", "seconds", "pairs",
                          "env", "outcome", "metrics", "runs"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench["metrics"]) == {m["name"]
                                     for m in declared["end_to_end"]}
    for side in ("parent", "change"):
        assert bench["outcome"][side]["correct"]
        assert bench["outcome"][side]["failed"] == 0
        assert {"python", "rational_backend"} <= set(bench["env"][side])
        assert len(bench["runs"][side]) == 1
    for summary in bench["metrics"].values():
        assert {"unit", "better", "bound", "parent", "change", "ratio",
                "pairs_won"} == set(summary)
        assert set(summary["parent"]) == {"median", "q1", "q3"}
        assert sum(summary["pairs_won"].values()) <= 1
