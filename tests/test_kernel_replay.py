"""tools/kernel_replay.py: one repeat of the smoke reversion pass prints
the kernel seconds of every operation and their total."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_reversion_replay():
    proc = subprocess.run(
        [sys.executable, "tools/kernel_replay.py", ".", "--workload",
         "reversion", "--smoke", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    line = re.compile(r"^(\S+): (\d+) calls, (\d+\.\d{6}) s$")
    rows = [line.match(text) for text in lines]
    assert all(rows), lines
    ids = [row[1] for row in rows]
    assert ids[-1] == "total"
    assert len(ids) == 4 and all(i.startswith("reversion/") for i in ids[:-1])
    counts = [int(row[2]) for row in rows]
    assert all(counts) and sum(counts[:-1]) == counts[-1]
