"""tools/kernel_replay.py: one repeat of a smoke pass prints the kernel
seconds of every operation and their total, each followed by those of
every fglog function that reached the kernel."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^(  )?(\S+): (\d+) calls, (\d+\.\d{6}) s$")


def replay_blocks(workload):
    """[(id, calls, {caller: calls})] of a smoke pass, one per operation
    and the total last."""
    proc = subprocess.run(
        [sys.executable, "tools/kernel_replay.py", ".", "--workload",
         workload, "--smoke", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [ROW.match(text) for text in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    blocks = []
    for row in rows:
        if row[1]:
            blocks[-1][2][row[2]] = int(row[3])
        else:
            blocks.append((row[2], int(row[3]), {}))
    return blocks


def test_smoke_reversion_replay():
    blocks = replay_blocks("reversion")
    ids = [b[0] for b in blocks]
    assert ids[-1] == "total"
    assert len(ids) == 4 and all(i.startswith("reversion/") for i in ids[:-1])
    counts = [b[1] for b in blocks]
    assert all(counts) and sum(counts[:-1]) == counts[-1]
    assert all(sum(b[2].values()) == b[1] for b in blocks)


def test_smoke_roundtrip6_replay_by_caller():
    """Each operation's calls, and the total's, split by the fglog
    function that reached the kernel; the groups add up to them."""
    blocks = replay_blocks("roundtrip6")
    assert [b[0] for b in blocks] == [
        "roundtrip6/trial0", "roundtrip6/trial1", "total"]
    for _, count, callers in blocks:
        assert sum(callers.values()) == count
        assert {"series._horner", "series._evaluate",
                "series._newton_root", "series.mul_inverse",
                "hopf.__mul__"} <= set(callers)
    assert not {"times", "summed", "_series_mul"} & {
        name.split(".")[1] for name in blocks[-1][2]}
    totals = {}
    for _, _, callers in blocks[:-1]:
        for name, count in callers.items():
            totals[name] = totals.get(name, 0) + count
    assert totals == blocks[-1][2]
