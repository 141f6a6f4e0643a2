"""tools/kernel_replay.py: one repeat of a smoke pass prints the kernel
calls, seconds and term pairs of every operation and their total, each
followed by those of every fglog function that reached the kernel."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROW = re.compile(r"^(  )?(\S+): (\d+) calls, (\d+\.\d{6}) s, (\d+) pairs$")


def replay_blocks(workload):
    """[(id, calls, pairs, {caller: (calls, pairs)})] of a smoke pass, one
    per operation and the total last."""
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
            blocks[-1][3][row[2]] = (int(row[3]), int(row[5]))
        else:
            blocks.append((row[2], int(row[3]), int(row[5]), {}))
    return blocks


def assert_rows_add_up(blocks):
    """Each operation's calls and pairs are the sums of its callers', and
    the total's are the sums of the operations' and, per caller, of that
    caller's rows."""
    for _, calls, pairs, callers in blocks:
        assert sum(c for c, _ in callers.values()) == calls
        assert sum(p for _, p in callers.values()) == pairs
    assert [sum(b[i] for b in blocks[:-1]) for i in (1, 2)] == [
        blocks[-1][1], blocks[-1][2]]
    totals = {}
    for _, _, _, callers in blocks[:-1]:
        for name, (calls, pairs) in callers.items():
            row = totals.get(name, (0, 0))
            totals[name] = (row[0] + calls, row[1] + pairs)
    assert totals == blocks[-1][3]


def test_smoke_reversion_replay():
    blocks = replay_blocks("reversion")
    ids = [b[0] for b in blocks]
    assert ids[-1] == "total"
    assert len(ids) == 4 and all(i.startswith("reversion/") for i in ids[:-1])
    assert all(b[1] and b[2] for b in blocks)
    assert_rows_add_up(blocks)


def test_smoke_roundtrip6_replay_by_caller():
    """Each operation's calls and term pairs, and the total's, split by
    the fglog function that reached the kernel; the groups add up to
    them, and the pair counts repeat exactly from run to run."""
    blocks = replay_blocks("roundtrip6")
    assert [b[0] for b in blocks] == [
        "roundtrip6/trial0", "roundtrip6/trial1", "total"]
    for _, _, _, callers in blocks:
        assert {"series._horner", "series._evaluate",
                "series._newton_root", "series.mul_inverse",
                "hopf.__mul__"} <= set(callers)
    assert not {"times", "summed", "_series_mul"} & {
        name.split(".")[1] for name in blocks[-1][3]}
    assert_rows_add_up(blocks)
    assert replay_blocks("roundtrip6") == blocks
