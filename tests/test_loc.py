"""tools/loc.py: total and code lines of a two-file tree, where code lines
leave out blank lines, comments and docstrings but keep every line of a
statement, an assigned string among them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIRST = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a whole-line comment


def f(x):
    """A function docstring."""
    return (x +
            1)
'''

SECOND = '''x = """an assigned string
over two lines"""
"a bare string statement"
y = [1,

     2]
'''


def test_two_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "first.py").write_text(FIRST)
    (tmp_path / "second.py").write_text(SECOND)
    (tmp_path / "notes.txt").write_text("not python\n")
    proc = subprocess.run(
        [sys.executable, "tools/loc.py", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # first.py: 12 lines, code on 4 (import, def, the two return lines);
    # second.py: 6 lines, code on 4 (both lines of each assignment but
    # the blank one inside the list)
    assert proc.stdout == f"{tmp_path}: 18 lines, 8 code lines (2 files)\n"
