"""Size of a source tree: total lines and code lines of its Python files.

    python tools/loc.py [DIR ...]

For each directory (default: `src`) it prints one line,

    DIR: N lines, M code lines (K files)

over every `*.py` file below it. A code line is a line that holds some
token outside comments and docstrings, so blank lines never count and
every other line of a statement does; a docstring is a string literal
that stands alone as a statement (module, class and function docstrings,
and any other bare string). Net-negative claims about `src/` quote these
two counts at the base commit and at the change.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(text):
    """(total lines, code lines) of one Python source text."""
    code = set()
    statement = []  # the tokens of the logical line being read
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1
                    and statement[0].type == tokenize.STRING):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(text.splitlines()), len(code)


def tree_size(root):
    """(total lines, code lines, files) of the `*.py` files below root."""
    lines = code = files = 0
    for path in sorted(Path(root).rglob("*.py")):
        total, loc = count(path.read_text(encoding="utf-8"))
        lines += total
        code += loc
        files += 1
    return lines, code, files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    for root in args.dirs:
        if not Path(root).is_dir():
            parser.error(f"{root} is not a directory")
        lines, code, files = tree_size(root)
        print(f"{root}: {lines} lines, {code} code lines ({files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
