"""Count total and logic lines per module of a Python package.

Usage::

    python tools/line_count.py [DIR]

DIR defaults to this checkout's ``src/qcond``.  For each ``*.py`` file in
DIR (not its subdirectories), in name order, it prints the file's total
lines and its logic lines, then the sums.  A logic line holds a code token:
blank lines, comment lines and the lines of module, class or function
docstrings do not count, and a line that a multi-line expression or string
spans counts once.  Run it on two checkouts to compare their sizes.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, logic lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def table(directory: Path) -> list[str]:
    rows, total, logic = [f"{'module':<20} {'lines':>6} {'logic':>6}"], 0, 0
    for path in sorted(directory.glob("*.py")):
        n, k = count(path.read_text(encoding="utf-8"))
        rows.append(f"{path.name:<20} {n:>6} {k:>6}")
        total, logic = total + n, logic + k
    rows.append(f"{'total':<20} {total:>6} {logic:>6}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Total and logic lines per module.")
    parser.add_argument("directory", nargs="?", default=str(ROOT / "src" / "qcond"))
    args = parser.parse_args(argv)
    directory = Path(args.directory)
    if not directory.is_dir():
        parser.error(f"not a directory: {directory}")
    print("\n".join(table(directory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
