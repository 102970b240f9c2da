#!/usr/bin/env python3
"""Count the code lines of each module of ``src/maxdom``, and their total.

A code line is a line that holds a token other than a comment, a newline or
an indent; the lines of module, class and function docstrings do not count.
So a blank line, a comment line or a docstring line is never counted, and a
statement over several lines counts each of its lines.

    python3 scripts/code_lines.py [DIR [OTHER]]

prints one ``count  path`` line per module of ``DIR`` (``src/maxdom`` by
default) and a ``total`` line.  Given a second directory ``OTHER``, such as
the same package in a copy of the parent commit, it prints each module's
count in ``DIR``, its count in ``OTHER`` and the difference ``OTHER - DIR``
(a module missing from one directory counts 0 there), then the totals.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def counts(directory: Path) -> dict[str, int]:
    """The code lines of each module of ``directory``, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir", nargs="?", type=Path, default=Path(__file__).resolve().parents[1] / "src" / "maxdom")
    ap.add_argument("other", nargs="?", type=Path, help="a second directory to compare against DIR")
    args = ap.parse_args()
    first = counts(args.dir)
    if args.other is None:
        for name, count in first.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(first.values()):6d}  total")
        return 0
    second = counts(args.other)
    rows = [(name, first.get(name, 0), second.get(name, 0)) for name in sorted(first.keys() | second.keys())]
    rows.append(("total", sum(first.values()), sum(second.values())))
    for name, a, b in rows:
        print(f"{a:6d} {b:6d} {b - a:+6d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
