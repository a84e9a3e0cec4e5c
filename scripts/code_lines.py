#!/usr/bin/env python3
"""Code lines per module under src/chromaflow/, and their total.

    python3 scripts/code_lines.py [ROOT]
    python3 scripts/code_lines.py PARENT CHANGE

A line counts when it holds part of a Python token other than a
comment, and is not part of a docstring: the string that opens a
module, class or function body.  Blank lines, comment-only lines and
docstrings do not count.  ROOT is the checkout to count in, by default
the one this script sits in.  Given two checkouts, it prints the
parent's count, the change's and the change less the parent for every
module of either, and for the total; a module that one side lacks
counts 0 there.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def counts(root: Path) -> dict[str, int]:
    """Code lines of each module of root's src/chromaflow/, by file name."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((root / "src" / "chromaflow").glob("*.py"))}


def main(argv: list[str]) -> None:
    if len(argv) > 2:
        raise SystemExit("usage: code_lines.py [ROOT] | code_lines.py PARENT CHANGE")
    roots =[Path(a) for a in argv] or [Path(__file__).resolve().parent.parent]
    sides = [counts(root) for root in roots]
    for side in sides:
        side["total"] = sum(side.values())
    if len(sides) == 2:
        print(f"{'parent':>6} {'change':>6} {'delta':>6}")
    for name in [*sorted(set().union(*sides) - {"total"}), "total"]:
        row = [side.get(name, 0) for side in sides]
        if len(row) == 2:
            row.append(row[1] - row[0])
            print(f"{row[0]:6d} {row[1]:6d} {row[2]:+6d}  {name}")
        else:
            print(f"{row[0]:6d}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
