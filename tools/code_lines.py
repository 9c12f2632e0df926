"""Count the lines of code in Python modules.

A line counts when it is not blank and holds a token that is neither a
comment nor part of a docstring (of a module, class or function).  Every
non-blank line of a multi-line string that is not a docstring counts.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a module or a directory, searched for ``*.py``; the default
is ``src/uncpool``.  Prints the count of each module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) of the first token of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that count as code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = source.splitlines()
    counted = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP or tok.start in docstrings:
            continue
        counted.update(n for n in range(tok.start[0], tok.end[0] + 1) if lines[n - 1].strip())
    return len(counted)


def _modules(paths: list[str]) -> list[Path]:
    found = []
    for p in map(Path, paths):
        found.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in _modules(argv or ["src/uncpool"]):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
