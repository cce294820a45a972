#!/usr/bin/env python3
"""Count the lines of each Python module under a source tree.

For each module it prints the physical lines and the code lines: the
lines that hold a token of code, so that blank lines, comments and
docstrings (the string that opens a module, class or function body) are
not counted. A string that is not a docstring counts on every line it
spans. The totals come last. It uses the standard library only::

    python scripts/src_lines.py            # the modules under src/
    python scripts/src_lines.py DIR_OR_FILE ...
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines that the docstrings of the module, its classes and its
    functions span."""
    lines: set[int] = set()
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


def count(source: str) -> tuple[int, int]:
    """The physical lines and the code lines of a module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def _modules(paths: list[Path]) -> list[Path]:
    found: list[Path] = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src"]
    total_physical = total_code = 0
    here = Path.cwd()
    print(f"{'physical':>9} {'code':>6}  module")
    for module in _modules(paths):
        physical, code = count(module.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        shown = module.relative_to(here) if module.is_relative_to(here) else module
        print(f"{physical:>9} {code:>6}  {shown}")
    print(f"{total_physical:>9} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
