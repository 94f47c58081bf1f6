"""Count the code lines of the package, per module and in total.

A code line of ``src/arrowquiver`` is a line that is not blank, not a
comment and not part of a docstring (the string that opens a module, a
class or a function).  This is the size that ROADMAP.md and CHANGES.md
quote.

Run from anywhere:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrowquiver"


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{path.name}\t{lines}")
    print(f"total\t{total}")


if __name__ == "__main__":
    main()
