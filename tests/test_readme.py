"""The library quick start of README.md runs as documented: its Python
block executes, and each bare expression with a trailing comment has the
``repr`` of its value as that comment."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The ```python block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_as_documented():
    source = quick_start()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        if isinstance(stmt, ast.Expr) and comment.startswith("#"):
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            assert repr(value) == comment[1:].strip(), ast.unparse(stmt)
            checked.append(ast.unparse(stmt))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    # at least the colorings, the weight multiset and the polynomial
    assert len(checked) >= 3, checked
