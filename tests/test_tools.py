"""Every script under ``tools/`` imports without running: each one guards
its ``main``, so a broken import or a top-level error shows here, not only
when the script is run."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_the_tools_are_found():
    assert {"code_lines", "record_cli_digests"} <= {path.stem for path in TOOLS}


@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_tool_imports(path):
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
