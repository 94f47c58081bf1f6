"""CLI output stays byte-identical: every command recorded by
``tools/record_cli_digests.py`` gives the recorded exit code and the
recorded sha256 of its stdout and of its stderr."""

import hashlib
import importlib.util

import pytest

from arrowquiver.cli import main
from arrowquiver.knotdata import bundled_path

from conftest import TESTS

RECORDED = [
    line.split("\t")
    for line in (TESTS / "data" / "cli_digests.tsv").read_text(encoding="utf-8").splitlines()
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(("code", "out", "err", "argv"), RECORDED, ids=[r[3] for r in RECORDED])
def test_recorded_output(code, out, err, argv, capsys, monkeypatch):
    # file arguments are bare names of bundled files, as recorded
    monkeypatch.chdir(bundled_path("."))
    try:
        got = main(argv.split(" "))
    except SystemExit as exc:  # a usage error
        got = exc.code
    captured = capsys.readouterr()
    assert (got, sha256(captured.out), sha256(captured.err)) == (int(code), out, err)


@pytest.mark.parametrize("argv", [["color", "--biquandle", "biquandle_flip2.txt"], ["--help"]])
def test_same_output_on_every_terminal_width(argv, capsys, monkeypatch):
    # argparse would wrap usage and help to the terminal width
    monkeypatch.chdir(bundled_path("."))
    seen = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(argv)
        seen.add(capsys.readouterr())
    assert len(seen) == 1
    if argv[0] == "color":
        (recorded,) = [r for r in RECORDED if r[3] == " ".join(argv)]
        (captured,) = seen
        assert recorded[:3] == ["1", sha256(captured.out), sha256(captured.err)]


def test_recorded_commands_are_the_tool_matrix():
    # the file is re-recorded only by the tool, so its argv column must be
    # the tool's matrix, command for command and in order
    path = TESTS.parent / "tools" / "record_cli_digests.py"
    spec = importlib.util.spec_from_file_location("record_cli_digests", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.matrix() == [argv.split(" ") for *_, argv in RECORDED]
