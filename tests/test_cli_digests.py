"""CLI output stays byte-identical: every command recorded by
``tools/record_cli_digests.py`` gives the recorded exit code and the
recorded sha256 of its stdout and of its stderr."""

import hashlib

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
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv.split(" "))
    except SystemExit as exc:  # a usage error
        got = exc.code
    captured = capsys.readouterr()
    assert (got, sha256(captured.out), sha256(captured.err)) == (int(code), out, err)
