"""Record the CLI golden digests replayed by ``tests/test_cli_digests.py``.

For each command of a fixed matrix, run in process through
``arrowquiver.cli.main`` from the bundled data directory (so that file
arguments, and the messages naming them, carry bare file names), this
writes one line of ``tests/data/cli_digests.tsv``:

    exit code <TAB> sha256 of stdout <TAB> sha256 of stderr <TAB> argv

with the arguments of argv separated by single spaces.  The matrix covers,
on the five bundled (biquandle, tensor, modulus) pairs, ``weights find``
in every format, ``weights check`` at seeds 0 and 1, every ``table
--type`` over all orientations, ``quiver`` with and without
``--quotient``, ``color`` and ``endos``; then ``calibrate``, and the
witnesses of exit codes 1 and 2.  Last come the paths those skip: every
``invariant --type`` on the five pairs and once on a literal Gauss code,
``weights check`` on two invalid tensors (one fails its constraint rows,
one a trial), ``weights find --nontrivial`` and ``table --knots``, whose
inputs lie in ``tests/data``.  A change that keeps the output of every
command byte-identical leaves the file as it is.

Run from the repository root, on the code whose output is the reference:

    python3 tools/record_cli_digests.py
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arrowquiver.cli import main  # noqa: E402

DATA = ROOT / "src" / "arrowquiver" / "data"
OUT = ROOT / "tests" / "data" / "cli_digests.tsv"
# tests/data, as a path from DATA
TESTS_DATA = "../../../tests/data/"

# (biquandle, tensor, endomorphism option, modulus), by fixture
PAIRS = [
    ("biquandle_flip2.txt", "weight_flip2_z16.txt", ["--full-endos"], 16),
    ("biquandle_cyc3.txt", "weight_cyc3_z8.txt", ["--endos", "endos_cyc3.txt"], 8),
    ("biquandle_cyc3.txt", "weight_cyc3_z3.txt", ["--endos", "endos_cyc3.txt"], 3),
    ("biquandle_quad4.txt", "weight_quad4_z6.txt", ["--endos", "endos_quad4.txt"], 6),
    ("biquandle_shift4.txt", "weight_shift4_z4.txt", ["--endos", "endos_shift4.txt"], 4),
]
TYPES = ["weight-poly", "indeg", "twovar", "qloop"]
KNOT = "3.1"


def matrix() -> list[list[str]]:
    """Every recorded command line, in file order."""
    cmds = []
    for b, t, endos, m in PAIRS:
        inputs = ["--biquandle", b, "--tensor", t, *endos]
        for fmt in ("text", "tsv", "json"):
            cmds.append(["weights", "find", "--biquandle", b, "--modulus", str(m),
                         "--limit", "64", "--format", fmt])
        for seed in ("0", "1"):
            for fmt in ("text", "json"):
                cmds.append(["weights", "check", "--biquandle", b, "--tensor", t,
                             "--seed", seed, "--format", fmt])
        for phi in TYPES:
            for fmt in ("tsv", "json"):
                cmds.append(["table", "--type", phi, *inputs, "--all-orientations",
                             "--format", fmt])
        for quotient in ([], ["--quotient"]):
            for fmt in ("dot", "json"):
                cmds.append(["quiver", *inputs, *quotient, "--knot", KNOT, "--format", fmt])
    for b in dict.fromkeys(pair[0] for pair in PAIRS):
        for fmt in ("text", "json"):
            cmds.append(["color", "--biquandle", b, "--knot", KNOT, "--format", fmt])
            cmds.append(["endos", "--biquandle", b, "--format", fmt])
    for fmt in ("text", "json"):
        cmds.append(["calibrate", "--format", fmt])
    flip2, w16 = PAIRS[0][:2]
    cmds += [
        # exit 1: a usage error
        ["color", "--biquandle", flip2],
        # exit 2: a named witness
        ["endos", "--biquandle", "biquandle_cyc3_misprint.txt"],
        ["invariant", "--type", "indeg", "--biquandle", flip2, "--tensor",
         "weight_cyc3_z8.txt", "--full-endos", "--knot", KNOT],
        ["color", "--biquandle", flip2, "--knot", "9.99"],
        ["color", "--biquandle", flip2, "--knot", "O1+U2+"],
        ["invariant", "--type", "indeg", "--biquandle", "biquandle_shift4.txt", "--tensor",
         "weight_shift4_z4.txt", "--endos", "endos_quad4.txt", "--knot", KNOT],
        ["weights", "find", "--biquandle", flip2, "--modulus", "-2"],
        ["weights", "find", "--biquandle", flip2, "--modulus", "2", "--limit", "-1"],
        ["weights", "check", "--biquandle", flip2, "--tensor", w16, "--trials", "-1"],
    ]
    for b, t, endos, m in PAIRS:
        for phi in TYPES:
            for fmt in ("text", "json"):
                cmds.append(["invariant", "--type", phi, "--biquandle", b, "--tensor", t,
                             *endos, "--knot", KNOT, "--format", fmt])
    cmds.append(["invariant", "--type", "twovar", "--biquandle", flip2, "--tensor", w16,
                 "--full-endos", "--knot", "O1+U2+O3+U1+O2+U3+"])
    # (1, 1, 1, 2) raised by 1 breaks constraint rows; the second tensor
    # weights find lists for cyc3 over Z_8 fails a basepoint rotation
    for b, t in ((flip2, "weight_flip2_z16_raised.txt"),
                 ("biquandle_cyc3.txt", "weight_cyc3_z8_second.txt")):
        for fmt in ("text", "json"):
            cmds.append(["weights", "check", "--biquandle", b, "--tensor", TESTS_DATA + t,
                         "--format", fmt])
    # flip2 over Z_16 and cyc3 over Z_3 take tens of ms; cyc3 over Z_8 takes 2 s
    for b, _, _, m in (PAIRS[0], PAIRS[2]):
        cmds.append(["weights", "find", "--biquandle", b, "--modulus", str(m),
                     "--nontrivial", "--limit", "2"])
    for (b, t, endos, m), phi, fmt in ((PAIRS[0], "weight-poly", "tsv"),
                                       (PAIRS[1], "indeg", "json")):
        cmds.append(["table", "--type", phi, "--biquandle", b, "--tensor", t, *endos,
                     "--knots", TESTS_DATA + "knots_small.tsv", "--all-orientations",
                     "--format", fmt])
    return cmds


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``arrowquiver argv``, run in process
    from the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record() -> None:
    os.chdir(DATA)
    lines = []
    for argv in matrix():
        code, out, err = run(argv)
        lines.append(f"{code}\t{digest(out)}\t{digest(err)}\t{' '.join(argv)}\n")
    OUT.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} commands to {OUT.relative_to(ROOT)}")


if __name__ == "__main__":
    record()
