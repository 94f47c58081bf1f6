"""End-to-end command line behavior, run in process."""

import json
import random
from collections import Counter

import pytest

from arrowquiver import arrowweight, cli
from arrowquiver.arrowweight import is_valid_weight
from arrowquiver.biquandle import load as load_biquandle
from arrowquiver.cli import main
from arrowquiver.gausscode import parse_gauss_code
from arrowquiver.homset import TransportError, enumerate_colorings
from arrowquiver.knotdata import bundled_path, bundled_table

from test_arrowweight import asymmetric_tensor, no_constraints, random_z16_tensor

FLIP2 = str(bundled_path("biquandle_flip2.txt"))
CYC3 = str(bundled_path("biquandle_cyc3.txt"))
SHIFT4 = str(bundled_path("biquandle_shift4.txt"))
MISPRINT = str(bundled_path("biquandle_cyc3_misprint.txt"))
W16 = str(bundled_path("weight_flip2_z16.txt"))
W8 = str(bundled_path("weight_cyc3_z8.txt"))
W3 = str(bundled_path("weight_cyc3_z3.txt"))
W4 = str(bundled_path("weight_shift4_z4.txt"))
ENDOS_CYC3 = str(bundled_path("endos_cyc3.txt"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestColor:
    def test_text(self, capsys):
        code, out, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knot", "2.1"
        )
        assert code == 0
        assert out == "1 2 1 2\n2 1 2 1\ncount 2\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "color", "--biquandle", FLIP2, "--knot", "O1+U1+", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data == {
            "knot": "O1+U1+",
            "count": 2,
            "colorings": [[1, 2], [2, 1]],
        }

    def test_empty_code_is_the_unknot(self, capsys):
        code, out, err = run(capsys, "color", "--biquandle", FLIP2, "--knot", "")
        assert (code, out, err) == (0, "1\n2\ncount 2\n", "")

    @pytest.mark.parametrize("knot", ["O1+ U1+", "O1+,U1+", " O1+ ,\tU1+ "])
    def test_blanks_and_commas_separate_tokens(self, capsys, knot):
        expected = run(capsys, "color", "--biquandle", FLIP2, "--knot", "O1+U1+")
        assert run(capsys, "color", "--biquandle", FLIP2, "--knot", knot) == expected

    def test_a_code_exactly_when_the_tokenizer_reads_all_of_it(self, capsys):
        # --knot is a Gauss code exactly when parse_gauss_code reports no
        # "bad Gauss code near"; any other string is looked up by name
        flip2 = load_biquandle(FLIP2)
        names = set(bundled_table().names())
        rng = random.Random(20261020)
        seen = Counter()
        for _ in range(300):
            knot = "".join(
                rng.choice("OU0129+-, .") if rng.random() < 0.5
                else rng.choice("OU") + rng.choice("12") + rng.choice("+-")
                for _ in range(rng.randint(0, 6))
            )
            # the = form, since a string may start with "-"
            code, out, err = run(capsys, "color", "--biquandle", FLIP2, f"--knot={knot}")
            try:
                d = parse_gauss_code(knot)
            except ValueError as exc:
                if "bad Gauss code near" in str(exc):
                    seen["name"] += 1
                    unknown = f"arrowquiver: unknown knot {knot!r}\n"
                    assert (code, err) == ((0, "") if knot in names else (2, unknown))
                else:
                    seen["invalid code"] += 1
                    assert (code, out) == (2, "")
                    assert err == f"arrowquiver: invalid Gauss code {knot!r}: {exc}\n"
            else:
                seen["code"] += 1
                assert (code, err) == (0, "")
                assert out.endswith(f"count {len(enumerate_colorings(flip2, d))}\n")
        assert len(seen) == 3 and min(seen.values()) >= 40, seen


class TestEndos:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "endos", "--biquandle", CYC3)
        assert code == 0
        assert out == "1 2 3\n2 3 1\n3 1 2\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "endos", "--biquandle", FLIP2, "--format", "json"
        )
        assert json.loads(out) == {"count": 2, "endos": [[1, 2], [2, 1]]}


class TestWeights:
    def test_find_text(self, capsys):
        code, out, _ = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2",
            "--limit", "1",
        )
        assert code == 0
        assert out == (
            "# solution 0\n2\n2\n0 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n\n"
            "# 1 solutions\n"
        )

    def test_find_tsv_and_json_agree(self, capsys):
        _, tsv, _ = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2",
            "--format", "tsv",
        )
        _, js, _ = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2",
            "--format", "json",
        )
        rows = [
            tuple(int(v) for v in line.split("\t"))
            for line in tsv.splitlines()
        ]
        data = json.loads(js)
        assert data["count"] == 8
        assert [tuple(t) for t in data["tensors"]] == rows

    def test_find_limit_zero_prints_no_tensor(self, capsys):
        code, out, _ = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2", "--limit", "0",
        )
        assert code == 0
        assert out == "# 0 solutions\n"

    def test_find_on_six_elements(self, capsys, tmp_path):
        # the dihedral quandle R_6 as a biquandle: 6^4 = 1296 tensor columns,
        # more than Python's default recursion limit
        under = [[(2 * y - x) % 6 or 6 for y in range(1, 7)] for x in range(1, 7)]
        over = [[x] * 6 for x in range(1, 7)]
        path = tmp_path / "r6.txt"
        path.write_text(
            "6\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in under)
            + "\n"
            + "".join(" ".join(map(str, row)) + "\n" for row in over)
        )
        code, out, _ = run(
            capsys,
            "weights", "find", "--biquandle", str(path), "--modulus", "6",
            "--limit", "1",
        )
        assert code == 0
        zero_rows = "0 " * 35 + "0\n"
        assert out == "# solution 0\n6\n6\n" + zero_rows * 36 + "\n# 1 solutions\n"

    def test_find_nontrivial(self, capsys):
        _, out, _ = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2",
            "--nontrivial", "--format", "tsv",
        )
        assert len(out.splitlines()) == 4
        assert "1" in out

    def test_check_valid(self, capsys):
        code, out, _ = run(
            capsys,
            "weights", "check", "--biquandle", FLIP2, "--tensor", W16,
            "--trials", "2", "--seed", "7",
        )
        assert code == 0
        assert out == "seed 7\nvalid\n"

    def test_check_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n2\n0 0 0 0\n0 0 0 0\n0 1 0 0\n0 0 0 0\n")
        code, out, _ = run(
            capsys,
            "weights", "check", "--biquandle", FLIP2, "--tensor", str(bad),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "seed 0"
        assert lines[1] == "invalid"
        assert lines[2].startswith("violated constraint rows: ")

    @pytest.mark.parametrize(
        "tensor, seed, detail",
        [
            (asymmetric_tensor, 0, "error"),
            (random_z16_tensor, 1, "after"),
        ],
    )
    def test_check_reports_the_failed_trial(
        self, capsys, monkeypatch, tmp_path, flip2, tensor, seed, detail
    ):
        monkeypatch.setattr(arrowweight, "generate_constraints", no_constraints)
        w = tensor()
        path = tmp_path / "w.txt"
        path.write_text(w.dumps())
        trial = is_valid_weight(flip2, w, seed=seed).failed_trial
        assert detail in trial
        argv = ["weights", "check", "--biquandle", FLIP2, "--tensor", str(path)]
        code, out, _ = run(capsys, *argv, "--seed", str(seed))
        assert code == 0
        assert out == f"seed {seed}\ninvalid\nfailed trial: {trial}\n"
        code, out, _ = run(capsys, *argv, "--seed", str(seed), "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "seed": seed, "valid": False, "violated_rows": [], "failed_trial": trial
        }

    def test_check_json(self, capsys):
        _, out, _ = run(
            capsys,
            "weights", "check", "--biquandle", FLIP2, "--tensor", W16,
            "--trials", "1", "--format", "json",
        )
        data = json.loads(out)
        assert data["valid"] is True
        assert data["seed"] == 0


class TestInvariant:
    def test_weight_poly(self, capsys):
        code, out, _ = run(
            capsys,
            "invariant", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", W16, "--knot", "2.1",
        )
        assert code == 0
        assert out == "2u^8\n"

    def test_indeg_with_endos_file(self, capsys):
        _, out, _ = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8,
            "--endos", ENDOS_CYC3, "--knot", "2.1",
        )
        assert out == "3u^4w^3\n"

    def test_twovar_full_endos(self, capsys):
        _, out, _ = run(
            capsys,
            "invariant", "--type", "twovar",
            "--biquandle", CYC3, "--tensor", W3,
            "--full-endos", "--knot", "2.1",
        )
        assert out == "9\n"

    def test_qloop_on_literal_code(self, capsys):
        _, out, _ = run(
            capsys,
            "invariant", "--type", "qloop",
            "--biquandle", SHIFT4, "--tensor", W4,
            "--full-endos", "--knot", "O1+O2+U1+U2+",
        )
        assert out == "4 + 4x^2\n"

    def test_json_payload(self, capsys):
        _, out, _ = run(
            capsys,
            "invariant", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", W16, "--knot", "2.1",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["render"] == "2u^8"
        assert data["terms"] == [{"exponents": [8], "coeff": 2}]


class TestQuiver:
    def test_dot(self, capsys):
        code, out, _ = run(
            capsys,
            "quiver", "--biquandle", FLIP2, "--tensor", W16,
            "--full-endos", "--knot", "2.1",
        )
        assert code == 0
        assert out.startswith("digraph quiver {\n")
        assert '  v0 [label="1212 | 8"];' in out

    def test_quotient_dot(self, capsys):
        _, out, _ = run(
            capsys,
            "quiver", "--biquandle", FLIP2, "--tensor", W16,
            "--full-endos", "--quotient", "--knot", "2.1",
        )
        assert out == 'digraph quotient {\n  w0 [label="8 (x2)"];\n  w0 -> w0 [label="4"];\n}\n'

    def test_json(self, capsys):
        _, out, _ = run(
            capsys,
            "quiver", "--biquandle", FLIP2, "--tensor", W16,
            "--full-endos", "--knot", "2.1", "--format", "json",
        )
        data = json.loads(out)
        assert data["vertices"] == [[1, 2, 1, 2], [2, 1, 2, 1]]
        assert data["weights"] == [8, 8]

    def test_quotient_json(self, capsys):
        _, out, _ = run(
            capsys,
            "quiver", "--biquandle", FLIP2, "--tensor", W16,
            "--full-endos", "--quotient", "--knot", "2.1", "--format", "json",
        )
        data = json.loads(out)
        assert data == {
            "knot": "2.1",
            "weights": [8],
            "sizes": [2],
            "edges": [[0, 0, 4]],
        }


class TestTable:
    def small(self, tmp_path):
        path = tmp_path / "small.tsv"
        path.write_text("2.1\tO1+O2+U1+U2+\nk\tO1+U1+\n")
        return str(path)

    def test_rows(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "table", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", W16,
            "--knots", self.small(tmp_path),
        )
        assert code == 0
        assert out == "2.1\t2u^8\nk\t2\n"

    def test_all_orientations(self, capsys, tmp_path):
        _, out, _ = run(
            capsys,
            "table", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", W16,
            "--knots", self.small(tmp_path), "--all-orientations",
        )
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 5 for line in lines)
        assert lines[0].split("\t")[0] == "2.1"

    def test_json(self, capsys, tmp_path):
        _, out, _ = run(
            capsys,
            "table", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", W16,
            "--knots", self.small(tmp_path), "--format", "json",
        )
        assert json.loads(out) == [
            {"name": "2.1", "values": ["2u^8"]},
            {"name": "k", "values": ["2"]},
        ]

    def test_deterministic(self, capsys, tmp_path):
        args = (
            "table", "--type", "indeg", "--biquandle", CYC3, "--tensor", W8,
            "--endos", ENDOS_CYC3, "--knots", self.small(tmp_path),
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCalibrate:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "calibrate")
        assert code == 0
        assert "survives: u_in:o_out swapped under-first ++ (shipped)" in out
        assert out.rstrip().endswith("48 of 256 combinations survive")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["shipped_ok"] is True
        assert ["u_in:o_out", "swapped", "under-first", "++"] in data["survivors"]
        assert len(data["combos"]) == 256

    def test_no_surviving_combination_exits_3(self, monkeypatch, capsys):
        # an evaluator that never reproduces the pinned multisets
        monkeypatch.setattr(cli, "_calibration_multiset", lambda *args: [])
        code, out, err = run(capsys, "calibrate")
        assert code == 3
        assert out == "0 of 256 combinations survive\n"
        assert err == "calibrate: no convention combination matches the fixtures\n"

    def test_shipped_combination_that_does_not_survive_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "SHIPPED", ("u_in:u_in", "plain", "under-first", "++"))
        code, out, err = run(capsys, "calibrate")
        assert code == 3
        assert "(shipped)" not in out
        assert out.rstrip().endswith("48 of 256 combinations survive")
        assert err == "calibrate: shipped conventions do not reproduce the fixtures\n"


class TestErrors:
    def test_transport_error_exits_3(self, monkeypatch, capsys):
        def refuse(*args):
            raise TransportError("expected a unique extension, found 2")

        monkeypatch.setattr(arrowweight, "_transport", refuse)
        code, out, err = run(capsys, "weights", "check", "--biquandle", FLIP2, "--tensor", W16)
        assert code == 3
        assert out == ""
        assert err == "arrowquiver: internal error: expected a unique extension, found 2\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["color"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_invalid_biquandle_exits_2(self, capsys):
        code, _, err = run(
            capsys, "color", "--biquandle", MISPRINT, "--knot", "2.1"
        )
        assert code == 2
        assert "invalid biquandle:" in err
        assert "B2 fails at (3,): under column y=3 is (3, 1, 3)" in err

    def test_yang_baxter_failure_exits_2(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("3\n1 1 1\n2 2 2\n3 3 3\n\n1 3 2\n2 2 1\n3 1 3\n")
        code, out, err = run(capsys, "color", "--biquandle", str(path), "--knot", "2.1")
        assert code == 2
        assert out == ""
        assert "invalid biquandle:\n  B3 fails at (2, 1, 2): Yang-Baxter fails: " in err

    def test_unknown_knot_exits_2(self, capsys):
        code, _, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knot", "9.99"
        )
        assert code == 2
        assert "unknown knot '9.99'" in err

    def test_bad_gauss_code_exits_2(self, capsys):
        code, _, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knot", "O1+U2+"
        )
        assert code == 2
        assert "invalid Gauss code" in err

    def test_tensor_dimension_mismatch_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "invariant", "--type", "weight-poly",
            "--biquandle", CYC3, "--tensor", W16, "--knot", "2.1",
        )
        assert code == 2
        assert "tensor is over 2 elements but the biquandle has 3" in err

    def test_missing_endos_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8, "--knot", "2.1",
        )
        assert code == 2
        assert "needs --endos FILE or --full-endos" in err

    @pytest.mark.parametrize("kind", ["indeg", "weight-poly"])
    def test_endos_file_with_full_endos_exits_2(self, capsys, tmp_path, kind):
        # the file would be ignored; a directory shows it is never read
        code, out, err = run(
            capsys,
            "invariant", "--type", kind,
            "--biquandle", CYC3, "--tensor", W8,
            "--full-endos", "--endos", str(tmp_path), "--knot", "2.1",
        )
        assert code == 2
        assert out == ""
        assert "--endos FILE and --full-endos cannot be used together" in err

    def test_non_endomorphism_file_exits_2(self, capsys, tmp_path):
        endos = tmp_path / "endos.txt"
        endos.write_text("1 2 3\n1 1 2\n")
        code, _, err = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8,
            "--endos", str(endos), "--knot", "2.1",
        )
        assert code == 2
        assert ":2: [1, 1, 2] is not an endomorphism" in err

    @pytest.mark.parametrize("modulus", ["0", "-3"])
    def test_bad_modulus_exits_2(self, capsys, modulus):
        code, out, err = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", modulus,
        )
        assert code == 2
        assert out == ""
        assert f"--modulus must be a positive integer, got {modulus}" in err

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("0\n2\n" + "0 0 0 0\n" * 4, "modulus must be a positive integer, found 0"),
            ("-3\n2\n" + "0 0 0 0\n" * 4, "modulus must be a positive integer, found -3"),
            ("", "modulus must be a positive integer, found nothing"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["weights", "check"],
            ["invariant", "--type", "weight-poly", "--knot", "2.1"],
        ],
    )
    def test_bad_tensor_header_exits_2(self, capsys, tmp_path, text, witness, command):
        path = tmp_path / "w.txt"
        path.write_text(text)
        code, out, err = run(
            capsys, *command, "--biquandle", FLIP2, "--tensor", str(path)
        )
        assert code == 2
        assert out == ""
        assert f"invalid tensor file {path}: {witness}" in err

    @pytest.mark.parametrize("modulus", [3 * 2**31, 2**64])
    def test_modulus_above_the_int64_range_finds_the_zero_tensor(self, capsys, modulus):
        code, out, _ = run(
            capsys,
            "weights", "find", "--biquandle", CYC3, "--modulus", str(modulus),
            "--limit", "1",
        )
        assert code == 0
        zero_rows = "0 0 0 0 0 0 0 0 0\n" * 9
        assert out == f"# solution 0\n{modulus}\n3\n{zero_rows}\n# 1 solutions\n"

    def test_negative_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "weights", "find", "--biquandle", FLIP2, "--modulus", "2", "--limit", "-1",
        )
        assert code == 2
        assert out == ""
        assert "--limit must be a non-negative integer, got -1" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "color", "--biquandle", str(tmp_path / "none.txt"), "--knot", "2.1",
        )
        assert code == 2

    def test_negative_trials_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            "weights", "check", "--biquandle", FLIP2, "--tensor", W16, "--trials", "-1",
        )
        assert code == 2
        assert out == ""
        assert "--trials must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize(
        "text, witness",
        [
            ("1 x\n", ":1: not an image vector"),
            ("1 2\n", ":1: expected 3 images in 1..3"),
            ("# no maps here\n\n", ": no endomorphisms found"),
            ("1 2 3\n1 2 3\n", ":2: [1, 2, 3] repeats line 1"),
        ],
    )
    def test_bad_endos_file_exits_2(self, capsys, tmp_path, text, witness):
        endos = tmp_path / "endos.txt"
        endos.write_text(text)
        code, out, err = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8,
            "--endos", str(endos), "--knot", "2.1",
        )
        assert code == 2
        assert out == ""
        assert f"{endos}{witness}" in err

    def test_missing_endos_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "none.txt"
        code, out, err = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8,
            "--endos", str(missing), "--knot", "2.1",
        )
        assert code == 2
        assert out == ""
        assert f"No such file or directory: '{missing}'" in err

    @pytest.mark.parametrize(
        "command", [["invariant", "--knot", "2.1"], ["table"]]
    )
    def test_weight_poly_checks_the_endos_it_is_given(self, capsys, tmp_path, command):
        bad = tmp_path / "endos.txt"
        bad.write_text("9 9 9\n")
        missing = tmp_path / "none.txt"
        for endos, witness in (
            (bad, f"{bad}:1: expected 3 images in 1..3"),
            (missing, f"No such file or directory: '{missing}'"),
        ):
            code, out, err = run(
                capsys,
                *command, "--type", "weight-poly",
                "--biquandle", CYC3, "--tensor", W8, "--endos", str(endos),
            )
            assert code == 2
            assert out == ""
            assert witness in err
        code, out, _ = run(
            capsys,
            *command, "--type", "weight-poly",
            "--biquandle", CYC3, "--tensor", W8, "--endos", ENDOS_CYC3,
        )
        assert code == 0
        assert out.split("\n")[0].endswith("3u^4")

    def test_missing_tensor_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "none.txt"
        code, out, err = run(
            capsys,
            "invariant", "--type", "weight-poly",
            "--biquandle", FLIP2, "--tensor", str(missing), "--knot", "2.1",
        )
        assert code == 2
        assert out == ""
        assert f"No such file or directory: '{missing}'" in err

    def test_bad_knots_line_exits_2(self, capsys, tmp_path):
        knots = tmp_path / "knots.tsv"
        knots.write_text("bad\n")
        code, out, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knots", str(knots), "--knot", "2.1"
        )
        assert code == 2
        assert out == ""
        assert f"{knots}:1: expected name<TAB>code" in err

    def test_duplicate_knot_name_names_file_and_line(self, capsys, tmp_path):
        knots = tmp_path / "knots.tsv"
        knots.write_text("2.1\tO1+U1+\n2.2\tO1-U1-\n2.1\tO1-U1-\n")
        code, out, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knots", str(knots), "--knot", "2.1"
        )
        assert code == 2
        assert out == ""
        assert f"{knots}:3: duplicate knot name '2.1'" in err

    def test_non_integer_tensor_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n2\n0 0 0 0\n0 x 0 0\n0 0 0 0\n0 0 0 0\n")
        code, out, err = run(
            capsys, "weights", "check", "--biquandle", FLIP2, "--tensor", str(path)
        )
        assert code == 2
        assert out == ""
        assert f"invalid tensor file {path}: invalid literal for int() with base 10: 'x'" in err

    def test_malformed_biquandle_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("hello\n")
        code, out, err = run(capsys, "color", "--biquandle", str(path), "--knot", "2.1")
        assert code == 2
        assert out == ""
        assert f"invalid biquandle file {path}: invalid literal for int()" in err

    @pytest.mark.parametrize("command", ["color", "endos"])
    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_biquandle_size_below_one_exits_2(self, capsys, tmp_path, command, size):
        path = tmp_path / "b.txt"
        path.write_text(f"{size}\n")
        argv = [command, "--biquandle", str(path)]
        if command == "color":
            argv += ["--knot", "2.1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        expected = f"size must be a positive integer, found {size}"
        assert f"invalid biquandle file {path}: {expected}" in err

    def test_missing_knots_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "none.tsv"
        code, out, err = run(
            capsys, "color", "--biquandle", FLIP2, "--knots", str(missing), "--knot", "2.1"
        )
        assert code == 2
        assert out == ""
        assert f"No such file or directory: '{missing}'" in err

    @pytest.mark.parametrize("flag", ["--biquandle", "--tensor", "--endos", "--knots"])
    def test_directory_input_exits_2(self, capsys, tmp_path, flag):
        files = {"--biquandle": CYC3, "--tensor": W8, "--endos": ENDOS_CYC3}
        files[flag] = str(tmp_path)
        argv = [arg for pair in files.items() for arg in pair]
        code, out, err = run(capsys, "invariant", "--type", "indeg", *argv, "--knot", "2.1")
        assert code == 2
        assert out == ""
        assert f"Is a directory: '{tmp_path}'" in err

    def test_non_utf8_endos_file_exits_2(self, capsys, tmp_path):
        endos = tmp_path / "endos.txt"
        endos.write_bytes(b"1 2 3\n\xff\xfe\n")
        code, out, err = run(
            capsys,
            "invariant", "--type", "indeg",
            "--biquandle", CYC3, "--tensor", W8,
            "--endos", str(endos), "--knot", "2.1",
        )
        assert code == 2
        assert out == ""
        assert f"{endos}: 'utf-8' codec can't decode byte 0xff" in err
