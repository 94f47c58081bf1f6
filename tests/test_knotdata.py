"""The bundled knot table and orientation variants."""

import pytest

from arrowquiver.gausscode import R1Delete, R2Delete, enumerate_moves, parse_gauss_code
from arrowquiver.knotdata import (
    bundled_path,
    bundled_table,
    load_table,
    orientation_variants,
    parse_table,
)


class TestBundledTable:
    def test_size_and_names(self, table):
        assert len(table) == 116
        names = table.names()
        assert names[0] == "2.1"
        assert names[1:8] == [f"3.{i}" for i in range(1, 8)]
        assert names[8:] == [f"4.{i}" for i in range(1, 109)]

    def test_pinned_codes(self, table):
        assert str(table.get("2.1")) == "O1+O2+U1+U2+"
        assert str(table.get("3.1")) == "U1-U2+O1-U3+O2+O3+"
        assert str(table.get("3.3")) == "U1+U2+O1+O3+O2+U3+"

    def test_unknown_name(self, table):
        with pytest.raises(KeyError, match="unknown knot '9.99'"):
            table.get("9.99")

    def test_iteration_matches_names(self, table):
        assert [e.name for e in table] == table.names()

    def test_crossing_counts_match_names(self, table):
        for entry in table:
            major = int(entry.name.split(".")[0])
            assert entry.diagram.n == major

    def test_entries_admit_no_cancellations(self, table):
        for entry in table:
            moves = enumerate_moves(entry.diagram)
            assert not any(
                isinstance(m, (R1Delete, R2Delete)) for m in moves
            ), entry.name

    def test_entries_pairwise_distinct(self, table):
        codes = {entry.diagram.canonical_code() for entry in table}
        assert len(codes) == len(table)


class TestParsing:
    def test_parse_with_note(self):
        t = parse_table("# header\n\nk1\tO1+U1+\tkink\nk2\tO1-U1-\n")
        assert t.names() == ["k1", "k2"]
        assert t.by_name["k1"].note == "kink"
        assert t.by_name["k2"].note == ""

    def test_missing_tab(self):
        with pytest.raises(ValueError, match=r"<string>:2: expected name<TAB>code"):
            parse_table("k1\tO1+U1+\njunk line\n")

    def test_bad_code_reports_line(self):
        with pytest.raises(ValueError, match=r"mytable:1: bad Gauss code"):
            parse_table("k1\tZ9?\n", source="mytable")

    def test_duplicate_name(self):
        with pytest.raises(ValueError, match="duplicate knot name 'k1'"):
            parse_table("k1\tO1+U1+\nk1\tO1-U1-\n")

    def test_duplicate_name_reports_line_of_the_repeat(self):
        with pytest.raises(ValueError, match=r"^mytable:3: duplicate knot name 'k1'$"):
            parse_table("k1\tO1+U1+\n# note\nk1\tO1-U1-\n", source="mytable")

    def test_load_table_roundtrip(self, table, tmp_path):
        path = tmp_path / "knots.tsv"
        lines = [f"{e.name}\t{e.diagram}" for e in table]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        again = load_table(path)
        assert again.names() == table.names()
        assert all(again.get(n) == table.get(n) for n in table.names())

    def test_bundled_path_exists(self):
        assert bundled_path("knots_upto4.tsv").is_file()
        assert bundled_table() is bundled_table()


class TestOrientationVariants:
    def test_four_variants_in_order(self):
        d = parse_gauss_code("O1+U2-U1+O2-")
        vs = orientation_variants(d)
        assert vs[0] == d
        assert vs[1] == d.reversed()
        assert vs[2] == d.mirrored()
        assert vs[3] == d.reversed().mirrored()

    def test_variants_of_symmetric_code_may_coincide(self):
        # The zero-crossing unknot is fixed by every variant map.
        vs = orientation_variants(parse_gauss_code(""))
        assert len(set(vs)) == 1

    def test_variants_are_diagrams_of_same_size(self, table):
        d = table.get("4.1")
        assert [v.n for v in orientation_variants(d)] == [4, 4, 4, 4]
