"""Biquandle axioms, table validation, inverses, and endomorphisms."""

import random
from collections import Counter
from itertools import product

import pytest

from arrowquiver.biquandle import (
    Biquandle,
    BiquandleError,
    Violation,
    load,
    loads,
    parse_endos,
    validate_tables,
)
from arrowquiver.knotdata import bundled_path

TRIVIAL_2 = Biquandle(under=((1, 1), (2, 2)), over=((1, 1), (2, 2)))


class TestValidation:
    def test_bundled_tables_are_biquandles(self, flip2, cyc3, quad4, shift4):
        for b in (flip2, cyc3, quad4, shift4):
            assert validate_tables(b.under, b.over) == []

    def test_row_count_mismatch(self):
        vs = validate_tables(((1, 1), (2, 2)), ((1, 1),))
        assert [v.axiom for v in vs] == ["shape"]

    def test_ragged_row(self):
        vs = validate_tables(((1, 1), (2,)), ((1, 1), (2, 2)))
        assert [v.axiom for v in vs] == ["shape"]
        assert vs[0].witness == (2,)

    def test_out_of_range_entry(self):
        vs = validate_tables(((1, 3), (2, 2)), ((1, 1), (2, 2)))
        assert [v.axiom for v in vs] == ["range"]
        assert vs[0].witness == (1, 3)
        assert "outside 1..2" in vs[0].message

    def test_non_bijective_column(self):
        vs = validate_tables(((1, 1), (1, 2)), ((1, 1), (2, 2)))
        assert all(v.axiom == "B2" for v in vs)
        assert vs[0].witness == (1,)
        assert "not a bijection" in vs[0].message

    def test_every_bad_column_reported(self):
        vs = validate_tables(((1, 1), (1, 1)), ((1, 1), (2, 2)))
        assert [v.witness for v in vs if v.axiom == "B2"] == [(1,), (2,)]

    def test_kink_rule_violation(self):
        # Columns stay bijective but under(2,2)=1 != over(2,2)=2.
        vs = validate_tables(((1, 2), (2, 1)), ((1, 1), (2, 2)))
        assert any(v.axiom == "B1" and v.witness == (2,) for v in vs)

    def test_s_map_not_bijective(self):
        # columns are bijections and B1 holds, but S(1,2) == S(2,1) == (2,2)
        flip = ((1, 2), (2, 1))
        vs = validate_tables(flip, flip)
        assert [(v.axiom, v.witness) for v in vs] == [("B2", ())]
        assert "S(x,y) = (over(y,x), under(x,y)) is not a bijection" in vs[0].message

    def test_yang_baxter_violation(self):
        under = ((1, 1, 1), (2, 2, 2), (3, 3, 3))
        over = ((1, 3, 2), (2, 2, 1), (3, 1, 3))
        vs = validate_tables(under, over)
        assert {v.axiom for v in vs} == {"B3"}
        assert str(vs[0]).startswith("B3 fails at (2, 1, 2): Yang-Baxter fails: ")

    def test_misprinted_table_reports_bad_column(self):
        path = bundled_path("biquandle_cyc3_misprint.txt")
        with pytest.raises(BiquandleError) as exc:
            load(path)
        vs = exc.value.violations
        assert len(vs) == 1
        assert vs[0].axiom == "B2"
        assert vs[0].witness == (3,)
        assert "under column y=3 is (3, 1, 3)" in vs[0].message

    def test_error_message_lists_violations(self):
        err = BiquandleError([Violation("B1", (2,), "mismatch")])
        assert "not a biquandle" in str(err)
        assert "B1 fails at (2,): mismatch" in str(err)

    def test_violation_str_format(self):
        v = Violation("B2", (3,), "under column y=3 is (3, 1, 3), not a bijection")
        assert str(v) == (
            "B2 fails at (3,): under column y=3 is (3, 1, 3), not a bijection"
        )


def _axiom_oracle(under, over) -> list[tuple[str, tuple[int, ...]]]:
    """The (axiom, witness) list of ``validate_tables`` for well-shaped
    tables, from the definitions: B2 by column images, then B1 on the
    diagonal and B2 by the image count of S, then B3 by solving
    over(t, x) == y by search and comparing both sides of Yang-Baxter."""
    n = len(under)
    xs = range(1, n + 1)
    out = [
        ("B2", (y,))
        for table in (under, over)
        for y in xs
        if len({table[x - 1][y - 1] for x in xs}) != n
    ]
    if out:
        return out
    out = [("B1", (x,)) for x in xs if under[x - 1][x - 1] != over[x - 1][x - 1]]
    if len({(over[y - 1][x - 1], under[x - 1][y - 1]) for x in xs for y in xs}) != n * n:
        out.append(("B2", ()))
    if out:
        return out

    gate = {}
    for x, y in product(xs, repeat=2):
        (t,) = [t for t in xs if over[t - 1][x - 1] == y]
        gate[x, y] = t, under[x - 1][t - 1]

    def p12(x, y, z):
        return (*gate[x, y], z)

    def p23(x, y, z):
        return (x, *gate[y, z])

    return [
        ("B3", (x, y, z))
        for x, y, z in product(xs, repeat=3)
        if p12(*p23(*p12(x, y, z))) != p23(*p12(*p23(x, y, z)))
    ]


def _random_tables(rng: random.Random, n: int):
    """Tables on 1..n with bijective columns; one swap within each over
    column puts under(y, y) at over(y, y), so B1 holds."""
    under = [[0] * n for _ in range(n)]
    over = [[0] * n for _ in range(n)]
    for table in (under, over):
        for y in range(n):
            for x, v in enumerate(rng.sample(range(1, n + 1), n)):
                table[x][y] = v
    for y in range(n):
        x = next(x for x in range(n) if over[x][y] == under[y][y])
        over[x][y], over[y][y] = over[y][y], over[x][y]
    return tuple(map(tuple, under)), tuple(map(tuple, over))


class TestAxiomOracle:
    def test_random_tables_match_the_definitions(self):
        rng = random.Random(20261020)
        reached_b3 = violated_b3 = 0
        for _ in range(20000):
            under, over = _random_tables(rng, rng.randint(2, 3))
            expected = _axiom_oracle(under, over)
            got = [(v.axiom, v.witness) for v in validate_tables(under, over)]
            assert got == expected, (under, over)
            reached_b3 += not expected or expected[0][0] == "B3"
            violated_b3 += bool(expected) and expected[0][0] == "B3"
        # both outcomes of the triple point check occur
        assert reached_b3 > violated_b3 > 100, (reached_b3, violated_b3)


class TestOperations:
    def test_flip_operations(self, flip2):
        assert flip2.under_of(1, 1) == 2
        assert flip2.under_of(2, 2) == 1
        assert flip2.over_of(1, 2) == 2
        assert list(flip2.elements) == [1, 2]

    def test_cyclic_operations_ignore_second_argument(self, cyc3):
        for x in cyc3.elements:
            for y in cyc3.elements:
                assert cyc3.under_of(x, y) == cyc3.under_of(x, 1)
                assert cyc3.over_of(x, y) == cyc3.over_of(x, 1)

    def test_inverses_roundtrip(self, flip2, cyc3, quad4, shift4):
        for b in (flip2, cyc3, quad4, shift4):
            for x in b.elements:
                for y in b.elements:
                    v = b.under_of(x, y)
                    assert [w for w in b.elements if b.under_of(w, y) == v] == [x]
                    v = b.over_of(x, y)
                    assert [w for w in b.elements if b.over_of(w, y) == v] == [x]

    def test_gate_bijective(self, quad4):
        # the gate (u_in, o_in) -> (o_out, u_out) is a bijection of X^2
        gate = {(u_in, o_in): (o_out, u_out) for u_in, u_out, o_in, o_out in quad4.crossings}
        assert len(gate) == quad4.n * quad4.n
        assert len(set(gate.values())) == quad4.n * quad4.n

    def test_gate_solves_crossing(self, shift4):
        # each (u_in, u_out, o_in, o_out) satisfies both crossing equations,
        # one tuple per (u_in, o_out) in lexicographic order
        for u_in, u_out, o_in, o_out in shift4.crossings:
            assert shift4.over_of(o_out, u_in) == o_in
            assert shift4.under_of(u_in, o_out) == u_out
        pairs = [(u_in, o_out) for u_in, _, _, o_out in shift4.crossings]
        assert pairs == list(product(shift4.elements, repeat=2))


def respects_both(b, f) -> bool:
    """The pairwise definition of an endomorphism, kept apart from the map
    search that :meth:`Biquandle.is_endomorphism` asks: whether x -> f[x-1]
    commutes with both operation tables."""
    return all(
        f[t[x - 1][y - 1] - 1] == t[f[x - 1] - 1][f[y - 1] - 1]
        for t in (b.under, b.over)
        for x, y in product(b.elements, repeat=2)
    )


class TestEndomorphisms:
    def test_identity_always_endomorphism(self, flip2, cyc3, quad4, shift4):
        for b in (flip2, cyc3, quad4, shift4):
            assert b.is_endomorphism(tuple(b.elements))

    def test_flip_endomorphisms(self, flip2):
        assert flip2.endomorphisms() == [(1, 2), (2, 1)]

    def test_cyclic_endomorphisms_are_rotations(self, cyc3):
        assert cyc3.endomorphisms() == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]

    def test_constant_map_rejected(self, flip2):
        assert not flip2.is_endomorphism((1, 1))

    def test_wrong_length_rejected(self, flip2):
        assert not flip2.is_endomorphism((1,))

    def test_endomorphism_files_match_search(
        self, cyc3, quad4, shift4, endos_cyc3, endos_quad4, endos_shift4
    ):
        assert endos_cyc3 == cyc3.endomorphisms()
        assert endos_quad4 == quad4.endomorphisms()
        assert endos_shift4 == shift4.endomorphisms()

    def test_trivial_biquandle_endos_are_all_maps(self):
        assert TRIVIAL_2.endomorphisms() == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_same_as_the_pairwise_definition(self, flip2, cyc3, quad4, shift4):
        """Every map X -> X of the bundled biquandles (543 maps), then of
        the 38 distinct biquandles among the tables that TestAxiomOracle
        draws."""

        def check(b) -> Counter:
            outcomes = Counter()
            for f in product(b.elements, repeat=b.n):
                expected = respects_both(b, f)
                assert b.is_endomorphism(f) == expected, (b, f)
                outcomes[expected] += 1
            return outcomes

        bundled = sum(map(check, (flip2, cyc3, quad4, shift4)), Counter())
        assert sum(bundled.values()) == 543 and bundled[True] > 0, bundled
        rng = random.Random(20261020)
        drawn = {_random_tables(rng, rng.randint(2, 3)) for _ in range(20000)}
        valid = [Biquandle(*t) for t in sorted(drawn) if not validate_tables(*t)]
        assert len(valid) == 38
        drawn_outcomes = sum(map(check, valid), Counter())
        assert drawn_outcomes[True] > 0 and drawn_outcomes[False] > 0, drawn_outcomes


class TestLoading:
    def test_loads_ignores_comments_and_blanks(self):
        text = "# flip\n\n2\n2 2\n1 1\n\n# over\n2 2\n1 1\n"
        b = loads(text)
        assert b.n == 2
        assert b.under_of(1, 1) == 2

    def test_loads_empty_input(self):
        with pytest.raises(ValueError, match="empty biquandle description"):
            loads("# nothing here\n")

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_loads_rejects_size_below_one(self, size):
        expected = f"size must be a positive integer, found {size}"
        with pytest.raises(ValueError, match=expected):
            loads(f"{size}\n")

    def test_loads_wrong_row_count(self):
        with pytest.raises(ValueError, match="expected 4 table rows, found 3"):
            loads("2\n2 2\n1 1\n2 2\n")

    def test_loads_invalid_tables_raise(self):
        text = "2\n1 1\n2 2\n1 2\n2 1\n"
        with pytest.raises(BiquandleError):
            loads(text)

    def test_load_matches_fixture(self, flip2):
        assert load(bundled_path("biquandle_flip2.txt")) == flip2


class TestParseEndos:
    def test_bundled_files_match_search(self, cyc3, quad4, shift4):
        for b, name in ((cyc3, "cyc3"), (quad4, "quad4"), (shift4, "shift4")):
            text = bundled_path(f"endos_{name}.txt").read_text(encoding="utf-8")
            assert parse_endos(text, b) == b.endomorphisms()

    def test_commas_comments_and_blanks(self, cyc3):
        text = "# rotations\n1,2,3  # identity\n\n3 1 2\n"
        assert parse_endos(text, cyc3) == [(1, 2, 3), (3, 1, 2)]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 x\n", "e.txt:1: not an image vector"),
            ("\n1 2\n", "e.txt:2: expected 3 images in 1..3"),
            ("1 2 4\n", "e.txt:1: expected 3 images in 1..3"),
            ("1 1 2\n", "e.txt:1: [1, 1, 2] is not an endomorphism of the biquandle"),
            ("1 2 3\n1 2 3\n", "e.txt:2: [1, 2, 3] repeats line 1"),
            ("2 3 1\n# again\n2,3,1\n", "e.txt:3: [2, 3, 1] repeats line 1"),
            ("# nothing\n", "e.txt: no endomorphisms found"),
        ],
    )
    def test_bad_input_names_the_line(self, cyc3, text, message):
        with pytest.raises(ValueError) as exc:
            parse_endos(text, cyc3, source="e.txt")
        assert str(exc.value) == message
