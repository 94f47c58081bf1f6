"""Signed Gauss codes, diagram operations, and Reidemeister moves."""

import copy
import dataclasses
import operator
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from arrowquiver import gausscode
from arrowquiver.arrowweight import (
    _r3_template_hosts,
    _random_diagram_of_size,
    _small_hosts,
)
from arrowquiver.gausscode import (
    Endpoint,
    GaussDiagram,
    R1Delete,
    R1Insert,
    R2Delete,
    R2Insert,
    R3Slide,
    apply_move,
    enumerate_moves,
    inverse_move,
    parse_gauss_code,
)
from arrowquiver.homset import chord_colors
from arrowquiver.knotdata import bundled_table, orientation_variants

from conftest import listed_move, spectator_hosts

TREFOIL = "O1+U2+O3+U1+O2+U3+"
R3_HOST = "U1+U2+O1+U3+O2+O3+"


def _writhe(d) -> int:
    """The sum of the crossing signs."""
    return sum(d.sign_of(c) for c in range(1, d.n + 1))


def _outcome(f, d, move):
    """None if ``f(d, move)`` returns, else the type and message it raises."""
    try:
        f(d, move)
    except Exception as err:
        return type(err), str(err)
    return None


def _refused(d, move):
    """``apply_move`` and ``inverse_move`` both refuse ``move`` on ``d`` as
    a deletion or slide that is not listed for ``d``."""
    message = f"{move!r} does not apply to {str(d)!r}"
    for call in (apply_move, inverse_move):
        assert _outcome(call, d, move) == (ValueError, message), call


class TestParsing:
    def test_round_trip(self):
        for code in ("", "O1+U1+", TREFOIL, "O1+O2+U1+U2+"):
            assert str(parse_gauss_code(code)) == code

    def test_separators_allowed(self):
        assert str(parse_gauss_code("O1+, U2-\nU1+ O2-")) == "O1+U2-U1+O2-"

    def test_empty_code_is_unknot(self):
        d = parse_gauss_code("")
        assert d.n == 0
        assert d.num_semiarcs == 1

    def test_bad_token(self):
        with pytest.raises(ValueError, match="bad Gauss code near 'X1\\+'"):
            parse_gauss_code("O1+X1+")

    def test_repeated_passage(self):
        with pytest.raises(ValueError, match="chord 1 visited twice as O"):
            parse_gauss_code("O1+O1+")

    def test_missing_passage(self):
        with pytest.raises(ValueError, match="chord 1 lacks an O or U passage"):
            parse_gauss_code("O1+U2+O2+")

    def test_mismatched_signs(self):
        with pytest.raises(ValueError, match="chord 1 has mismatched signs"):
            parse_gauss_code("O1+U1-")

    def test_labels_must_be_dense(self):
        with pytest.raises(ValueError, match=r"chord labels must be 1..n"):
            parse_gauss_code("O2+U2+")


class TestDiagram:
    def test_basic_properties(self):
        d = parse_gauss_code(TREFOIL)
        assert d.n == 3
        assert d.num_semiarcs == 6
        assert _writhe(d) == 3
        assert d.index_of(2, "U") == 1
        assert d.sign_of(3) == 1

    def test_lookup_errors(self):
        d = parse_gauss_code("O1+U1+")
        with pytest.raises(KeyError):
            d.index_of(2, "O")
        with pytest.raises(KeyError):
            d.sign_of(2)

    def test_crossing_pairs(self):
        assert parse_gauss_code(TREFOIL).crossing_pairs() == [(1, 2), (1, 3), (2, 3)]
        assert parse_gauss_code("O1+O2+U1+U2+").crossing_pairs() == [(1, 2)]
        assert parse_gauss_code("O1+U1+O2+U2+").crossing_pairs() == []

    def test_rotation(self):
        d = parse_gauss_code("O1+O2+U1+U2+")
        assert str(d.rotated(1)) == "O2+U1+U2+O1+"
        assert d.rotated(4) == d
        assert d.rotated(-1) == d.rotated(3)

    def test_reversal_and_mirror(self):
        d = parse_gauss_code("O1+U2-U1+O2-")
        assert str(d.reversed()) == "O2-U1+U2-O1+"
        assert str(d.mirrored()) == "U1-O2+O1-U2+"
        assert d.reversed().reversed() == d
        assert d.mirrored().mirrored() == d
        assert _writhe(d.mirrored()) == -_writhe(d)

    def test_canonical_code_ignores_rotation_and_labels(self):
        d = parse_gauss_code(TREFOIL)
        for k in range(6):
            assert d.rotated(k).canonical_code() == d.canonical_code()
        relabeled = parse_gauss_code("O3+U1+O2+U3+O1+U2+")
        assert relabeled.canonical_code() == d.canonical_code()

    def test_canonical_code_separates_knots(self):
        assert (
            parse_gauss_code(TREFOIL).canonical_code()
            != parse_gauss_code("O1+O2+U1+U2+").canonical_code()
        )

    def test_endpoint_str(self):
        assert str(Endpoint(3, "U", -1)) == "U3-"

    def test_canonical_code_matches_a_diagram_per_rotation(self):
        """The code read from rotated words against the old definition,
        which built and printed a relabeled diagram per rotation.  From 10
        chords on, string order and not label order picks the least
        rotation (``U10`` sorts before ``U9``), and one input shows it."""

        def reference(d):
            return min(
                str(d.rotated(k)._relabeled())
                for k in range(max(1, len(d.endpoints)))
            )

        def by_label(d):
            ends = d.endpoints
            words = [
                gausscode._relabel(ends[k:] + ends[:k])
                for k in range(max(1, len(ends)))
            ]
            least = min(words, key=lambda w: [(e.passage, e.chord, -e.sign) for e in w])
            return "".join(map(str, least))

        rng = random.Random(20261021)
        # random rotations rarely agree long enough for a label of two
        # digits to meet one of one digit; in this chain of kinks with two
        # chord ends swapped, two rotations tie until one reads U10 where
        # the other reads U9, and the string order takes U10
        chain = parse_gauss_code(
            "U1+O2+U2+O3+U3+O4+U4+O5+U5+O6+U6+O7+U7+O8+U8+O9+U9+O10+U11+O11+U10+"
            "O12+U12+O1+"
        )
        randoms = [_random_diagram_of_size(rng, rng.randint(0, 14)) for _ in range(300)]
        sizes = set()
        string_order_decides = 0
        for d in [chain] + randoms:
            code = d.canonical_code()
            assert code == reference(d), str(d)
            sizes.add(d.n)
            string_order_decides += code != by_label(d)
        assert sizes == set(range(15))
        assert string_order_decides > 0


class TestR1:
    def test_insert_orders(self):
        d = parse_gauss_code("O1+U1+")
        assert str(apply_move(d, R1Insert(2, False, -1))) == "O1+U1+O2-U2-"
        assert str(apply_move(d, R1Insert(2, True, -1))) == "O1+U1+U2-O2-"
        assert str(apply_move(d, R1Insert(0, False, 1))) == "O2+U2+O1+U1+"

    def test_insert_gap_out_of_range(self):
        # a gap is an int: 1.0 and True name gap 1 but are refused
        for gap in (3, -1, 1.0, True):
            with pytest.raises(ValueError, match="R1 gap out of range"):
                apply_move(parse_gauss_code("O1+U1+"), R1Insert(gap, False, 1))

    def test_delete(self):
        d = parse_gauss_code("O1+U2-O2-U1+")
        assert str(apply_move(d, R1Delete(1))) == "O1+U1+"

    def test_delete_across_basepoint(self):
        d = parse_gauss_code("O1+U2+O2+U1+")
        assert str(apply_move(d, R1Delete(3))) == "U1+O1+"

    def test_delete_at_negative_index(self):
        _refused(parse_gauss_code("O1+U2+O2+U1+"), R1Delete(-1))

    def test_delete_requires_kink(self):
        _refused(parse_gauss_code("O1+U2+O2+U1+"), R1Delete(0))


class TestR2:
    def test_insert_parallel_and_antiparallel(self):
        d = parse_gauss_code("O1+U1+")
        par = apply_move(d, R2Insert(0, 2, False, 1))
        assert str(par) == "O2+O3-O1+U1+U2+U3-"
        anti = apply_move(d, R2Insert(0, 2, True, 1))
        assert str(anti) == "O2+O3-O1+U1+U3-U2+"

    def test_insert_same_gap(self):
        d = parse_gauss_code("")
        assert str(apply_move(d, R2Insert(0, 0, False, -1))) == "O1-O2+U1-U2+"
        assert str(apply_move(d, R2Insert(0, 0, True, -1))) == "O1-O2+U2+U1-"

    @pytest.mark.parametrize("gaps", [(0, 3), (-1, 0), (3, 3), (1.0, 2), (1.5, 2), (0, True)])
    def test_insert_gap_out_of_range(self, gaps):
        with pytest.raises(ValueError, match="R2 gap out of range"):
            apply_move(parse_gauss_code("O1+U1+"), R2Insert(*gaps, False, 1))

    def test_delete(self):
        d = parse_gauss_code("O2+O3-O1+U1+U2+U3-")
        assert str(apply_move(d, R2Delete(0, 4, False))) == "O1+U1+"

    def test_delete_rejects_overlap(self):
        _refused(parse_gauss_code("O1+O2-U1+U2-"), R2Delete(0, 1, False))

    def test_delete_rejects_equal_signs(self):
        _refused(parse_gauss_code("O1+O2+U1+U2+"), R2Delete(0, 2, False))

    def test_delete_rejects_passage_mismatch(self):
        _refused(parse_gauss_code("O1+U2-U1+O2-"), R2Delete(0, 2, False))


class TestR3:
    def test_slide_left_to_right(self):
        d = parse_gauss_code(R3_HOST)
        move = R3Slide((0, 2, 4), "L", (1, 2, 3), 1)
        assert str(apply_move(d, move)) == "U2+U1+U3+O1+O3+O2+"

    def test_slide_is_involutive_via_inverse(self):
        d = parse_gauss_code(R3_HOST)
        move = R3Slide((0, 2, 4), "L", (1, 2, 3), 1)
        d2 = apply_move(d, move)
        assert apply_move(d2, inverse_move(d, move)) == d

    def test_slide_rejects_wrong_sites(self):
        _refused(parse_gauss_code(R3_HOST), R3Slide((0, 2, 4), "R", (1, 2, 3), 1))
        slid = parse_gauss_code("U2+U1+U3+O1+O3+O2+")
        _refused(slid, R3Slide((0, 2, 4), "X", (1, 2, 3), 1))

    def test_slide_rejects_mixed_signs(self):
        _refused(parse_gauss_code("U1+U2-O1+U3+O2-O3+"), R3Slide((0, 2, 4), "L", (1, 2, 3), 1))

    def test_found_in_enumeration(self):
        d = parse_gauss_code(R3_HOST)
        slides = [m for m in enumerate_moves(d) if isinstance(m, R3Slide)]
        assert R3Slide((0, 2, 4), "L", (1, 2, 3), 1) in slides

    def test_move_applies_as_the_listed_instance_it_equals(self):
        # sites given as a list equal no listed slide, whose sites are a
        # tuple, and cannot be hashed: refused like any unlisted move
        d = parse_gauss_code(R3_HOST)
        _refused(d, R3Slide([0, 2, 4], "L", (1, 2, 3), 1))
        # a start of 0.0 equals the listed 0, and is applied and inverted as it
        kink = parse_gauss_code("O1+U1+O2+U2+")
        assert apply_move(kink, R1Delete(0.0)) == apply_move(kink, R1Delete(0))
        assert inverse_move(kink, R1Delete(0.0)) == inverse_move(kink, R1Delete(0))


class TestBlockStarts:
    """A deletion or slide with a block outside the passages is a ValueError,
    both to apply and to invert."""

    @pytest.mark.parametrize(
        "code, move",
        [
            ("", R1Delete(0)),
            ("", R2Delete(0, 2, False)),
            ("", R3Slide((0, 2, 4), "L", (1, 2, 3), 1)),
            ("O1+U1+", R1Delete(5)),
            ("O1+U1+", R2Delete(0, 9, False)),
            ("O1+U1+", R2Delete(-1, 0, True)),
            (R3_HOST, R3Slide((0, 2, 40), "L", (1, 2, 3), 1)),
            # -2 names passage 4 from the end: a slide that used to apply
            (R3_HOST, R3Slide((0, 2, -2), "L", (1, 2, 3), 1)),
        ],
    )
    def test_out_of_range_start(self, code, move):
        _refused(parse_gauss_code(code), move)

    def test_random_moves_raise_value_error_or_give_a_diagram(self):
        rng = random.Random(20261019)
        applied = raised = 0
        for _ in range(4000):
            d = _random_diagram_of_size(rng, rng.randint(0, 4))
            n, two_n = d.n, len(d.endpoints)

            def index():
                return rng.randint(-2, two_n + 2)

            sign, flag = rng.choice((1, -1)), rng.random() < 0.5
            move = rng.choice(
                [
                    lambda: R1Insert(index(), flag, sign),
                    lambda: R1Delete(index()),
                    lambda: R2Insert(index(), index(), flag, sign),
                    lambda: R2Delete(index(), index(), flag),
                    lambda: R3Slide(
                        (index(), index(), index()),
                        rng.choice("LR"),
                        tuple(rng.sample(range(1, n + 2), 3)) if n >= 2 else (1, 2, 3),
                        sign,
                    ),
                ]
            )()
            try:
                d2 = apply_move(d, move)
            except ValueError:
                raised += 1
                continue
            applied += 1
            assert d2 == GaussDiagram(d2.endpoints), (str(d), move)
            back = apply_move(d2, inverse_move(d, move))
            assert back.canonical_code() == d.canonical_code(), (str(d), move)
        assert applied > 500 and raised > 500


# the cases of TestBlockStarts: blocks that start outside the passages
_BAD_STARTS = TestBlockStarts.test_out_of_range_start.pytestmark[0].args[1]


class TestInverseChecks:
    """``inverse_move`` raises exactly when ``apply_move`` raises, with the
    same exception type and message."""

    @pytest.mark.parametrize(
        "code, move, message",
        [
            (
                "O1+O2+U1+U2+",
                R1Delete(0),
                "R1Delete(start=0) does not apply to 'O1+O2+U1+U2+'",
            ),
            (
                "O1+O2+U1+U2+",
                R2Delete(0, 2, False),
                "R2Delete(over_start=0, under_start=2, antiparallel=False)"
                " does not apply to 'O1+O2+U1+U2+'",
            ),
            (
                "O1+O2+U1+U2+",
                R3Slide((0, 1, 2), "L", (1, 2, 3), 1),
                "R3Slide(sites=(0, 1, 2), form='L', chords=(1, 2, 3), eps=1)"
                " does not apply to 'O1+O2+U1+U2+'",
            ),
            ("O1+O2+U1+U2+", R1Insert(9, False, 1), "R1 gap out of range"),
            ("O1+O2+U1+U2+", R1Insert(-1, True, 1), "R1 gap out of range"),
            ("O1+O2+U1+U2+", R2Insert(0, 9, True, 1), "R2 gap out of range"),
            (
                R3_HOST,
                R3Slide((0, 2, 4), "X", (1, 2, 3), 1),
                "R3Slide(sites=(0, 2, 4), form='X', chords=(1, 2, 3), eps=1)"
                f" does not apply to {R3_HOST!r}",
            ),
        ],
    )
    def test_moves_that_do_not_match(self, code, move, message):
        d = parse_gauss_code(code)
        assert _outcome(apply_move, d, move) == (ValueError, message)
        assert _outcome(inverse_move, d, move) == (ValueError, message)

    @pytest.mark.parametrize("flag", ["no", 1, 0.0, None])
    def test_insertion_flags_must_be_bools(self, flag):
        # read as truthy, R1Insert(0, "no", 1) would insert a [U O] kink and
        # R2Insert(0, 2, "no", 1) an antiparallel pair
        d = parse_gauss_code("O1+U1+")
        for move, message in (
            (R1Insert(0, flag, 1), f"R1 head_first must be a bool, got {flag!r}"),
            (R2Insert(0, 2, flag, 1), f"R2 antiparallel must be a bool, got {flag!r}"),
        ):
            assert _outcome(apply_move, d, move) == (ValueError, message)
            assert _outcome(inverse_move, d, move) == (ValueError, message)

    def test_unknown_move(self):
        d = parse_gauss_code(TREFOIL)
        assert _outcome(inverse_move, d, "R1") == _outcome(apply_move, d, "R1") == (
            TypeError,
            "unknown move 'R1'",
        )

    def test_random_moves(self):
        """Moves of all five kinds on 0-6 chords: a listed move, as it is or
        with one field redrawn, or a move with every field drawn, from in
        range and out of range, after the cases of TestBlockStarts.  Three
        in ten diagrams are slide hosts, and three in ten carry an R2 pair
        just inserted, so that deletions and slides are listed too."""
        for code, move in _BAD_STARTS:
            d = parse_gauss_code(code)
            expected = _outcome(apply_move, d, move)
            assert expected is not None and _outcome(inverse_move, d, move) == expected
        rng = random.Random(20261020)
        kinds = (R1Insert, R1Delete, R2Insert, R2Delete, R3Slide)
        hosts = spectator_hosts()
        outcomes = Counter()
        for _ in range(3000):
            shape = rng.random()
            if shape < 0.3:
                d = rng.choice(hosts)
            elif shape < 0.6:
                d = _random_diagram_of_size(rng, rng.randint(0, 4))
                d = apply_move(d, rng.choice([m for m in enumerate_moves(d) if type(m) is R2Insert]))
            else:
                d = _random_diagram_of_size(rng, rng.randint(0, 6))
            two_n = len(d.endpoints)

            def index():
                return rng.randint(-3, two_n + 3)

            def flag():
                return rng.random() < 0.5

            def sign():
                return rng.choice((1, -1, 1, -1, 0, 2))

            # every other field is a gap or a start: an index
            draw = {
                "head_first": flag,
                "antiparallel": flag,
                "sign": sign,
                "eps": sign,
                "sites": lambda: (index(), index(), index()),
                "form": lambda: rng.choice("LLRRX"),
                "chords": lambda: tuple(rng.randint(0, d.n + 2) for _ in range(3)),
            }

            def value(field):
                return draw.get(field.name, index)()

            kind = rng.choice(kinds)
            listed = [m for m in enumerate_moves(d) if type(m) is kind]
            fields = dataclasses.fields(kind)
            if listed and rng.random() < 0.6:
                move = rng.choice(listed)
                if rng.random() < 0.5:
                    field = rng.choice(fields)
                    move = dataclasses.replace(move, **{field.name: value(field)})
            else:
                move = kind(*(value(f) for f in fields))
            expected = _outcome(apply_move, d, move)
            assert _outcome(inverse_move, d, move) == expected, (str(d), move)
            outcomes[kind, expected is None] += 1
        for kind in kinds:
            assert outcomes[kind, True] > 50 and outcomes[kind, False] > 50, outcomes


class TestEnumeration:
    def test_unknot_moves(self):
        moves = enumerate_moves(parse_gauss_code(""))
        assert moves == [
            R1Insert(0, False, 1),
            R1Insert(0, False, -1),
            R1Insert(0, True, 1),
            R1Insert(0, True, -1),
            R2Insert(0, 0, True, 1),
            R2Insert(0, 0, False, 1),
            R2Insert(0, 0, True, -1),
            R2Insert(0, 0, False, -1),
        ]

    def test_deletions_found(self):
        d = parse_gauss_code("O1+U2-O2-U1+")
        moves = enumerate_moves(d)
        assert R1Delete(1) in moves
        assert not any(isinstance(m, R2Delete) for m in moves)
        d = parse_gauss_code("O2+O3-O1+U1+U2+U3-")
        assert R2Delete(0, 4, False) in enumerate_moves(d)

    def test_every_move_applies(self):
        for code in ("", "O1+U1+", "O1+O2+U1+U2+", R3_HOST):
            d = parse_gauss_code(code)
            for move in enumerate_moves(d):
                apply_move(d, move)

    def test_inverse_round_trips(self):
        for code in ("", "O1-U1-", "O1+O2+U1+U2+", "O1+U2-U1+O2-", R3_HOST):
            d = parse_gauss_code(code)
            for move in enumerate_moves(d):
                d2 = apply_move(d, move)
                back = apply_move(d2, inverse_move(d, move))
                assert back.canonical_code() == d.canonical_code(), (code, move)


def _brute_force_moves(d):
    """The enumerator as it was before deletions were matched by lookup,
    sharing no code with the matcher or with ``apply_move``: every R2
    deletion is a pattern check over all index pairs, and R3 slides come
    from a triple scan over passage pairs."""
    moves = []
    two_n = len(d.endpoints)
    gaps = range(two_n + 1) if two_n else [0]
    for g in gaps:
        for head_first in (False, True):
            for sign in (1, -1):
                moves.append(R1Insert(g, head_first, sign))
    for go in gaps:
        for gu in gaps:
            for sign in (1, -1):
                moves.append(R2Insert(go, gu, True, sign))
                moves.append(R2Insert(go, gu, False, sign))
    if not two_n:
        return moves
    for i in range(two_n):
        j = (i + 1) % two_n
        if j != i and d.endpoints[i].chord == d.endpoints[j].chord:
            moves.append(R1Delete(i))
    ends = d.endpoints
    for i in range(two_n):
        oa, ob = ends[i], ends[(i + 1) % two_n]
        for j in range(two_n):
            for anti in (True, False):
                # an [Oa Ob] block of opposite signs, and the U block [Ub Ua]
                # (antiparallel) or [Ua Ub] (parallel); an O passage of either
                # chord is in no U block, so the two blocks cannot overlap
                u1, u2 = ends[j], ends[(j + 1) % two_n]
                ua, ub = (u2, u1) if anti else (u1, u2)
                if (
                    (oa.passage, ob.passage, ua.passage, ub.passage) == ("O", "O", "U", "U")
                    and (oa.chord, ob.chord) == (ua.chord, ub.chord)
                    and oa.sign == -ob.sign
                ):
                    moves.append(R2Delete(i, j, anti))
    moves.extend(_brute_force_slides(d))
    return moves


def _brute_force_slides(d):
    two_n = len(d.endpoints)

    def block(s):
        return d.endpoints[s], d.endpoints[(s + 1) % two_n]

    found = []
    for sa in range(two_n):
        a1, a2 = block(sa)
        for form in ("L", "R"):
            if (a1.passage, a2.passage) != ("U", "U"):
                continue
            x, y = (a1.chord, a2.chord) if form == "L" else (a2.chord, a1.chord)
            if x == y:
                continue
            eps = a1.sign
            if a2.sign != eps:
                continue
            for sb in range(two_n):
                b1, b2 = block(sb)
                if form == "L":
                    if (b1.passage, b1.chord) != ("O", x):
                        continue
                    if b2.passage != "U" or b2.chord in (x, y):
                        continue
                    z = b2.chord
                else:
                    if (b2.passage, b2.chord) != ("O", x):
                        continue
                    if b1.passage != "U" or b1.chord in (x, y):
                        continue
                    z = b1.chord
                if d.sign_of(z) != eps:
                    continue
                for sc in range(two_n):
                    c1, c2 = block(sc)
                    want = (("O", y), ("O", z)) if form == "L" else (("O", z), ("O", y))
                    if ((c1.passage, c1.chord), (c2.passage, c2.chord)) != want:
                        continue
                    idx = []
                    for s in (sa, sb, sc):
                        idx.extend([s, (s + 1) % two_n])
                    if len(set(idx)) != 6:
                        continue
                    found.append(R3Slide((sa, sb, sc), form, (x, y, z), eps))
    return found


def _assert_same_moves(d):
    got = enumerate_moves(d)
    assert list(map(repr, got)) == list(map(repr, _brute_force_moves(d))), str(d)
    return got


def _wraps(d, move):
    """Whether a deletion or slide uses the block (2n - 1, 0)."""
    last = len(d.endpoints) - 1
    if isinstance(move, R1Delete):
        return move.start == last
    if isinstance(move, R2Delete):
        return last in (move.over_start, move.under_start)
    return last in move.sites


def _reductions(ends):
    """How many R1 deletions, and parallel and antiparallel R2 deletions,
    the deletion matcher finds in ``ends``."""
    return Counter(
        (type(mv).__name__, getattr(mv, "antiparallel", None))
        for mv in gausscode._deletions(ends)
        if isinstance(mv, (R1Delete, R2Delete))
    )


class TestReducibility:
    """Whether a diagram has an R1 or R2 deletion is a property of its
    rotation class: the knot-table tool tests it before canonicalizing."""

    def test_same_on_every_rotation_and_renumbering(self):
        rng = random.Random(20261020)
        trefoil = parse_gauss_code(TREFOIL)
        # a kink, then a parallel and an antiparallel R2 block, each
        # straddling the basepoint
        built = [apply_move(trefoil, R1Insert(0, True, 1)).rotated(1)] + [
            apply_move(trefoil, R2Insert(0, 3, anti, -1)).rotated(1)
            for anti in (False, True)
        ]
        for d in built:
            assert any(
                _wraps(d, mv)
                for mv in gausscode._deletions(d.endpoints)
                if isinstance(mv, (R1Delete, R2Delete))
            ), str(d)
        randoms = [_random_diagram_of_size(rng, rng.randint(1, 8)) for _ in range(300)]
        seen = set()
        for d in built + randoms:
            found = _reductions(d.endpoints)
            seen.add(bool(found))
            for k in range(len(d.endpoints)):
                rotated = d.rotated(k).endpoints
                assert _reductions(rotated) == found, (str(d), k)
                label = rng.sample(range(1, d.n + 1), d.n)
                renumbered = GaussDiagram(
                    tuple(
                        Endpoint(label[e.chord - 1], e.passage, e.sign)
                        for e in rotated
                    )
                )
                assert _reductions(renumbered.endpoints) == found, (str(d), k, label)
        assert seen == {False, True}


class TestEnumerationOracle:
    """``enumerate_moves`` against the brute-force enumerator, repr for repr
    and in order: seeded scrambles draw from the list by position."""

    def test_table_diagrams(self):
        for entry in bundled_table():
            for d in orientation_variants(entry.diagram):
                _assert_same_moves(d)

    def test_constraint_hosts(self):
        for d in _small_hosts() + _r3_template_hosts(0) + spectator_hosts():
            _assert_same_moves(d)

    def test_random_diagrams_and_scrambles(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(200):
            d = _random_diagram_of_size(rng, rng.randint(0, 6))
            _assert_same_moves(d)
            for _ in range(rng.randint(1, 8)):
                move = listed_move(rng, d)
                if move is None:
                    break
                d = apply_move(d, move)
                for mv in _assert_same_moves(d):
                    if isinstance(mv, (R1Delete, R2Delete, R3Slide)):
                        anti = getattr(mv, "antiparallel", None)
                        form = getattr(mv, "form", None)
                        seen.add((type(mv).__name__, anti, form, _wraps(d, mv)))
        # the inputs reach every pattern, across the basepoint too
        for wraps in (False, True):
            assert ("R1Delete", None, None, wraps) in seen
            for anti in (False, True):
                assert ("R2Delete", anti, None, wraps) in seen
            for form in ("L", "R"):
                assert ("R3Slide", None, form, wraps) in seen

    def test_no_trial_moves(self, monkeypatch):
        host = parse_gauss_code(R3_HOST).endpoints
        rest = _random_diagram_of_size(random.Random(30), 25).endpoints
        word = host + tuple(Endpoint(e.chord + 3, e.passage, e.sign) for e in rest)
        d = apply_move(GaussDiagram(word), R2Insert(20, 41, True, -1))
        assert d.n == 30
        expected = _brute_force_moves(d)
        assert {R2Delete, R3Slide} <= {type(mv) for mv in expected}

        def refuse(*args):
            raise AssertionError("enumerate_moves built a trial diagram")

        monkeypatch.setattr(gausscode, "apply_move", refuse)
        assert enumerate_moves(d) == expected

    def test_returned_list_is_the_callers(self):
        d = parse_gauss_code(R3_HOST)
        moves = enumerate_moves(d)
        expected = list(moves)
        moves[0] = R1Delete(0)
        del moves[1:5]
        moves.append(R1Delete(1))
        assert enumerate_moves(d) == expected
        same_size = parse_gauss_code(TREFOIL)
        assert enumerate_moves(same_size) == _brute_force_moves(same_size)


class TestAcceptedMoves:
    """``apply_move`` accepts exactly the deletions and slides that
    ``enumerate_moves`` lists, and raises ValueError on every other one."""

    def test_every_unlisted_variant_is_refused(self):
        rng = random.Random(20261020)
        diagrams = [_random_diagram_of_size(rng, rng.randint(1, 3)) for _ in range(16)]
        # R2 pairs are rare in random words: poke one into 1-chord diagrams
        for _ in range(8):
            d = _random_diagram_of_size(rng, 1)
            pokes = [mv for mv in enumerate_moves(d) if isinstance(mv, R2Insert)]
            diagrams.append(apply_move(d, rng.choice(pokes)))
        diagrams += _r3_template_hosts(0) + _r3_template_hosts(1)[::8]
        kinds = Counter()
        for d in diagrams:
            two_n = len(d.endpoints)
            starts = range(-1, two_n + 1)
            candidates = [R1Delete(s) for s in starts]
            candidates += [
                R2Delete(i, j, anti) for i in starts for j in starts for anti in (False, True)
            ]
            candidates += [
                R3Slide(sites, form, chords, eps)
                for sites in permutations(range(two_n), 3)
                for form in "LR"
                for chords in permutations(range(1, d.n + 1), 3)
                for eps in (1, -1)
            ]
            accepted = []
            for move in candidates:
                try:
                    apply_move(d, move)
                except ValueError:
                    continue
                accepted.append(move)
            listed = [mv for mv in enumerate_moves(d) if not isinstance(mv, (R1Insert, R2Insert))]
            assert sorted(accepted, key=repr) == sorted(listed, key=repr), str(d)
            kinds.update(type(mv).__name__ for mv in accepted)
        assert kinds.keys() == {"R1Delete", "R2Delete", "R3Slide"}, kinds


def _same_as_validated(d) -> None:
    """``d`` equals, and hashes like, the diagram its word builds through
    the checked constructor."""
    checked = GaussDiagram(d.endpoints)
    assert d == checked, str(d)
    assert hash(d) == hash(checked), str(d)


class TestTrustedConstruction:
    """Moves and word transforms build their diagrams without the check of
    ``GaussDiagram.__post_init__``; what they build must be what it allows."""

    def test_every_listed_move_gives_a_checked_diagram(self):
        rng = random.Random(20261019)
        diagrams = [_random_diagram_of_size(rng, chords) for chords in range(7) for _ in range(2)]
        # deletions and slides are rare on random words: add words that have them
        diagrams += [apply_move(d, R2Insert(1, 2, False, 1)) for d in diagrams[2:8]]
        diagrams += _r3_template_hosts(0) + spectator_hosts()[::8]
        applied = Counter()
        for d in diagrams:
            for move in enumerate_moves(d):
                _same_as_validated(apply_move(d, move))
                applied[type(move).__name__] += 1
        assert set(applied) == {"R1Insert", "R1Delete", "R2Insert", "R2Delete", "R3Slide"}, applied
        assert min(applied.values()) >= 8, applied

    def test_word_transforms_give_checked_diagrams(self):
        rng = random.Random(20261020)
        for chords in range(7):
            for _ in range(5):
                d = _random_diagram_of_size(rng, chords)
                for k in range(-1, len(d.endpoints) + 2):
                    _same_as_validated(d.rotated(k))
                for derived in (d.reversed(), d.mirrored(), d._relabeled()):
                    _same_as_validated(derived)
                # a word whose labels _relabeled changes
                _same_as_validated(d.rotated(1)._relabeled())

    def test_insert_with_a_bad_sign_still_names_the_endpoint(self):
        d = parse_gauss_code("O1+U1+")
        message = r"^malformed endpoint Endpoint\(chord=2, passage='{}', sign={}\)$"
        with pytest.raises(ValueError, match=message.format("O", 2)):
            apply_move(d, R1Insert(0, False, 2))
        # the first new passage in the word is named, as the checked
        # constructor named it: here the U block at gap 0
        with pytest.raises(ValueError, match=message.format("U", 0)):
            apply_move(d, R2Insert(2, 0, False, 0))

    @pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
    def test_non_int_chords_and_signs_are_malformed(self, bad):
        """A float or bool equals an int label or sign, but a word holding
        one is refused with the passage named as given, not compiled."""
        message = r"^malformed endpoint Endpoint\(chord={}, passage='{}', sign={}\)$"
        with pytest.raises(ValueError, match=message.format(bad, "O", 1)):
            GaussDiagram((Endpoint(bad, "O", 1), Endpoint(bad, "U", 1)))
        with pytest.raises(ValueError, match=message.format(1, "O", bad)):
            GaussDiagram((Endpoint(1, "O", bad), Endpoint(1, "U", bad)))
        # the move engine builds its passages from the move's sign
        d = parse_gauss_code("O1+U1+")
        with pytest.raises(ValueError, match=message.format(2, "O", bad)):
            apply_move(d, R1Insert(0, False, bad))
        with pytest.raises(ValueError, match=message.format(2, "U", bad)):
            apply_move(d, R2Insert(2, 0, False, bad))

    def test_hash_is_cached_and_equal_for_equal_words(self):
        d = apply_move(parse_gauss_code(TREFOIL), R1Insert(2, True, -1))
        assert hash(d) == hash(d) == hash(parse_gauss_code(str(d)))
        assert "_hash" in d.__dict__
        assert {d: 1}[parse_gauss_code(str(d))] == 1

    def test_pickled_diagram_hashes_alike_under_another_hash_seed(self, tmp_path):
        """A pickle holds only the word, so a diagram loaded in a process
        whose string hashes differ hashes like one built there."""
        d = apply_move(parse_gauss_code(TREFOIL), R2Insert(1, 4, False, 1))
        hash(d)
        d.compiled
        assert "_hash" in d.__dict__ and "compiled" not in d.__dict__
        path = tmp_path / "moved.pickle"
        path.write_bytes(pickle.dumps(d))
        script = (
            "import pickle, sys\n"
            "from arrowquiver.gausscode import GaussDiagram\n"
            "loaded = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = GaussDiagram(loaded.endpoints)\n"
            "assert set(loaded.__dict__) == {'endpoints'}, loaded.__dict__\n"
            "assert hash(loaded) == hash(fresh)\n"
            "assert {fresh: 'found'}[loaded] == 'found'\n"
            "print(hash(loaded), str(loaded))\n"
        )
        src = str(Path(gausscode.__file__).resolve().parents[1])
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        # the hash is read from integers only, so it is the same everywhere
        assert outs[0] == outs[1] == f"{hash(d)} {d}\n"


class TestSharedEndpoints:
    """Well-formed passages are one shared instance per value; every other
    value is built anew and reads as it was given."""

    def test_well_formed_passages_are_shared(self):
        for chord in (1, 2, 17, gausscode._SHARED_LABELS):
            for passage in ("O", "U"):
                for sign in (1, -1):
                    e = Endpoint(chord, passage, sign)
                    assert Endpoint(chord, passage, sign) is e
                    assert Endpoint(chord=chord, passage=passage, sign=sign) is e
        one, two = parse_gauss_code(TREFOIL), parse_gauss_code(TREFOIL).mirrored().mirrored()
        assert all(map(operator.is_, one.endpoints, two.endpoints))
        moved = apply_move(one, R2Insert(1, 4, False, 1))
        assert moved.endpoints[1] is Endpoint(4, "O", 1)

    @pytest.mark.parametrize(
        "values",
        [
            (1.0, "O", 1),
            (True, "O", 1),
            (1, "O", True),
            (1, "U", -1.0),
            (gausscode._SHARED_LABELS + 1, "O", 1),
            (0, "U", 1),
            (-2, "U", -1),
            (1, "X", 1),
            (1, "O", 2),
            (1, "O", 0),
        ],
    )
    def test_other_values_are_built_fresh(self, values):
        e, again = Endpoint(*values), Endpoint(*values)
        assert e is not again
        assert e == again and hash(e) == hash(again) == hash(values)
        chord, passage, sign = values
        assert repr(e) == f"Endpoint(chord={chord!r}, passage={passage!r}, sign={sign!r})"
        assert (type(e.chord), type(e.sign)) == (type(chord), type(sign))
        # a float or bool equal to a well-formed value is not mapped onto it
        if 0 < chord <= gausscode._SHARED_LABELS and sign in (1, -1) and passage in ("O", "U"):
            shared = Endpoint(int(chord), passage, int(sign))
            assert e is not shared and e == shared

    def test_dataclass_behaviour_is_kept(self):
        e = Endpoint(3, "U", -1)
        assert [f.name for f in dataclasses.fields(e)] == ["chord", "passage", "sign"]
        assert repr(e) == "Endpoint(chord=3, passage='U', sign=-1)"
        assert hash(e) == hash((3, "U", -1))
        assert dataclasses.replace(e, sign=1) is Endpoint(3, "U", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.sign = 1

    def test_copies_are_the_shared_instances(self):
        d = parse_gauss_code(TREFOIL)
        for e in d.endpoints:
            assert copy.copy(e) is e
            assert copy.deepcopy(e) is e
            assert pickle.loads(pickle.dumps(e)) is e
        assert all(map(operator.is_, copy.deepcopy(d).endpoints, d.endpoints))
        fresh = Endpoint(1.0, "O", 1)
        assert copy.deepcopy(fresh) is not fresh and copy.deepcopy(fresh) == fresh

    def test_pickled_passages_are_shared_under_another_hash_seed(self, tmp_path):
        d = parse_gauss_code(TREFOIL)
        path = tmp_path / "word.pickle"
        path.write_bytes(pickle.dumps((d.endpoints, d)))
        script = (
            "import pickle, sys\n"
            "from arrowquiver.gausscode import Endpoint, parse_gauss_code\n"
            "ends, d = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "built = parse_gauss_code(sys.argv[2]).endpoints\n"
            "assert all(e is f for e, f in zip(ends, built)), ends\n"
            "assert all(e is f for e, f in zip(d.endpoints, built)), d\n"
            "assert all(Endpoint(e.chord, e.passage, e.sign) is e for e in ends)\n"
            "print(hash(d), str(d))\n"
        )
        src = str(Path(gausscode.__file__).resolve().parents[1])
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", script, str(path), TREFOIL],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1] == f"{hash(d)} {d}\n"

    def test_the_shared_table_stays_within_its_bound(self):
        bound = gausscode._SHARED_LABELS
        n = bound + 44
        d = parse_gauss_code("".join(f"O{c}+U{c}+" for c in range(1, n + 1)))
        d = apply_move(d, R1Insert(0, True, -1))
        assert d.n == n + 1
        assert len(gausscode._SHARED) <= 4 * bound
        assert max(chord for chord, _, _ in gausscode._SHARED) <= bound
        for e in d.endpoints:
            assert (Endpoint(e.chord, e.passage, e.sign) is e) == (e.chord <= bound)
        _same_as_validated(d)
        assert d.compiled == gausscode._compile(d.endpoints)


def _compile_reference(endpoints) -> gausscode.CompiledDiagram:
    """The compiler as it was written with ``combinations`` and generator
    expressions, with the pair table built as it once was, from the chord
    pairs whose spans interleave: the reference the one-walk compiler must
    match."""
    two_n = len(endpoints)
    n = two_n // 2
    under = [0] * n
    over = [0] * n
    sign = [0] * n
    for i, e in enumerate(endpoints):
        (under if e.passage == "U" else over)[e.chord - 1] = i
        sign[e.chord - 1] = e.sign
    slots = tuple(((u - 1) % two_n, u, (o - 1) % two_n, o) for u, o in zip(under, over))
    kind = tuple((c, (s0 == s3) | (s1 == s2) << 1) for c, (s0, s1, s2, s3) in zip(sign, slots))
    touching = tuple(
        (
            (e.chord - 1, 1 if e.passage == "U" else 3),
            (f.chord - 1, 0 if f.passage == "U" else 2),
        )
        for e, f in zip(endpoints, endpoints[1:] + endpoints[:1])
    )
    spans = [sorted(ends) for ends in zip(under, over)]
    pairs = tuple(
        (p, q)
        for (p, (lo, hi)), (q, (a, b)) in combinations(enumerate(spans), 2)
        if (lo < a < hi) != (lo < b < hi)
    )
    labels = [
        tuple(sl[k] for k in gausscode.LABEL_SLOTS[sg]) for sl, sg in zip(slots, sign)
    ]
    table = []
    for p, q in pairs:
        if under[p] > under[q]:
            p, q = q, p
        table.append((sign[p] * sign[q], *labels[p], *labels[q], under[p], under[q]))
    return gausscode.CompiledDiagram(slots, kind, touching or ((),), tuple(table))


def _compile_oracle_diagrams() -> list[GaussDiagram]:
    """Seeded random words: 5 000 of 0-14 chords, the empty one among them,
    then 1 600 of 15-30 chords."""
    rng = random.Random(20261019)
    words = [_random_diagram_of_size(rng, i % 15) for i in range(5000)]
    return words + [_random_diagram_of_size(rng, 15 + i % 16) for i in range(1600)]


class TestCompileOracle:
    def test_same_tables_as_the_reference(self):
        kinks = 0
        for d in _compile_oracle_diagrams():
            got, expected = gausscode._compile(d.endpoints), _compile_reference(d.endpoints)
            for field in dataclasses.fields(gausscode.CompiledDiagram):
                name = field.name
                assert getattr(got, name) == getattr(expected, name), (str(d), name)
            assert got == expected
            kinks += any(shape for _, shape in got.kind)
        assert kinks > 500, kinks

    def test_fields(self):
        names = [field.name for field in dataclasses.fields(gausscode.CompiledDiagram)]
        assert names == ["slots", "kind", "touching", "pair_table"]

    def test_readers_agree_with_the_word(self):
        for d in _compile_oracle_diagrams()[::10]:
            ends, two_n = d.endpoints, len(d.endpoints)
            at = {(e.chord, e.passage): i for i, e in enumerate(ends)}
            coloring = tuple(range(100, 100 + d.num_semiarcs))
            for chord in range(1, d.n + 1):
                u, o = at[chord, "U"], at[chord, "O"]
                assert d.index_of(chord, "U") == u and d.index_of(chord, "O") == o
                assert d.sign_of(chord) == ends[u].sign
                expected = tuple(coloring[i] for i in ((u - 1) % two_n, u, (o - 1) % two_n, o))
                assert chord_colors(d, coloring, chord) == expected
            # q crosses p when the word between p's passages meets q once
            between = {}
            for chord in range(1, d.n + 1):
                lo, hi = sorted((at[chord, "U"], at[chord, "O"]))
                between[chord] = Counter(e.chord for e in ends[lo + 1 : hi])
            crossing = [
                (p, q) for p, q in combinations(range(1, d.n + 1), 2) if between[p][q] == 1
            ]
            assert d.crossing_pairs() == crossing, str(d)
            for chord in (0, d.n + 1):
                for passage in ("U", "O"):
                    with pytest.raises(KeyError):
                        d.index_of(chord, passage)
                with pytest.raises(KeyError):
                    d.sign_of(chord)
                with pytest.raises(KeyError):
                    chord_colors(d, coloring, chord)
            with pytest.raises(KeyError):
                d.index_of(1, "X")


class TestChordLabels:
    """A chord label is an ``int`` from 1 to n; any other, a float or bool
    equal to one among them, raises KeyError."""

    @pytest.mark.parametrize("chord", [1.0, 2.0, True, False, 1.5, 0, 3])
    def test_readers_refuse(self, chord):
        d = parse_gauss_code("O1+O2+U1+U2+")
        coloring = (1, 2, 3, 4)
        for passage in ("U", "O"):
            with pytest.raises(KeyError):
                d.index_of(chord, passage)
        with pytest.raises(KeyError):
            d.sign_of(chord)
        with pytest.raises(KeyError):
            chord_colors(d, coloring, chord)
