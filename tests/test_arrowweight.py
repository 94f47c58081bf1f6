"""Arrow weight tensors, weight sums, and the validity machinery."""

import copy
import hashlib
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, product
from math import gcd

import numpy as np
import pytest

from arrowquiver import arrowweight, gausscode, homset
from arrowquiver.arrowweight import (
    ConstraintSystem,
    SolutionSet,
    WeightTensor,
    _basepoints,
    _check_rotations,
    _difference_row,
    _integer_rows,
    _pair_terms,
    _r3_template_hosts,
    _random_diagram_of_size,
    _rotation_rows_at,
    _small_hosts,
    generate_constraints,
    is_valid_weight,
    search_weights,
    sigma_coefficients,
    sigma_D,
    solve_constraints,
    weight_multiset,
)
from arrowquiver.biquandle import Biquandle, validate_tables
from arrowquiver.gausscode import (
    R1Delete,
    R1Insert,
    R2Insert,
    R3Slide,
    apply_move,
    enumerate_moves,
    parse_gauss_code,
)
from arrowquiver.homset import (
    arrow_label,
    enumerate_colorings,
    transport_coloring,
    transport_colorings,
)
from arrowquiver.quiver import build_quiver

from conftest import listed_move, spectator_hosts

VIRTUAL_HOPF = parse_gauss_code("O1+O2+U1+U2+")


def asymmetric_tensor() -> WeightTensor:
    """An invalid Z_2 tensor that distinguishes the two slots of a pair."""
    entries = [0] * 16
    entries[WeightTensor.slot(2, 2, 1, 1, 2)] = 1
    return WeightTensor(2, 2, tuple(entries))


def random_z16_tensor() -> WeightTensor:
    """A seeded random two-element tensor over Z_16; not a valid weight."""
    rng = random.Random(0)
    return WeightTensor(2, 16, tuple(rng.randrange(16) for _ in range(16)))


def no_constraints(b, m: int) -> ConstraintSystem:
    return ConstraintSystem(b.n, m, [])


class TestTensor:
    def test_slot_is_row_major(self):
        assert WeightTensor.slot(2, 1, 1, 1, 1) == 0
        assert WeightTensor.slot(2, 1, 1, 1, 2) == 1
        assert WeightTensor.slot(2, 2, 2, 2, 2) == 15
        assert WeightTensor.slot(3, 1, 2, 3, 1) == 15

    def test_get(self, w16):
        assert w16.get((1, 1), (1, 2)) == 4
        assert w16.get((1, 2), (2, 1)) == 8

    @pytest.mark.parametrize(
        "first, second, bad",
        [
            ((0, 1), (1, 1), (0, 1)),
            ((1, 3), (1, 1), (1, 3)),
            ((1, 1), (2, -1), (2, -1)),
            ((1, 1), (True, 1), (True, 1)),
            ((1.0, 1), (1, 1), (1.0, 1)),
        ],
    )
    def test_get_rejects_a_label_outside_1_to_n(self, w16, first, second, bad):
        """A 0 would wrap to a negative index and a 3 alias into the next
        row, both reading the entry of ((2, 1), (1, 1)); each is refused,
        naming the label."""
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r} is not a pair of ints")):
            w16.get(first, second)

    def test_entry_count_checked(self):
        with pytest.raises(ValueError, match="wrong number of tensor entries"):
            WeightTensor(2, 4, (0, 1))

    def test_entry_range_checked(self):
        with pytest.raises(ValueError, match="entries must lie in 0..3"):
            WeightTensor(1, 4, (7,))

    @pytest.mark.parametrize("m", [0, -3])
    def test_modulus_checked(self, m):
        with pytest.raises(ValueError, match=f"^modulus must be a positive integer, got {m}$"):
            WeightTensor(1, m, (0,))

    @pytest.mark.parametrize(
        "n, m, entries, message",
        [
            (2, 16.0, (0,) * 16, "^modulus must be a positive integer, got 16.0$"),
            (1, True, (0,), "^modulus must be a positive integer, got True$"),
            (2.0, 16, (0,) * 16, "^wrong number of tensor entries$"),
            (True, 16, (0,), "^wrong number of tensor entries$"),
            (2, 16, (1.5,) + (0,) * 15, r"^entries must lie in 0\.\.15$"),
            (2, 16, (2.0,) + (0,) * 15, r"^entries must lie in 0\.\.15$"),
            (1, 4, (True,), r"^entries must lie in 0\.\.3$"),
        ],
    )
    def test_only_ints_accepted(self, n, m, entries, message):
        # a float tensor would give float weight sums
        with pytest.raises(ValueError, match=message):
            WeightTensor(n, m, entries)

    @pytest.mark.parametrize(
        "n, entries",
        [(0, ()), (-1, (0,)), (-2, (0,) * 16)],
    )
    def test_size_checked(self, n, entries):
        # (-1)^4 == 1 and 0^4 == 0: the entry count alone lets these through
        with pytest.raises(ValueError, match=f"^size must be a positive integer, got {n}$"):
            WeightTensor(n, 4, entries)

    @pytest.mark.parametrize("entries", [[0], range(1), b"\x00"], ids=["list", "range", "bytes"])
    def test_entries_must_be_a_tuple(self, entries):
        # a list would construct and then raise TypeError at its first hash
        name = type(entries).__name__
        with pytest.raises(ValueError, match=f"^entries must be a tuple, got {name}$"):
            WeightTensor(1, 4, entries)

    def test_is_zero(self, w16):
        assert not any(WeightTensor(1, 4, (0,)).entries)
        assert any(w16.entries)

    def test_dumps_loads_roundtrip(self, w16, w8, w6):
        for w in (w16, w8, w6):
            assert WeightTensor.loads(w.dumps()) == w

    def test_loads_reduces_mod_m(self):
        assert WeightTensor.loads("4\n1\n7\n").entries == (3,)

    def test_loads_row_count_error(self):
        with pytest.raises(ValueError, match="expected 4 tensor rows, found 2"):
            WeightTensor.loads("16\n2\n0 0 0 0\n0 0 0 0\n")

    def test_loads_row_length_error(self):
        with pytest.raises(ValueError, match="tensor row has wrong length"):
            WeightTensor.loads("16\n1\n0 0\n")


class TestWeightSums:
    def test_virtual_hopf_terms(self, w16):
        terms = _pair_terms(VIRTUAL_HOPF.compiled, (1, 2, 1, 2), w16.n)
        pairs = VIRTUAL_HOPF.crossing_pairs()
        assert [(pq, t[0] * w16.entries[t[1]] % w16.m) for pq, t in zip(pairs, terms)] == [
            ((1, 2), 8)
        ]

    def test_virtual_hopf_sigma(self, w16):
        assert sigma_D(w16, VIRTUAL_HOPF, (1, 2, 1, 2)) == 8
        assert sigma_D(w16, VIRTUAL_HOPF, (2, 1, 2, 1)) == 8

    @pytest.mark.parametrize(
        "coloring, message",
        [
            ((0,) * 6, "color 0 is not an int from 1 to 3"),
            ((4,) * 6, "color 4 is not an int from 1 to 3"),
            ((1,) * 5 + (True,), "color True is not an int"),
            ((1.0,) * 6, "color 1.0 is not an int"),
            ((1,) * 5, "a tuple of 6 colors"),
            ((1,) * 7, "a tuple of 6 colors"),
            ([1] * 6, "a tuple of 6 colors"),
        ],
        ids=["zero", "past_n", "bool", "float", "short", "long", "list"],
    )
    def test_sigma_rejects_what_is_not_shaped_as_a_coloring(self, w8, coloring, message):
        # a color of 0 once read the tensor at a negative index, which wraps
        d = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
        with pytest.raises(ValueError, match=message):
            sigma_D(w8, d, coloring)

    def test_multiset_pins(self, flip2, w16, cyc3, w8):
        assert weight_multiset(flip2, w16, VIRTUAL_HOPF) == (8, 8)
        assert weight_multiset(cyc3, w8, VIRTUAL_HOPF) == (4, 4, 4)

    @pytest.mark.parametrize("b, w", [("flip2", "w8"), ("cyc3", "w16")])
    def test_tensor_over_another_biquandle_rejected(self, request, b, w):
        b, w = request.getfixturevalue(b), request.getfixturevalue(w)
        message = f"^tensor is over {w.n} elements but the biquandle has {b.n}$"
        for compute in (weight_multiset, build_quiver):
            with pytest.raises(ValueError, match=message):
                compute(b, w, VIRTUAL_HOPF)

    def test_no_crossing_pairs_means_zero(self, flip2, w16):
        kinks = parse_gauss_code("O1+U1+O2+U2+")
        assert set(weight_multiset(flip2, w16, kinks)) == {0}

    def test_rotation_check_passes_for_valid_tensor(self, flip2, w16):
        for c in ((1, 2, 1, 2), (2, 1, 2, 1)):
            _check_rotations(w16, VIRTUAL_HOPF.compiled, c)
            assert sigma_D(w16, VIRTUAL_HOPF, c) == 8

    def test_rotation_check_detects_basepoint_dependence(self):
        with pytest.raises(ValueError, match="depends on the basepoint"):
            _check_rotations(asymmetric_tensor(), VIRTUAL_HOPF.compiled, (1, 2, 1, 2))


class TestConstraints:
    def test_flip_mod2_solution_count(self, flip2):
        assert solve_constraints(generate_constraints(flip2, 2)).count() == 8

    def test_flip_mod16_contains_bundled_tensor(self, flip2, w16):
        sols = solve_constraints(generate_constraints(flip2, 16))
        assert sols.count() == 32
        assert sols.contains(w16.entries)

    def test_zero_always_solves(self, flip2, cyc3):
        for b, m in ((flip2, 16), (cyc3, 8)):
            sols = solve_constraints(generate_constraints(b, m))
            assert sols.contains((0,) * b.n**4)

    def test_solutions_satisfy_system(self, flip2):
        system = generate_constraints(flip2, 2)
        for values in solve_constraints(system):
            assert not system.violated(WeightTensor(flip2.n, 2, values))

    def test_violated_rejects_a_tensor_of_another_shape(self, flip2, w8):
        system = generate_constraints(flip2, 16)
        for w in (w8, WeightTensor(2, 8, (0,) * 16)):
            with pytest.raises(ValueError, match="^tensor shape does not match the system$"):
                system.violated(w)

    def test_solutions_closed_under_addition(self, flip2):
        sols = solve_constraints(generate_constraints(flip2, 2))
        found = list(sols)
        for a in found[:4]:
            for b in found[:4]:
                s = tuple((x + y) % 2 for x, y in zip(a, b))
                assert sols.contains(s)


class TestSearch:
    def test_lex_order_and_zero_first(self, flip2):
        found = [w.entries for w in search_weights(flip2, 2)]
        assert len(found) == 8
        assert found[0] == (0,) * 16
        assert found == sorted(found)

    def test_limit(self, flip2):
        assert len(list(search_weights(flip2, 16, limit=5))) == 5

    def test_negative_limit_named(self, flip2):
        with pytest.raises(ValueError, match="^limit must be a non-negative integer, got -1$"):
            list(search_weights(flip2, 2, limit=-1))

    def test_nontrivial_drops_vanishing_tensors(self, flip2):
        found = list(search_weights(flip2, 2, nontrivial=True))
        assert len(found) == 4
        assert all(any(w.entries) for w in found)

    @staticmethod
    def _seen_by_a_probe(b, m) -> list:
        """The tensors of search_weights(b, m), in order, with a nonzero
        weight sum, read from the definition, on some coloring of a probe."""
        probes = [parse_gauss_code(code) for code in arrowweight._PROBE_CODES]
        colored = [(d, enumerate_colorings(b, d)) for d in probes]
        return [
            w
            for w in search_weights(b, m)
            if any(_sum_by_definition(w, d, c) for d, cs in colored for c in cs)
        ]

    @pytest.mark.parametrize("name, m", [("flip2", 16), ("flip2", 2), ("cyc3", 3)])
    def test_nontrivial_keeps_the_tensors_a_probe_sees(self, request, name, m):
        b = request.getfixturevalue(name)
        assert list(search_weights(b, m, nontrivial=True)) == self._seen_by_a_probe(b, m)

    def test_nontrivial_limit_keeps_the_first_tensors_a_probe_sees(self, flip2):
        want = self._seen_by_a_probe(flip2, 16)
        assert len(want) > 5
        for limit in (0, 1, 5):
            found = list(search_weights(flip2, 16, limit=limit, nontrivial=True))
            assert found == want[:limit]

    def test_modulus_one_leaves_only_zero(self, flip2):
        found = list(search_weights(flip2, 1))
        assert [w.entries for w in found] == [(0,) * 16]

    def test_results_are_valid(self, cyc3):
        for w in search_weights(cyc3, 2, limit=3, nontrivial=True):
            assert is_valid_weight(cyc3, w, trials=2)


class TestValidity:
    def test_bundled_tensor_valid(self, flip2, w16):
        report = is_valid_weight(flip2, w16, trials=3)
        assert report
        assert report.valid
        assert report.violated_rows == ()
        assert report.failed_trial is None

    def test_invalid_tensor_short_circuits(self, flip2):
        report = is_valid_weight(flip2, asymmetric_tensor())
        assert not report
        assert report.violated_rows

    def test_dimension_mismatch(self, cyc3, w16):
        report = is_valid_weight(cyc3, w16)
        assert not report
        assert report.failed_trial == {"error": "dimension mismatch"}

    def test_negative_trials_named(self, flip2, w16):
        with pytest.raises(ValueError, match="^trials must be a non-negative integer, got -1$"):
            is_valid_weight(flip2, w16, trials=-1)

    def test_failed_trial_names_the_basepoint_error(self, monkeypatch, flip2):
        # without constraint rows, only the randomized trials can reject
        monkeypatch.setattr(arrowweight, "generate_constraints", no_constraints)
        report = is_valid_weight(flip2, asymmetric_tensor())
        assert not report
        assert report.violated_rows == ()
        trial = report.failed_trial
        assert set(trial) == {"trial", "seed", "diagram", "move", "coloring", "error"}
        assert trial["error"] == "weight sum depends on the basepoint (rotation 3)"
        d = parse_gauss_code(trial["diagram"])
        assert tuple(trial["coloring"]) in enumerate_colorings(flip2, d)

    def test_failed_trial_names_before_and_after(self, monkeypatch, flip2):
        monkeypatch.setattr(arrowweight, "generate_constraints", no_constraints)
        report = is_valid_weight(flip2, random_z16_tensor(), seed=1)
        assert not report
        assert report.violated_rows == ()
        trial = report.failed_trial
        assert set(trial) == {"trial", "seed", "diagram", "move", "coloring", "before", "after"}
        assert trial["seed"] == 1
        assert (trial["before"], trial["after"]) == (0, 12)
        d = parse_gauss_code(trial["diagram"])
        assert sigma_D(random_z16_tensor(), d, tuple(trial["coloring"])) == 0
        assert report.to_json()["failed_trial"] == trial

    def test_report_to_json(self, flip2):
        report = is_valid_weight(flip2, asymmetric_tensor())
        data = report.to_json()
        assert data["valid"] is False
        assert data["violated_rows"] == list(report.violated_rows)
        assert data["failed_trial"] is None


def _nonzero(row: dict[int, int]) -> dict[int, int]:
    return {s: c for s, c in row.items() if c}


def _oracle_diagrams() -> list:
    """The constraint hosts plus seeded random diagrams of up to 6 chords."""
    rng = random.Random(20261018)
    randoms = [_random_diagram_of_size(rng, rng.randint(0, 6)) for _ in range(100)]
    return _small_hosts() + _r3_template_hosts(0) + randoms


class TestEvaluatorOracles:
    """The per-pair evaluator against definitions evaluated the long way."""

    def test_crossing_pairs_are_interleaving_chords(self):
        rng = random.Random(7)
        for _ in range(200):
            d = _random_diagram_of_size(rng, rng.randint(0, 9))
            where = {}
            for i, e in enumerate(d.endpoints):
                where.setdefault(e.chord, []).append(i)
            brute = []
            for p, q in combinations(range(1, d.n + 1), 2):
                lo, hi = sorted(where[p])
                inside = sum(lo < i < hi for i in where[q])
                if inside == 1:
                    brute.append((p, q))
            assert d.crossing_pairs() == brute, str(d)

    def test_coefficients_match_labels_and_under_order(self, quad4):
        """sigma_D read straight from arrow_label and the under-passage rule."""
        n = quad4.n
        for d in _oracle_diagrams():
            for c in enumerate_colorings(quad4, d):
                brute: dict[int, int] = {}
                for p, q in d.crossing_pairs():
                    if d.index_of(p, "U") > d.index_of(q, "U"):
                        p, q = q, p
                    la, lb = arrow_label(d, c, p), arrow_label(d, c, q)
                    slot = WeightTensor.slot(n, *la, *lb)
                    brute[slot] = brute.get(slot, 0) + d.sign_of(p) * d.sign_of(q)
                assert sigma_coefficients(d.compiled, c, n) == brute, (str(d), c)

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_rotation_rows_match_rebuilt_diagrams(self, request, name):
        b = request.getfixturevalue(name)
        n = b.n
        checked = 0
        for d in _oracle_diagrams():
            two_n = len(d.endpoints)
            for c in enumerate_colorings(b, d):
                rows = _rotation_rows_at(_pair_terms(d.compiled, c, n), range(two_n - 1))
                assert len(rows) == max(0, two_n - 1)
                base = sigma_coefficients(d.compiled, c, n)
                for k in range(1, two_n):
                    rebuilt = sigma_coefficients(d.rotated(k).compiled, c[k:] + c[:k], n)
                    want = _nonzero(_difference_row(base, rebuilt))
                    assert _nonzero(rows[k - 1]) == want, (str(d), c, k)
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_rows_off_the_basepoints_repeat_the_row_before(self, request, name):
        b = request.getfixturevalue(name)
        n = b.n
        skipped = 0
        for d in _oracle_diagrams():
            two_n = len(d.endpoints)
            kept = _basepoints(d.compiled)
            assert kept[0] == 0 and kept == sorted(set(kept))
            assert all(d.endpoints[i].passage == "U" for i in kept[1:]), str(d)
            for c in enumerate_colorings(b, d):
                rows = _rotation_rows_at(_pair_terms(d.compiled, c, n), range(two_n - 1))
                for i in range(1, two_n - 1):
                    if i not in kept:
                        assert rows[i] == rows[i - 1], (str(d), c, i)
                        skipped += 1
        assert skipped > 400

    def test_basepoints_of_diagrams_without_pairs(self):
        for code in ("", "O1+U1+", "U1-O1-"):
            assert _basepoints(parse_gauss_code(code).compiled) == [0]

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_rotation_check_matches_rotation_rows(self, request, name):
        """The basepoint check against every rotation row, all 2n - 1 of
        them, evaluated at w: the same first failing rotation, or the same
        sum when none fails."""
        b = request.getfixturevalue(name)
        n = b.n
        rng = random.Random(name)
        outcomes = {"passed": 0, "first": 0, "later": 0}
        for d in _oracle_diagrams():
            m = rng.choice((2, 3, 4, 6))
            density = rng.choice((0.02, 0.1, 1.0))
            entries = tuple(
                rng.randrange(m) if rng.random() < density else 0 for _ in range(n**4)
            )
            w = WeightTensor(n, m, entries)
            for c in enumerate_colorings(b, d):
                rows = _rotation_rows_at(_pair_terms(d.compiled, c, n), range(len(d.endpoints) - 1))
                failing = [
                    k
                    for k, row in enumerate(rows, start=1)
                    if sum(v * entries[s] for s, v in row.items()) % m
                ]
                if failing:
                    with pytest.raises(ValueError) as err:
                        _check_rotations(w, d.compiled, c)
                    want = f"weight sum depends on the basepoint (rotation {failing[0]})"
                    assert str(err.value) == want, (str(d), c)
                    outcomes["first" if failing[0] == 1 else "later"] += 1
                else:
                    total = sum(v * entries[s] for s, v in sigma_coefficients(d.compiled, c, n).items())
                    _check_rotations(w, d.compiled, c)
                    assert sigma_D(w, d, c) == total % m
                    outcomes["passed"] += 1
        assert min(outcomes.values()) >= 5, outcomes

    def test_rotation_error_names_the_first_failing_rotation(self, flip2):
        d = parse_gauss_code("U1+O2+O1+U3+U2+O3+")
        c = (2, 1, 2, 1, 2, 1)
        entries = [0] * 16
        entries[WeightTensor.slot(2, 1, 1, 2, 1)] = 1
        w = WeightTensor(2, 2, tuple(entries))
        base = sigma_D(w, d, c)
        rebuilt = [
            sigma_D(w, d.rotated(k), c[k:] + c[:k]) for k in range(1, len(d.endpoints))
        ]
        # rotations 1-3 agree with the basepoint; rotation 4 is the first not to
        assert rebuilt.index(next(t for t in rebuilt if t != base)) + 1 == 4
        with pytest.raises(ValueError, match=r"basepoint \(rotation 4\)$"):
            _check_rotations(w, d.compiled, c)


def _per_coloring_rows(b) -> list[dict[int, int]]:
    """Every constraint row, in generation order and not deduplicated, built
    the long way: the moved diagram and the transport once per coloring."""
    n = b.n
    rows = []

    def move_rows(d, moves):
        for move in moves:
            d2 = apply_move(d, move)
            for c in enumerate_colorings(b, d):
                after = sigma_coefficients(d2.compiled, transport_coloring(b, d, move, c), n)
                rows.append(_difference_row(sigma_coefficients(d.compiled, c, n), after))

    def rotation_rows(d):
        if len(d.endpoints) >= 4:
            for c in enumerate_colorings(b, d):
                rows.extend(_rotation_rows_at(_pair_terms(d.compiled, c, n), range(len(d.endpoints) - 1)))

    for d in _small_hosts():
        move_rows(d, enumerate_moves(d))
        rotation_rows(d)
    for d in _r3_template_hosts(0) + spectator_hosts():
        move_rows(d, [mv for mv in enumerate_moves(d) if isinstance(mv, R3Slide)])
        rotation_rows(d)
    return rows


def _r2_key(d, move, c) -> tuple:
    """(gaps coincide, sign, color at gap_over, color at gap_under): the color
    at gap g is that of old semiarc g - 1 mod 2n, or of semiarc 0 on the
    empty diagram."""
    two_n = len(d.endpoints)
    x, y = (c[(g - 1) % two_n] if two_n else c[0] for g in (move.gap_over, move.gap_under))
    return move.gap_over == move.gap_under, move.sign, x, y


@lru_cache(maxsize=4)
def _r2_insert_rows(b) -> list[tuple]:
    """(host, move, coloring, moved diagram, image, row) for every R2 insert
    on every small host and every coloring, the row built the long way."""
    n = b.n
    out = []
    for d in _small_hosts():
        for move in enumerate_moves(d):
            if not isinstance(move, R2Insert):
                continue
            d2 = apply_move(d, move)
            for c in enumerate_colorings(b, d):
                c2 = transport_coloring(b, d, move, c)
                row = _difference_row(sigma_coefficients(d.compiled, c, n), sigma_coefficients(d2.compiled, c2, n))
                out.append((d, move, c, d2, c2, _nonzero(row)))
    return out


class TestConstraintRowsOracle:
    """Rows built once per biquandle against rows built per coloring."""

    MODULI = {"flip2": (16, 2), "cyc3": (8, 3), "quad4": (6,), "shift4": (4,)}

    @pytest.mark.parametrize("name", MODULI)
    def test_rows_match_per_coloring_generator(self, request, name):
        b = request.getfixturevalue(name)
        rows = _per_coloring_rows(b)
        for m in self.MODULI[name]:
            expected = ConstraintSystem(b.n, m, rows).rows
            assert generate_constraints(b, m).rows == expected, m

    @pytest.mark.parametrize("coefficients", [(2, 2, 1, 0), (1, 1, 2, 0)], ids=["R3", "affine"])
    def test_rows_match_per_coloring_generator_off_the_bundle(self, coefficients):
        """Two biquandles on Z_3 that no fixture uses: under(x, y) = a x + b y
        and over(x, y) = c x + d y.  (2, 2, 1, 0) is the dihedral quandle R_3,
        under(x, y) = 2y - x; (1, 1, 2, 0) is not a quandle."""
        a, b_, c, d = coefficients
        under = tuple(tuple((a * x + b_ * y) % 3 or 3 for y in (1, 2, 3)) for x in (1, 2, 3))
        over = tuple(tuple((c * x + d * y) % 3 or 3 for y in (1, 2, 3)) for x in (1, 2, 3))
        assert validate_tables(under, over) == []
        b = Biquandle(under, over)
        rows = _per_coloring_rows(b)
        for m in (3, 4):
            assert generate_constraints(b, m).rows == ConstraintSystem(b.n, m, rows).rows, m

    # SHA-256 of each biquandle's integer rows, in order, one "slot:coefficient"
    # line per row, recorded before R2 inserts were skipped
    ROW_DIGESTS = {
        "flip2": (117, "9db9af5d318c4b2d23df923ff8e583481d331affa670f4f140467f9257de5d5a"),
        "cyc3": (447, "bff13f8620fa3413f1d25422146bd2afa7515e911e6172a4019d39afe764c3d4"),
        "quad4": (587, "a10dd98a86835c69dbd6d576f53f7518a8294fa9bbc4c12fc51584cff07b5ada"),
        "shift4": (612, "86608b1202eb6b6d60d85e79378c66d057cb24b96d0ece230980a456a2d3d26d"),
    }

    @pytest.mark.parametrize("name", ROW_DIGESTS)
    def test_integer_rows_match_the_recorded_digest(self, request, name):
        rows = _integer_rows(request.getfixturevalue(name))
        text = "\n".join(" ".join(f"{s}:{c}" for s, c in sorted(r.items())) for r in rows)
        assert (len(rows), hashlib.sha256(text.encode()).hexdigest()) == self.ROW_DIGESTS[name]

    def test_new_modulus_reuses_the_integer_rows(self, monkeypatch, cyc3):
        def refuse(*args):
            raise AssertionError("rows were rebuilt")

        expected = generate_constraints(cyc3, 3).rows
        _integer_rows(cyc3)
        generate_constraints.cache_clear()
        for module in (gausscode, homset):
            monkeypatch.setattr(module, "_moved", refuse)
        monkeypatch.setattr(homset, "_solve_middles", refuse)
        assert generate_constraints(cyc3, 3).rows == expected

    @pytest.mark.parametrize("name", MODULI)
    def test_rotation_row_repeats_across_an_o_passage(self, request, name):
        """The lemma behind adding fewer rotation rows: no pair term has an
        under-passage at an O passage k, so rotation row k + 1 equals row k."""
        b = request.getfixturevalue(name)
        n = b.n
        hosts = _small_hosts() + _r3_template_hosts(0) + spectator_hosts()
        repeats = 0
        for d in hosts:
            for c in enumerate_colorings(b, d):
                rows = _rotation_rows_at(_pair_terms(d.compiled, c, n), range(len(d.endpoints) - 1))
                for k in range(1, len(d.endpoints) - 1):
                    if d.endpoints[k].passage == "O":
                        assert rows[k] == rows[k - 1], (str(d), c, k)
                        repeats += 1
        assert repeats > 500

    @pytest.mark.parametrize("name", MODULI)
    def test_r1_moves_give_zero_rows(self, request, name):
        """The lemma behind skipping R1 moves: a kink's chord interleaves no
        chord and transport keeps every other color, so sigma is unchanged."""
        b = request.getfixturevalue(name)
        n = b.n
        checked = 0
        for d in _small_hosts():
            for move in enumerate_moves(d):
                if not isinstance(move, (R1Insert, R1Delete)):
                    continue
                d2 = apply_move(d, move)
                for c in enumerate_colorings(b, d):
                    after = sigma_coefficients(d2.compiled, transport_coloring(b, d, move, c), n)
                    row = _difference_row(sigma_coefficients(d.compiled, c, n), after)
                    assert _nonzero(row) == {}, (str(d), move, c)
                    checked += 1
        assert checked > 100

    def test_integer_rows_carry_no_r1_move(self, monkeypatch, cyc3):
        expected = _integer_rows(cyc3)
        kinds = set()
        transport = arrowweight._transport

        def recorded(b, d, move, colorings):
            kinds.add(type(move))
            return transport(b, d, move, colorings)

        monkeypatch.setattr(arrowweight, "_transport", recorded)
        _integer_rows.cache_clear()
        assert _integer_rows(cyc3) == expected
        assert R2Insert in kinds and R3Slide in kinds
        assert not kinds & {R1Insert, R1Delete}

    @pytest.mark.parametrize("name", MODULI)
    def test_antiparallel_r2_inserts_give_zero_rows(self, request, name):
        """The new chords are nested, and every old chord interleaves both or
        neither with its under passage on the same side of both, so all
        their terms cancel."""
        b = request.getfixturevalue(name)
        anti = [row for _, move, *_, row in _r2_insert_rows(b) if move.antiparallel]
        assert len(anti) > 100
        assert all(r == {} for r in anti)

    @pytest.mark.parametrize("name", MODULI)
    def test_parallel_r2_inserts_give_one_entry_rows(self, request, name):
        """Only the term of the new pair is left: +1 at (label(a), label(b)),
        and on two gaps the two labels are one label L."""
        b = request.getfixturevalue(name)
        two_gap = 0
        for d, move, c, d2, c2, row in _r2_insert_rows(b):
            if move.antiparallel:
                continue
            la, lb = arrow_label(d2, c2, d.n + 1), arrow_label(d2, c2, d.n + 2)
            assert row == {WeightTensor.slot(b.n, *la, *lb): 1}, (str(d), move, c)
            if move.gap_over != move.gap_under:
                assert la == lb, (str(d), move, c)
                two_gap += 1
        assert two_gap > 100

    @pytest.mark.parametrize("name", MODULI)
    def test_parallel_r2_row_depends_only_on_the_key(self, request, name):
        b = request.getfixturevalue(name)
        by_key: dict[tuple, dict[int, int]] = {}
        checked = 0
        for d, move, c, _, _, row in _r2_insert_rows(b):
            if not move.antiparallel:
                assert by_key.setdefault(_r2_key(d, move, c), row) == row, (str(d), move, c)
                checked += 1
        # one gap: x == y, and the empty host gives every (sign, x)
        assert {k for k in by_key if k[0]} == {
            (True, s, x, x) for s in (1, -1) for x in b.elements
        }
        assert checked > len(by_key)

    @pytest.mark.parametrize("name", MODULI)
    def test_integer_rows_carry_each_parallel_r2_key_once(self, monkeypatch, request, name):
        b = request.getfixturevalue(name)
        expected = _integer_rows(b)
        antiparallel, keys = [], []
        transport = arrowweight._transport

        def recorded(b, d, move, colorings):
            if isinstance(move, R2Insert):
                if move.antiparallel:
                    antiparallel.append(move)
                keys.extend(_r2_key(d, move, c) for c in colorings)
            return transport(b, d, move, colorings)

        monkeypatch.setattr(arrowweight, "_transport", recorded)
        _integer_rows.cache_clear()
        assert _integer_rows(b) == expected
        assert not antiparallel
        assert len(keys) == len(set(keys))
        assert set(keys) == {
            _r2_key(d, move, c)
            for d, move, c, *_ in _r2_insert_rows(b)
            if not move.antiparallel
        }


class TestOneWalkPerHost:
    """The row builder walks each host once: it looks up the host's
    colorings once and lists each coloring's pair terms once, for both its
    move rows and its rotation rows; only the transported images add
    listings, one each."""

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_colorings_and_pair_terms_are_read_once(self, monkeypatch, request, name):
        b = request.getfixturevalue(name)
        looked_up: list = []
        calls = Counter()

        def lookup(b_, d):
            looked_up.append(d)
            return enumerate_colorings(b_, d)

        def pair_terms(cd, c, n):
            calls["pair_terms"] += 1
            return _pair_terms(cd, c, n)

        def transport(b_, d, move, colorings):
            d2, images = homset._transport(b_, d, move, colorings)
            calls["images"] += len(images)
            return d2, images

        monkeypatch.setattr(arrowweight, "enumerate_colorings", lookup)
        monkeypatch.setattr(arrowweight, "_pair_terms", pair_terms)
        monkeypatch.setattr(arrowweight, "_transport", transport)
        rows = _integer_rows.__wrapped__(b)  # cold: past the cache of _integer_rows
        monkeypatch.undo()
        assert rows == _integer_rows(b)
        hosts = _small_hosts() + _r3_template_hosts(0) + _r3_template_hosts(1)
        assert looked_up == hosts
        host_colorings = sum(len(enumerate_colorings(b, d)) for d in hosts)
        assert calls["images"] > 0
        assert calls["pair_terms"] == host_colorings + calls["images"]


def _affine_z3(a, b, c, d) -> Biquandle:
    """The biquandle on Z_3 with under(x, y) = a x + b y, over(x, y) = c x + d y."""
    under = tuple(tuple((a * x + b * y) % 3 or 3 for y in (1, 2, 3)) for x in (1, 2, 3))
    over = tuple(tuple((c * x + d * y) % 3 or 3 for y in (1, 2, 3)) for x in (1, 2, 3))
    return Biquandle(under, over)


def _is_kink(d, chord: int) -> bool:
    """Whether the two passages of ``chord`` are cyclically adjacent."""
    apart = abs(d.index_of(chord, "U") - d.index_of(chord, "O"))
    return apart in (1, len(d.endpoints) - 1)


def _slide_host_rows(b, d) -> set[tuple]:
    """The distinct nonzero slide and rotation rows of one slide host, each
    slide carried by the public transport."""
    n = b.n
    colorings = enumerate_colorings(b, d)
    rows = []
    for move in enumerate_moves(d):
        if isinstance(move, R3Slide):
            d2, images = transport_colorings(b, d, move, colorings)
            for c, c2 in zip(colorings, images):
                after = sigma_coefficients(d2.compiled, c2, n)
                rows.append(_difference_row(sigma_coefficients(d.compiled, c, n), after))
    for c in colorings:
        rows.extend(_rotation_rows_at(_pair_terms(d.compiled, c, n), range(len(d.endpoints) - 1)))
    return {tuple(sorted(_nonzero(r).items())) for r in rows} - {()}


class TestKinkedSpectatorHosts:
    """Slide hosts whose spectator chord is a kink add no constraint row, so
    the generator builds none."""

    BIQUANDLES = ["flip2", "cyc3", "quad4", "shift4", "R3", "affine"]

    def test_spectator_hosts_are_distinct_and_in_first_occurrence_order(self):
        hosts = spectator_hosts()
        assert len(hosts) == 96 and len(set(hosts)) == 96
        assert len(_r3_template_hosts(0)) == 4
        assert sum(_is_kink(d, 4) for d in hosts) == 48
        # the generator lists every placement without a kink, in the same order
        assert _r3_template_hosts(1) == [d for d in hosts if not _is_kink(d, 4)]

    @pytest.mark.parametrize("name", BIQUANDLES)
    def test_kinked_host_rows_are_rows_of_its_bare_host(self, request, name):
        """The lemma behind the skip: deleting the kink (an R1 move) gives the
        bare host of the same sign and arrangement, and every slide and
        rotation row of the kinked host is a row of that bare host."""
        if name == "R3":
            b = _affine_z3(2, 2, 1, 0)
        elif name == "affine":
            b = _affine_z3(1, 1, 2, 0)
        else:
            b = request.getfixturevalue(name)
        bare = {d: _slide_host_rows(b, d) for d in _r3_template_hosts(0)}
        checked = 0
        for d in spectator_hosts():
            if not _is_kink(d, 4):
                continue
            start = min(d.index_of(4, "U"), d.index_of(4, "O"))
            rows = _slide_host_rows(b, d)
            assert rows <= bare[apply_move(d, R1Delete(start))], str(d)
            checked += len(rows)
        assert checked > 100

    def test_integer_rows_carry_no_kinked_spectator_host(self, monkeypatch, cyc3):
        expected = _integer_rows(cyc3)
        carried = []
        transport = arrowweight._transport

        def recorded(b, d, move, colorings):
            if d.n == 4:
                carried.append(d)
            return transport(b, d, move, colorings)

        monkeypatch.setattr(arrowweight, "_transport", recorded)
        _integer_rows.cache_clear()
        assert _integer_rows(cyc3) == expected
        interleaving = [d for d in spectator_hosts() if not _is_kink(d, 4)]
        assert len(interleaving) == 48
        assert list(dict.fromkeys(carried)) == interleaving


class TestModulusLimit:
    def test_counts_multiply_over_coprime_moduli(self, cyc3):
        def count(m):
            return solve_constraints(generate_constraints(cyc3, m)).count()

        assert count(24) == count(8) * count(3)

    def test_counts_multiply_at_a_large_modulus(self, cyc3):
        def count(m):
            return solve_constraints(generate_constraints(cyc3, m)).count()

        m = 2**20 * 3**5
        assert count(m) == count(2**20) * count(3**5)

    @pytest.mark.parametrize("p, q", [(3, 2**31), (2**64, 3**40)])
    def test_counts_multiply_above_the_int64_range(self, cyc3, p, q):
        def count(m):
            return solve_constraints(generate_constraints(cyc3, m)).count()

        assert count(p * q) == count(p) * count(q)

    @pytest.mark.parametrize("m", [0, -2])
    def test_modulus_below_one_rejected(self, flip2, m):
        message = f"modulus must be a positive integer, got {m}"
        with pytest.raises(ValueError, match=message):
            generate_constraints(flip2, m)
        with pytest.raises(ValueError, match=message):
            list(search_weights(flip2, m))
        with pytest.raises(ValueError, match=message):
            SolutionSet(3, m, [{0: 1}])

    def test_limit_zero_yields_nothing(self, flip2):
        assert list(search_weights(flip2, 2, limit=0)) == []


class Int64SolutionSet:
    """A dense numpy int64 elimination, kept as a reference for the sparse
    one: it pivots on the last live row of each column, merges every other
    live row into it with a Bezout pair of its own (the least s in 0..b-1
    with s*a == gcd(a, b) mod b, found by search), and enumerates by trying
    every value of each column against its pivot row."""

    def __init__(self, ncols, m, rows):
        self.ncols, self.m = ncols, m
        self.pivot = {}
        work = []
        for row in rows:
            vec = np.zeros(ncols, dtype=np.int64)
            for s, c in row.items():
                vec[s] = c % m
            if vec.any():
                work.append(vec)
        for col in range(ncols - 1, -1, -1):
            live = [r for r in work if r[col] % m]
            rest = [r for r in work if not r[col] % m]
            if not live:
                work = rest
                continue
            piv = live.pop()
            for other in live:
                a, b = int(piv[col]), int(other[col])
                g = gcd(a, b)
                s = next(s for s in range(b) if (s * a - g) % b == 0)
                t = (g - s * a) // b
                leftover = ((b // g) * piv - (a // g) * other) % m
                piv = (s * piv + t * other) % m
                if leftover.any():
                    rest.append(leftover)
            g = gcd(int(piv[col]), m)
            ann = ((m // g) * piv) % m
            if ann.any():
                rest.append(ann)
            self.pivot[col] = piv
            work = rest
        assert not work

    def count(self):
        total = 1
        for col in range(self.ncols):
            total *= gcd(int(self.pivot[col][col]), self.m) if col in self.pivot else self.m
        return total

    def contains(self, values):
        vec = np.asarray(values, dtype=np.int64)
        return all(int(row @ vec) % self.m == 0 for row in self.pivot.values())

    def __iter__(self):
        m = self.m

        def extend(prefix):
            col = len(prefix)
            if col == self.ncols:
                yield tuple(prefix)
                return
            for v in range(m):
                if col in self.pivot:
                    row = self.pivot[col]
                    if int(row[: col + 1] @ np.asarray(prefix + [v], dtype=np.int64)) % m:
                        continue
                yield from extend(prefix + [v])

        return extend([])


def _brute_force(ncols, m, rows):
    """Every solution of the system, in lexicographic order."""
    grid = np.array(list(product(range(m), repeat=ncols)), dtype=np.int64)
    matrix = np.array([[row.get(k, 0) for k in range(ncols)] for row in rows], dtype=np.int64)
    ok = (grid @ matrix.T % m == 0).all(axis=1) if rows else np.ones(len(grid), bool)
    return [tuple(v) for v in grid[ok].tolist()]


class TestSolverOracles:
    """The sparse Z_m elimination against brute force and the int64 solver."""

    # 1, 3, 5, 7, 16 and 27 come last, so the earlier moduli draw the same systems
    MODULI = (2, 4, 6, 8, 9, 10, 12, 30, 36, 1, 3, 5, 7, 16, 27)

    def test_matches_brute_force(self):
        rng = random.Random(20261018)
        for m in self.MODULI:
            divisors = [d for d in range(1, m) if m % d == 0] or [1]
            for _ in range(12):
                ncols = rng.randint(1, 5)
                while m**ncols > 50_000:
                    ncols -= 1
                rows = [
                    {
                        k: rng.choice(divisors) * rng.randrange(-m, m)
                        for k in range(ncols)
                        if rng.random() < 0.7
                    }
                    for _ in range(rng.randint(0, ncols + 1))
                ]
                sols = SolutionSet(ncols, m, rows)
                expected = _brute_force(ncols, m, rows)
                assert list(sols) == expected, (m, rows)
                assert sols.count() == len(expected), (m, rows)
                assert all(sols.contains(v) for v in expected)
                members = set(expected)
                others = [v for v in product(range(m), repeat=ncols) if v not in members]
                for v in rng.sample(others, min(40, len(others))):
                    assert not sols.contains(v), (m, rows, v)

    def test_mixed_column_mod_6_takes_the_merge_branch(self, monkeypatch):
        calls = []
        real = arrowweight._combine

        def combine(*args):  # only the merge branch combines rows
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(arrowweight, "_combine", combine)
        # column 1 holds 2 and 3, neither of whose gcds with 6 divides the other
        rows = [{0: 2, 1: 2}, {0: 3, 1: 3}, {0: 4, 2: 1}]
        sols = SolutionSet(3, 6, rows)
        assert calls
        expected = _brute_force(3, 6, rows)
        assert list(sols) == expected
        assert sols.count() == len(expected) == 6

    PAIRS = {
        "flip2/16": ("flip2", "w16", 16),
        "flip2/2": ("flip2", "w16", 2),
        "cyc3/8": ("cyc3", "w8", 8),
        "cyc3/3": ("cyc3", "w3", 3),
        "quad4/6": ("quad4", "w6", 6),
        "shift4/4": ("shift4", "w4", 4),
    }

    @pytest.mark.parametrize("pair", PAIRS)
    def test_matches_int64_reference(self, request, pair):
        name, tensor, m = self.PAIRS[pair]
        b = request.getfixturevalue(name)
        w = request.getfixturevalue(tensor)
        system = generate_constraints(b, m)
        sols = solve_constraints(system)
        ref = Int64SolutionSet(b.n**4, m, system.rows)
        assert sols.count() == ref.count()
        assert list(islice(sols, 64)) == list(islice(ref, 64))
        rng = random.Random(pair)
        bundled = tuple(e % m for e in w.entries)
        probes = [bundled, *islice(ref, 64)]
        for _ in range(8):
            probes.append(tuple(rng.randrange(m) for _ in bundled))
            bumped = list(bundled)
            bumped[rng.randrange(len(bumped))] += rng.randrange(1, m)
            probes.append(tuple(bumped))
        answers = [sols.contains(v) for v in probes]
        assert answers == [ref.contains(v) for v in probes]
        assert answers[0] and not all(answers)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_leaves_the_callers_rows_unchanged(self, request, pair):
        """Elimination reduces its own copies in place, never the rows it is
        given (here the rows cached by generate_constraints)."""
        name, _, m = self.PAIRS[pair]
        b = request.getfixturevalue(name)
        rows = generate_constraints(b, m).rows
        before = copy.deepcopy(rows)
        SolutionSet(b.n**4, m, rows)
        assert rows == before

    @pytest.mark.parametrize(
        "rows, column",
        [([{0: 1}, {2: 1, 0: 3}], 2), ([{-1: 1}], -1), ([{0: 1}, {1: 2, 5: 0}], 5)],
    )
    def test_a_column_outside_the_range_is_named(self, rows, column):
        with pytest.raises(ValueError, match=rf"^row names column {column}, outside 0\.\.1$"):
            SolutionSet(2, 4, rows)

    def test_contains_names_the_expected_length(self):
        sols = SolutionSet(4, 6, [{0: 1, 3: 5}])
        with pytest.raises(ValueError, match="expected 4 values, got 3"):
            sols.contains((0, 0, 0))
        with pytest.raises(ValueError, match="expected 4 values, got 5"):
            sols.contains((0,) * 5)


class TestTensorHeader:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "modulus must be a positive integer, found nothing"),
            ("0\n1\n0\n", "modulus must be a positive integer, found 0"),
            ("-3\n1\n0\n", "modulus must be a positive integer, found -3"),
            ("4\n", "size must be a positive integer, found nothing"),
            ("4\n0\n", "size must be a positive integer, found 0"),
        ],
    )
    def test_bad_header_names_the_field(self, text, message):
        with pytest.raises(ValueError, match=message):
            WeightTensor.loads(text)


class TestCachedWeightSums:
    """Weight sums come from a cache keyed by (biquandle, tensor, diagram);
    they must equal the sums read coloring by coloring."""

    PAIRS = {
        "flip2/16": ("flip2", "w16"),
        "cyc3/8": ("cyc3", "w8"),
        "cyc3/3": ("cyc3", "w3"),
        "quad4/6": ("quad4", "w6"),
        "shift4/4": ("shift4", "w4"),
    }

    @staticmethod
    def _direct(b, w, d) -> list[int]:
        return [sigma_D(w, d, c) for c in enumerate_colorings(b, d)]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_quiver_weights_and_multiset_equal_direct_sums(self, request, pair):
        name, tensor = self.PAIRS[pair]
        b, w = request.getfixturevalue(name), request.getfixturevalue(tensor)
        rng = random.Random(20261019)
        # a second tensor of the same shape, and one equal to w but built anew
        other = WeightTensor(b.n, w.m, tuple(rng.randrange(w.m) for _ in w.entries))
        assert other != w
        again = WeightTensor(w.n, w.m, tuple(w.entries))
        assert again == w and again is not w
        diagrams = [_random_diagram_of_size(rng, rng.randint(0, 5)) for _ in range(12)]
        diagrams.append(apply_move(diagrams[-1], R1Insert(0, True, 1)))
        for d in diagrams:
            # interleaved, so a cache keyed without the tensor answers wrongly
            for t in (w, other, again, other, w):
                sums = self._direct(b, t, d)
                assert list(build_quiver(b, t, d).weights) == sums, (pair, str(d))
                assert weight_multiset(b, t, d) == tuple(sorted(sums)), (pair, str(d))


def _old_trials(b, w, trials, seed) -> arrowweight.ValidityReport:
    """The trial loop of ``is_valid_weight`` one coloring at a time: the
    basepoint check, then both weight sums through ``sigma_D``, with each
    move drawn from the listed moves (``listed_move``)."""
    rng = random.Random(seed)
    for trial in range(trials):
        d = _random_diagram_of_size(rng, rng.randint(0, arrowweight._TRIAL_MAX_CHORDS))
        for _ in range(rng.randint(1, 3)):
            move = listed_move(rng, d)
            if move is None:
                break
            colorings = enumerate_colorings(b, d)
            d2, images = transport_colorings(b, d, move, colorings)
            for c, c2 in zip(colorings, images):
                try:
                    _check_rotations(w, d.compiled, c)
                    before = sigma_D(w, d, c)
                    after = sigma_D(w, d2, c2)
                    mismatch = before != after
                    detail = {"before": before, "after": after}
                except ValueError as err:
                    mismatch = True
                    detail = {"error": str(err)}
                if mismatch:
                    return arrowweight.ValidityReport(
                        False,
                        failed_trial={
                            "trial": trial,
                            "seed": seed,
                            "diagram": str(d),
                            "move": repr(move),
                            "coloring": list(c),
                            **detail,
                        },
                    )
            d = d2
    return arrowweight.ValidityReport(True)


class TestValidityTrialsShareTerms:
    MODULI = {"flip2": (16, 2), "cyc3": (8, 3), "quad4": (6,), "shift4": (4,)}

    @pytest.mark.parametrize("name", MODULI)
    def test_report_matches_the_old_trial_loop(self, monkeypatch, request, name):
        """Without constraint rows every tensor reaches the trials: random
        ones, ones with a single nonzero entry, symmetric ones (no basepoint
        error, so sums are compared) and valid ones must be reported exactly
        as the old loop reports them."""
        b = request.getfixturevalue(name)
        monkeypatch.setattr(arrowweight, "generate_constraints", no_constraints)
        rng = random.Random(20261019)
        kinds = Counter()
        for m in self.MODULI[name]:
            size = b.n**4
            tensors = [WeightTensor(b.n, m, tuple(rng.randrange(m) for _ in range(size)))]
            # one nonzero entry: often a basepoint error first
            for slot in rng.sample(range(size), 6):
                tensors.append(WeightTensor(b.n, m, tuple(int(s == slot) for s in range(size))))
            n2 = b.n * b.n
            upper = {(i, j): rng.randrange(m) for i in range(n2) for j in range(i, n2)}
            tensors.append(
                WeightTensor(
                    b.n,
                    m,
                    tuple(upper[min(i, j), max(i, j)] for i in range(n2) for j in range(n2)),
                )
            )
            tensors += list(islice(search_weights(b, m), 2))
            for w in tensors:
                for seed in (0, 1):
                    report = is_valid_weight(b, w, trials=12, seed=seed)
                    assert report == _old_trials(b, w, 12, seed), (name, m, w.entries, seed)
                    trial = report.failed_trial or {}
                    kinds["valid" if report else "error" if "error" in trial else "sums"] += 1
        assert kinds["valid"] and kinds["error"] and kinds["sums"], kinds


class TestRotationRowsAt:
    @pytest.mark.parametrize("name", ("flip2", "quad4"))
    def test_rows_at_indices_are_those_rows_of_the_full_list(self, request, name):
        b = request.getfixturevalue(name)
        rng = random.Random(20261019)
        for d in _oracle_diagrams():
            two_n = len(d.endpoints)
            for c in enumerate_colorings(b, d)[:4]:
                terms = _pair_terms(d.compiled, c, b.n)
                rows = range(two_n - 1)
                full = _rotation_rows_at(terms, rows)
                indices = sorted(rng.sample(rows, rng.randint(0, len(rows))))
                assert _rotation_rows_at(terms, indices) == [full[i] for i in indices]


def _sum_by_definition(w, d, c) -> int:
    """sigma_D as the module docstring defines it: over the interleaving
    chord pairs, the first being the one whose under passage comes first,
    sign(p) sign(q) W[label(p)][label(q)], reduced mod m."""
    total = 0
    for p, q in d.crossing_pairs():
        if d.index_of(p, "U") > d.index_of(q, "U"):
            p, q = q, p
        label_p, label_q = arrow_label(d, c, p), arrow_label(d, c, q)
        total += d.sign_of(p) * d.sign_of(q) * w.get(label_p, label_q)
    return total % w.m


class TestPairTable:
    """Weight sums read straight from the per-diagram pair table equal the
    sums of the pair terms and the sums from the definition."""

    PAIRS = TestCachedWeightSums.PAIRS

    @staticmethod
    def _diagrams(rng) -> list:
        return [_random_diagram_of_size(rng, chords) for chords in range(11) for _ in range(3)]

    @pytest.mark.parametrize("pair", PAIRS)
    def test_bundled_tensors(self, request, pair):
        name, tensor = self.PAIRS[pair]
        b, w = request.getfixturevalue(name), request.getfixturevalue(tensor)
        for d in self._diagrams(random.Random(20261019)):
            expected = tuple(sigma_D(w, d, c) for c in enumerate_colorings(b, d))
            assert arrowweight._weight_sums(b, w, d) == expected, (pair, str(d))
            assert expected == tuple(_sum_by_definition(w, d, c) for c in enumerate_colorings(b, d))

    @pytest.mark.parametrize("m", [2, 7, 10**23])
    def test_random_tensors(self, flip2, cyc3, quad4, shift4, m):
        rng = random.Random(m)
        for b in (flip2, cyc3, quad4, shift4):
            w = WeightTensor(b.n, m, tuple(rng.randrange(m) for _ in range(b.n**4)))
            for d in self._diagrams(rng):
                colorings = enumerate_colorings(b, d)
                expected = tuple(sigma_D(w, d, c) for c in colorings)
                assert arrowweight._weight_sums(b, w, d) == expected, (m, str(d))
                assert expected == tuple(_sum_by_definition(w, d, c) for c in colorings)

    def test_table_rows(self):
        # one row per interleaving pair, in the order of crossing_pairs, with
        # the first chord the one whose under passage comes first
        rng = random.Random(7)
        for d in self._diagrams(rng):
            table = d.compiled.pair_table
            assert len(table) == len(d.crossing_pairs())
            for (sign, *_, u1, u2), (p, q) in zip(table, d.crossing_pairs()):
                assert sign == d.sign_of(p) * d.sign_of(q)
                assert (u1, u2) == tuple(sorted((d.index_of(p, "U"), d.index_of(q, "U"))))
