"""Arrow weight tensors, weight sums, and the validity machinery."""

import random
from itertools import combinations

import pytest

from arrowquiver import gausscode, homset
from arrowquiver.arrowweight import (
    ConstraintSystem,
    SolutionSet,
    WeightTensor,
    _difference_row,
    _integer_rows,
    _pair_terms,
    _r3_template_hosts,
    _random_diagram_of_size,
    _rotation_rows,
    _small_hosts,
    generate_constraints,
    is_valid_weight,
    max_modulus,
    search_weights,
    sigma_coefficients,
    sigma_D,
    sigma_terms,
    solve_constraints,
    weight_multiset,
)
from arrowquiver.gausscode import R3Slide, apply_move, enumerate_moves, parse_gauss_code
from arrowquiver.homset import arrow_label, enumerate_colorings, transport_coloring

VIRTUAL_HOPF = parse_gauss_code("O1+O2+U1+U2+")


def asymmetric_tensor() -> WeightTensor:
    """An invalid Z_2 tensor that distinguishes the two slots of a pair."""
    entries = [0] * 16
    entries[WeightTensor.slot(2, 2, 1, 1, 2)] = 1
    return WeightTensor(2, 2, tuple(entries))


class TestTensor:
    def test_slot_is_row_major(self):
        assert WeightTensor.slot(2, 1, 1, 1, 1) == 0
        assert WeightTensor.slot(2, 1, 1, 1, 2) == 1
        assert WeightTensor.slot(2, 2, 2, 2, 2) == 15
        assert WeightTensor.slot(3, 1, 2, 3, 1) == 15

    def test_get(self, w16):
        assert w16.get((1, 1), (1, 2)) == 4
        assert w16.get((1, 2), (2, 1)) == 8

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

    def test_is_zero(self, w16):
        assert WeightTensor(1, 4, (0,)).is_zero()
        assert not w16.is_zero()

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
        assert sigma_terms(w16, VIRTUAL_HOPF, (1, 2, 1, 2)) == [((1, 2), 8)]

    def test_virtual_hopf_sigma(self, w16):
        assert sigma_D(w16, VIRTUAL_HOPF, (1, 2, 1, 2)) == 8
        assert sigma_D(w16, VIRTUAL_HOPF, (2, 1, 2, 1)) == 8

    def test_multiset_pins(self, flip2, w16, cyc3, w8):
        assert weight_multiset(flip2, w16, VIRTUAL_HOPF) == (8, 8)
        assert weight_multiset(cyc3, w8, VIRTUAL_HOPF) == (4, 4, 4)

    def test_no_crossing_pairs_means_zero(self, flip2, w16):
        kinks = parse_gauss_code("O1+U1+O2+U2+")
        assert set(weight_multiset(flip2, w16, kinks)) == {0}

    def test_rotation_check_passes_for_valid_tensor(self, flip2, w16):
        for c in ((1, 2, 1, 2), (2, 1, 2, 1)):
            assert sigma_D(w16, VIRTUAL_HOPF, c, check_rotations=True) == 8

    def test_rotation_check_detects_basepoint_dependence(self):
        with pytest.raises(ValueError, match="depends on the basepoint"):
            sigma_D(
                asymmetric_tensor(),
                VIRTUAL_HOPF,
                (1, 2, 1, 2),
                check_rotations=True,
            )


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
            assert system.holds_for(WeightTensor(flip2.n, 2, values))

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
        assert not any(w.is_zero() for w in found)

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
                assert sigma_coefficients(d, c, n) == brute, (str(d), c)

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_rotation_rows_match_rebuilt_diagrams(self, request, name):
        b = request.getfixturevalue(name)
        n = b.n
        checked = 0
        for d in _oracle_diagrams():
            two_n = len(d.endpoints)
            for c in enumerate_colorings(b, d):
                rows = _rotation_rows(_pair_terms(d, c, n), two_n)
                assert len(rows) == max(0, two_n - 1)
                base = sigma_coefficients(d, c, n)
                for k in range(1, two_n):
                    rebuilt = sigma_coefficients(d.rotated(k), c[k:] + c[:k], n)
                    want = _nonzero(_difference_row(base, rebuilt))
                    assert _nonzero(rows[k - 1]) == want, (str(d), c, k)
                    checked += 1
        assert checked > 1000

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
            sigma_D(w, d, c, check_rotations=True)


def _per_coloring_rows(b) -> list[dict[int, int]]:
    """Every constraint row, in generation order and not deduplicated, built
    the long way: the moved diagram and the transport once per coloring."""
    n = b.n
    rows = []

    def move_rows(d, moves):
        for move in moves:
            d2 = apply_move(d, move)
            for c in enumerate_colorings(b, d):
                after = sigma_coefficients(d2, transport_coloring(b, d, move, c), n)
                rows.append(_difference_row(sigma_coefficients(d, c, n), after))

    def rotation_rows(d):
        if len(d.endpoints) >= 4:
            for c in enumerate_colorings(b, d):
                rows.extend(_rotation_rows(_pair_terms(d, c, n), len(d.endpoints)))

    for d in _small_hosts():
        move_rows(d, enumerate_moves(d))
        rotation_rows(d)
    for spectators in (0, 1):
        for d in _r3_template_hosts(spectators):
            move_rows(d, [mv for mv in enumerate_moves(d) if isinstance(mv, R3Slide)])
            rotation_rows(d)
    return rows


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

    def test_new_modulus_reuses_the_integer_rows(self, monkeypatch, cyc3):
        def refuse(*args):
            raise AssertionError("rows were rebuilt")

        expected = generate_constraints(cyc3, 3).rows
        _integer_rows(cyc3)
        generate_constraints.cache_clear()
        for module in (gausscode, homset):
            monkeypatch.setattr(module, "apply_move", refuse)
        monkeypatch.setattr(homset, "_solve_middles", refuse)
        assert generate_constraints(cyc3, 3).rows == expected


class TestModulusLimit:
    def test_limit_is_the_int64_bound(self):
        for ncols in (1, 16, 81, 256):
            m = max_modulus(ncols)
            assert max(2, ncols) * (m - 1) ** 2 < 2**63
            assert max(2, ncols) * m**2 >= 2**63

    def test_modulus_above_limit_rejected(self):
        m = 3 * 2**31
        assert m > max_modulus(81)
        with pytest.raises(ValueError, match=f"modulus {m} is above the limit"):
            SolutionSet(81, m, [])

    def test_counts_multiply_over_coprime_moduli(self, cyc3):
        def count(m):
            return solve_constraints(generate_constraints(cyc3, m)).count()

        assert count(24) == count(8) * count(3)

    def test_limit_zero_yields_nothing(self, flip2):
        assert list(search_weights(flip2, 2, limit=0)) == []


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
