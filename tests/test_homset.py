"""Colorings of Gauss diagrams and their transport through moves."""

import random
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest

from arrowquiver import homset
from arrowquiver.biquandle import Biquandle, validate_tables
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
from arrowquiver.homset import (
    TransportError,
    arrow_label,
    chord_colors,
    counting_invariant,
    enumerate_colorings,
    is_coloring,
    transport_coloring,
    transport_colorings,
)

from test_biquandle import respects_both
from test_coloring_oracle import _alexander

VIRTUAL_HOPF = parse_gauss_code("O1+O2+U1+U2+")
TREFOIL = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
R3_HOST = parse_gauss_code("U1+U2+O1+U3+O2+O3+")
# the bundled biquandles and three on six elements (``SIX_ELEMENTS``)
ORBIT_CASES = ["flip2", "cyc3", "quad4", "shift4", "dihedral6", "dihedral6_swapped", "sigma6"]


def _random_diagrams(count: int, seed: int = 20260815) -> list[GaussDiagram]:
    """Seeded random diagrams of 3 or 4 chords."""
    rng = random.Random(seed)
    return [_random_diagram_of_size(rng, rng.choice((3, 4))) for _ in range(count)]


def _equations_hold(b, d, grid: np.ndarray) -> np.ndarray:
    """For each row of ``grid`` (one color per semiarc), whether every
    crossing equation of ``d`` holds, evaluated straight from the equations
    in the docstring of :mod:`arrowquiver.homset` on the passages of the
    word."""
    under, over = np.array(b.under), np.array(b.over)
    two_n = len(d.endpoints)
    at = {(e.chord, e.passage): i for i, e in enumerate(d.endpoints)}
    ok = np.ones(len(grid), dtype=bool)
    for chord in range(1, d.n + 1):
        ui, oi = at[chord, "U"], at[chord, "O"]
        u_in, u_out = grid[:, (ui - 1) % two_n] - 1, grid[:, ui] - 1
        o_in, o_out = grid[:, (oi - 1) % two_n] - 1, grid[:, oi] - 1
        if d.endpoints[ui].sign > 0:
            ok &= (under[u_in, o_out] == u_out + 1) & (over[o_out, u_in] == o_in + 1)
        else:
            ok &= (under[u_out, o_in] == u_in + 1) & (over[o_in, u_out] == o_out + 1)
    return ok


@lru_cache(maxsize=None)
def _every_small_diagram() -> tuple[GaussDiagram, ...]:
    """Every word of 0-2 chords whose chords are numbered in order of first
    appearance, and every 3-chord word up to rotation and renumbering (as
    its canonical code), kinks included."""
    codes = set()
    for n in range(4):
        passages = [(c, p) for c in range(1, n + 1) for p in "OU"]
        for order in permutations(passages):
            if list(dict.fromkeys(c for c, _ in order)) != list(range(1, n + 1)):
                continue
            for signs in product((1, -1), repeat=n):
                d = GaussDiagram(tuple(Endpoint(c, p, signs[c - 1]) for c, p in order))
                codes.add(d.canonical_code() if n == 3 else str(d))
    return tuple(parse_gauss_code(code) for code in sorted(codes))


def _brute_force_colorings(b, d) -> tuple[tuple[int, ...], ...]:
    """Every assignment in X^(semiarcs) that is a coloring, in lex order."""
    k = d.num_semiarcs
    grid = np.indices((b.n,) * k).reshape(k, -1).T + 1
    return tuple(tuple(int(v) for v in row) for row in grid[_equations_hold(b, d, grid)])


def _brute_force_extension(b, d2, partial) -> tuple[int, ...]:
    """The extension search transport once used: try every color on every
    uncolored semiarc and keep the assignments that are colorings."""
    middles = [i for i, v in enumerate(partial) if v is None]
    grid = np.array([[v or 0 for v in partial]] * b.n ** len(middles))
    if middles:
        grid[:, middles] = list(product(b.elements, repeat=len(middles)))
    solutions = grid[_equations_hold(b, d2, grid)]
    if len(solutions) != 1:
        raise TransportError(f"expected a unique extension, found {len(solutions)}")
    return tuple(int(v) for v in solutions[0])


def _transport_or_error(b, d, move, c):
    try:
        return transport_coloring(b, d, move, c)
    except TransportError as err:
        return str(err)


class TestEnumeration:
    def test_empty_diagram_colorings(self, flip2, cyc3):
        assert enumerate_colorings(flip2, parse_gauss_code("")) == [(1,), (2,)]
        assert counting_invariant(cyc3, parse_gauss_code("")) == 3

    def test_kink_has_one_coloring_per_element(self, flip2, cyc3, quad4, shift4):
        kink = parse_gauss_code("O1+U1+")
        for b in (flip2, cyc3, quad4, shift4):
            assert counting_invariant(b, kink) == b.n

    def test_positive_kink_flip(self, flip2):
        assert enumerate_colorings(flip2, parse_gauss_code("O1+U1+")) == [
            (1, 2),
            (2, 1),
        ]

    def test_negative_kink_cyclic(self, cyc3):
        assert enumerate_colorings(cyc3, parse_gauss_code("O1-U1-")) == [
            (1, 2),
            (2, 3),
            (3, 1),
        ]

    def test_virtual_hopf_flip(self, flip2):
        assert enumerate_colorings(flip2, VIRTUAL_HOPF) == [
            (1, 2, 1, 2),
            (2, 1, 2, 1),
        ]

    def test_trefoil_cyclic(self, cyc3):
        assert enumerate_colorings(cyc3, TREFOIL) == [
            (1, 3, 1, 3, 1, 3),
            (2, 1, 2, 1, 2, 1),
            (3, 2, 3, 2, 3, 2),
        ]

    def test_trefoil_quad(self, quad4):
        assert counting_invariant(quad4, TREFOIL) == 16

    def test_all_results_are_colorings(self, quad4):
        for c in enumerate_colorings(quad4, TREFOIL):
            assert is_coloring(quad4, TREFOIL, c)

    def test_output_sorted_and_fresh(self, flip2):
        first = enumerate_colorings(flip2, VIRTUAL_HOPF)
        assert first == sorted(first)
        first.append("junk")
        assert enumerate_colorings(flip2, VIRTUAL_HOPF) == sorted(first[:-1])

    def test_rotation_permutes_colorings(self, cyc3, quad4):
        for b in (cyc3, quad4):
            for d in (TREFOIL, R3_HOST):
                base = set(enumerate_colorings(b, d))
                two_n = len(d.endpoints)
                for k in range(two_n):
                    rotated = set(enumerate_colorings(b, d.rotated(k)))
                    assert rotated == {c[k:] + c[:k] for c in base}

    def test_brute_force_oracle(self, flip2, cyc3, quad4, shift4):
        diagrams = _small_hosts() + _random_diagrams(20)
        for b in (flip2, cyc3, quad4, shift4):
            for d in diagrams:
                expected = _brute_force_colorings(b, d)
                assert tuple(enumerate_colorings(b, d)) == expected, str(d)

    @pytest.mark.parametrize("name", ORBIT_CASES)
    def test_brute_force_oracle_up_to_three_chords(self, request, name):
        # 6^6 assignments at 3 chords; 6^8 would be too many
        b = _biquandle(request, name)
        rng = random.Random(20260815)
        diagrams = _small_hosts() + [TREFOIL, R3_HOST]
        diagrams += [_random_diagram_of_size(rng, 3) for _ in range(20)]
        carriers = [g for _, gs in homset._orbits(b) for g in gs]
        for d in diagrams:
            colorings = enumerate_colorings(b, d)
            assert tuple(colorings) == _brute_force_colorings(b, d), str(d)
            found = set(colorings)
            for g in carriers:
                assert {tuple(g[v] for v in c) for c in colorings} == found

    def test_relation_tables_grow_with_n_squared(self):
        # the trivial biquandle, under(x, y) = over(x, y) = x, on 32 elements
        n = 32
        rows = tuple((x,) * n for x in range(1, n + 1))
        trivial = Biquandle(rows, rows)
        tables = homset._relation(trivial)
        assert len(tables) == 8  # one per sign and kink shape
        assert all(len(t) <= 16 * n * n for t in tables.values())
        assert counting_invariant(trivial, TREFOIL) == n


def _dihedral(n: int) -> Biquandle:
    """The dihedral quandle R_n as a biquandle: under(x, y) = 2y - x mod n,
    over(x, y) = x."""
    elements = range(1, n + 1)
    under = tuple(tuple((2 * y - x) % n or n for y in elements) for x in elements)
    over = tuple((x,) * n for x in elements)
    return Biquandle(under, over)


def _dihedral6_swapped() -> Biquandle:
    """R_6 with the roles of the operations exchanged: under(x, y) = x,
    over(x, y) = 2y - x mod 6.  Every permutation respects its under
    operation, so only the over operation rules out most of them."""
    b = _dihedral(6)
    assert validate_tables(b.over, b.under) == []
    return Biquandle(b.over, b.under)


def _sigma6() -> Biquandle:
    """The constant-action biquandle of the permutation (1)(2 3)(4 5 6):
    under(x, y) = over(x, y) = sigma(x).  Its automorphisms are the
    permutations commuting with sigma, whose orbits are its cycles."""
    sigma = (1, 3, 2, 5, 6, 4)
    rows = tuple((sigma[x - 1],) * 6 for x in range(1, 7))
    assert validate_tables(rows, rows) == []
    return Biquandle(rows, rows)


def _valid_tuples(b, sign: int, shape: int) -> list[tuple[int, ...]]:
    """Every (u_in, u_out, o_in, o_out) in X^4 that satisfies the crossing
    equations of the sign and agrees on the slots a kink of the shape joins."""
    out = []
    for u_in, u_out, o_in, o_out in product(b.elements, repeat=4):
        if sign > 0:
            ok = b.under[u_in - 1][o_out - 1] == u_out and b.over[o_out - 1][u_in - 1] == o_in
        else:
            ok = b.under[u_out - 1][o_in - 1] == u_in and b.over[o_in - 1][u_out - 1] == o_out
        if ok and not (shape & 1 and u_in != o_out) and not (shape & 2 and u_out != o_in):
            out.append((u_in, u_out, o_in, o_out))
    return out


# biquandles off the bundle whose relation tables are checked by brute force:
# R_3 and R_6, and an Alexander biquandle, whose over operation is not the
# identity
OFF_BUNDLE = {
    "dihedral3": lambda: _dihedral(3),
    "dihedral6": lambda: _dihedral(6),
    "alexander_5_2_3": lambda: _alexander(5, 2, 3),
}


class TestRelationTables:
    @pytest.mark.parametrize(
        "name", ["flip2", "cyc3", "quad4", "shift4", "dihedral6", "dihedral3", "alexander_5_2_3"]
    )
    def test_forced_values_match_brute_force(self, request, name):
        b = OFF_BUNDLE[name]() if name in OFF_BUNDLE else request.getfixturevalue(name)
        rel = homset._relation(b)
        r = b.n + 1
        assert len(rel) == 8
        for (sign, shape), table in rel.items():
            valid = _valid_tuples(b, sign, shape)
            # a kink's o_out (shape bit 0) or o_in (bit 1) is the same
            # semiarc as its u_in or u_out, which carries the forced value
            joined = {k for k, bit in ((3, 1), (2, 2)) if shape & bit}
            expected = {}
            for partial in product(range(r), repeat=4):
                key = sum(v * r**k for k, v in enumerate(partial))
                extending = [
                    t for t in valid if all(v in (0, t[k]) for k, v in enumerate(partial))
                ]
                if not extending:
                    continue
                # per slot, the mask of the values the extending tuples give it
                masks = (sum(1 << v for v in {t[k] for t in extending}) for k in range(4))
                expected[key] = (
                    *masks,
                    tuple(
                        (k, extending[0][k])
                        for k in range(4)
                        if not partial[k]
                        and k not in joined
                        and all(t[k] == extending[0][k] for t in extending)
                    ),
                )
            assert table == expected, (sign, shape)


def _every_automorphism(b) -> list[tuple[int, ...]]:
    """Every permutation of the elements that respects both operations,
    by the pairwise definition, which shares no code with the map search."""
    return [p for p in permutations(b.elements) if respects_both(b, p)]


def _random_tables(rng, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Two seeded random n x n operation tables, each filled along the
    orbits of one random permutation p on pairs (the entry at (p(x), p(y))
    is p of the entry at (x, y)), so that p often respects both and many
    have automorphisms besides the identity; most are not biquandles."""
    p = [0, *rng.sample(range(1, n + 1), n)]
    tables = []
    for _ in range(2):
        t = [[0] * n for _ in range(n)]
        for x, y in product(range(1, n + 1), repeat=2):
            v = rng.randint(1, n)
            while not t[x - 1][y - 1]:
                t[x - 1][y - 1] = v
                x, y, v = p[x], p[y], p[v]
        tables.append(tuple(map(tuple, t)))
    return tuple(tables)


def _every_endomorphism(b) -> list[tuple[int, ...]]:
    """Every map of the elements to themselves that respects both
    operations, by the pairwise definition, in lexicographic order."""
    return [f for f in product(b.elements, repeat=b.n) if respects_both(b, f)]


SIX_ELEMENTS = {
    "dihedral6": lambda: _dihedral(6),
    "dihedral6_swapped": _dihedral6_swapped,
    "sigma6": _sigma6,
}


def _biquandle(request, name: str) -> Biquandle:
    return SIX_ELEMENTS[name]() if name in SIX_ELEMENTS else request.getfixturevalue(name)


class TestOrbits:
    @pytest.mark.parametrize("name", ORBIT_CASES)
    def test_carriers_are_automorphisms(self, request, name):
        b = _biquandle(request, name)
        for r, carriers in homset._orbits(b):
            targets = [g[r] for g in carriers]
            assert targets == sorted(targets) and r < min(targets, default=b.n + 1)
            for g in carriers:
                assert g[0] == 0 and sorted(g[1:]) == list(b.elements)
                assert respects_both(b, g[1:])

    @pytest.mark.parametrize("name", ORBIT_CASES)
    def test_orbits_match_all_permutations(self, request, name):
        b = _biquandle(request, name)
        autos = _every_automorphism(b)
        expected = {frozenset(f[x - 1] for f in autos) for x in b.elements}
        found = [{r, *(g[r] for g in carriers)} for r, carriers in homset._orbits(b)]
        # no two representatives share an orbit, and each is its least element
        assert {frozenset(o) for o in found} == expected
        assert len(found) == len(expected)
        assert [r for r, _ in homset._orbits(b)] == sorted(min(o) for o in expected)

    def test_orbit_counts(self, flip2, cyc3, quad4, shift4):
        counts = [len(homset._orbits(b)) for b in (flip2, cyc3, quad4, shift4)]
        assert counts == [1, 1, 2, 1]
        assert [r for r, _ in homset._orbits(quad4)] == [1, 2]
        assert [r for r, _ in homset._orbits(_sigma6())] == [1, 2, 4]

    @pytest.mark.parametrize("name, searches", [("cyc3", 1), ("quad4", 2), ("sigma6", 3)])
    def test_one_search_per_representative(self, request, monkeypatch, name, searches):
        b = _biquandle(request, name)
        expected = _brute_force_colorings(b, TREFOIL)
        calls = []
        solve = homset._extensions

        def counted(bq, d, start):
            calls.append(start[0])
            return solve(bq, d, start)

        monkeypatch.setattr(homset, "_extensions", counted)
        for d in (TREFOIL, parse_gauss_code(""), VIRTUAL_HOPF):
            calls.clear()
            homset._colorings.cache_clear()
            enumerate_colorings(b, d)
            assert calls == [r for r, _ in homset._orbits(b)]
            assert len(calls) == searches
        assert tuple(enumerate_colorings(b, TREFOIL)) == expected

    def test_search_matches_brute_force_on_random_tables(self):
        # the search reads only the two tables, so any tables test it; these
        # are filled along the orbits of a random permutation on pairs, so
        # that many have automorphisms besides the identity
        rng = random.Random(1)
        nontrivial = 0
        for _ in range(1000):
            tables = _random_tables(rng, rng.choice((3, 4)))
            b = Biquandle(*tables)
            autos = _every_automorphism(b)
            for r, a in product(b.elements, repeat=2):
                g = next(b._maps(((r, a),), injective=True, budget=[1 << 16]), None)
                exists = any(f[r - 1] == a for f in autos)
                assert (g is not None) == exists, (tables, r, a)
                if g is not None:
                    assert g[r] == a and g[1:] in autos
                nontrivial += exists and r != a
        assert nontrivial > 1000, nontrivial

    def test_trivial_biquandle_is_transitive(self):
        n = 32
        rows = tuple((x,) * n for x in range(1, n + 1))
        ((r, carriers),) = homset._orbits(Biquandle(rows, rows))
        assert r == 1 and [g[1] for g in carriers] == list(range(2, n + 1))

    def test_spent_budget_costs_no_colorings(self, monkeypatch):
        # R_6's automorphisms all need a branch after the root, so with no
        # budget every element is its own representative
        b = _dihedral(6)
        diagrams = [TREFOIL, R3_HOST, VIRTUAL_HOPF]
        expected = [enumerate_colorings(b, d) for d in diagrams]
        monkeypatch.setattr(homset, "_AUTOMORPHISM_BUDGET", 0)
        homset._orbits.cache_clear()
        homset._colorings.cache_clear()
        try:
            assert [r for r, _ in homset._orbits(b)] == list(b.elements)
            assert [enumerate_colorings(b, d) for d in diagrams] == expected
        finally:
            homset._orbits.cache_clear()
            homset._colorings.cache_clear()


class TestEndomorphisms:
    # Biquandle.endomorphisms and the automorphism search of TestOrbits are
    # one map search; these check its non-injective side against brute force

    def test_search_matches_brute_force_on_random_tables(self):
        # the search reads only the two tables, so any tables test it
        rng = random.Random(2)
        non_injective = 0
        for _ in range(500):
            b = Biquandle(*_random_tables(rng, rng.choice((2, 3, 4))))
            found = b.endomorphisms()
            assert found == _every_endomorphism(b), (b.under, b.over)
            non_injective += sum(len(set(f)) < b.n for f in found)
        assert non_injective > 120, non_injective

    @pytest.mark.parametrize("name", SIX_ELEMENTS)
    def test_search_matches_brute_force(self, name):
        b = SIX_ELEMENTS[name]()
        assert b.endomorphisms() == _every_endomorphism(b)

    def test_trivial_biquandle_on_five_elements(self):
        rows = tuple((x,) * 5 for x in range(1, 6))
        b = Biquandle(rows, rows)
        assert b.endomorphisms() == _every_endomorphism(b)
        assert len(b.endomorphisms()) == 5**5


class TestPredicates:
    def test_is_coloring_checks_length(self, flip2):
        assert not is_coloring(flip2, VIRTUAL_HOPF, (1, 2))

    def test_is_coloring_checks_range(self, flip2):
        assert not is_coloring(flip2, VIRTUAL_HOPF, (1, 3, 1, 3))

    def test_is_coloring_checks_equations(self, flip2):
        assert is_coloring(flip2, VIRTUAL_HOPF, (1, 2, 1, 2))
        assert not is_coloring(flip2, VIRTUAL_HOPF, (1, 1, 1, 1))

    @pytest.mark.parametrize("bad", [1.5, 0, 3, -1, 2.5, "1", None, 10**30])
    def test_is_coloring_rejects_a_color_outside_1_to_n(self, flip2, bad):
        """Each color must equal one of 1..n; every semiarc position is tried."""
        good = (1, 2, 1, 2)
        assert is_coloring(flip2, VIRTUAL_HOPF, good)
        for i in range(len(good)):
            c = good[:i] + (bad,) + good[i + 1 :]
            assert is_coloring(flip2, VIRTUAL_HOPF, c) is False, (bad, i)

    @pytest.mark.parametrize("name", ("flip2", "cyc3", "quad4", "shift4"))
    def test_is_coloring_accepts_exactly_the_brute_force_colorings(self, request, name):
        """Every assignment of every diagram of at most three chords: the
        signs is_coloring reads from the compiled kinds must give the
        equations read from the word."""
        b = request.getfixturevalue(name)
        diagrams = _every_small_diagram()
        assert [sum(d.n == k for d in diagrams) for k in range(4)] == [1, 4, 48, 164]
        kinks = 0
        for d in diagrams:
            k = d.num_semiarcs
            grid = np.indices((b.n,) * k).reshape(k, -1).T + 1
            expected = _equations_hold(b, d, grid).tolist()
            got = [is_coloring(b, d, c) for c in product(b.elements, repeat=k)]
            assert got == expected, str(d)
            kinks += any(e.chord == f.chord for e, f in zip(d.endpoints, d.endpoints[1:]))
        assert kinks > 100, kinks

    def test_is_coloring_agrees_with_the_enumerated_colorings(self, cyc3, quad4):
        rng = random.Random(20261019)
        for b in (cyc3, quad4):
            for d in _random_diagrams(6):
                found = set(enumerate_colorings(b, d))
                assert all(is_coloring(b, d, c) for c in found)
                for _ in range(20):
                    c = tuple(rng.choice(b.elements) for _ in range(d.num_semiarcs))
                    assert is_coloring(b, d, c) == (c in found), (str(d), c)

    def test_chord_colors(self):
        c = (1, 2, 1, 2)
        assert chord_colors(VIRTUAL_HOPF, c, 1) == (2, 1, 2, 1)
        assert chord_colors(VIRTUAL_HOPF, c, 2) == (1, 2, 1, 2)

    def test_arrow_label_positive(self):
        # Positive chords label by (under color in, over color out).
        c = (1, 2, 1, 2)
        assert arrow_label(VIRTUAL_HOPF, c, 1) == (2, 1)
        assert arrow_label(VIRTUAL_HOPF, c, 2) == (1, 2)

    def test_arrow_label_negative(self, cyc3):
        # Negative chords read the inverted crossing: (under out, over in).
        kink = parse_gauss_code("O1-U1-")
        assert arrow_label(kink, (1, 2), 1) == (2, 2)


class TestTransport:
    def test_requires_a_coloring(self, flip2):
        move = R1Insert(0, False, 1)
        with pytest.raises(TransportError, match="not a coloring"):
            transport_coloring(flip2, VIRTUAL_HOPF, move, (1, 1, 1, 1))

    def test_insert_preserves_far_colors(self, flip2):
        move = R1Insert(2, False, 1)
        c2 = transport_coloring(flip2, VIRTUAL_HOPF, move, (1, 2, 1, 2))
        d2 = apply_move(VIRTUAL_HOPF, move)
        assert is_coloring(flip2, d2, c2)
        # Two new semiarcs appear at the insertion point; the rest shift.
        assert (c2[0], c2[1]) == (1, 2)
        assert (c2[4], c2[5]) == (1, 2)

    def test_insert_then_delete_roundtrip(self, flip2, cyc3):
        cases = [
            (flip2, VIRTUAL_HOPF, R1Insert(1, True, -1)),
            (flip2, VIRTUAL_HOPF, R2Insert(0, 2, False, 1)),
            (cyc3, R3_HOST, R2Insert(3, 3, True, -1)),
        ]
        for b, d, move in cases:
            d2 = apply_move(d, move)
            inv = inverse_move(d, move)
            for c in enumerate_colorings(b, d):
                c2 = transport_coloring(b, d, move, c)
                assert is_coloring(b, d2, c2)
                assert transport_coloring(b, d2, inv, c2) == c

    def test_round_trip_oracle(self, quad4):
        """Every move that its inverse undoes exactly carries each coloring
        there and back unchanged, which checks the semiarc maps of insertions
        and deletions against each other."""
        hosts = list(_small_hosts()) + list(_r3_template_hosts(0))
        checked = 0
        for d in hosts:
            colorings = enumerate_colorings(quad4, d)
            for move in enumerate_moves(d):
                inv = inverse_move(d, move)
                d2, images = transport_colorings(quad4, d, move, colorings)
                if apply_move(d2, inv) != d:
                    continue
                assert transport_colorings(quad4, d2, inv, images) == (d, colorings)
                checked += 1
        assert checked == 2698

    def test_delete_restricts(self, cyc3):
        d = parse_gauss_code("O1-U1-")
        for c in enumerate_colorings(cyc3, d):
            back = transport_coloring(cyc3, d, R1Delete(0), c)
            assert back == (c[1],)

    def test_delete_needs_agreeing_boundary(self):
        # not a biquandle: the kink's crossing equations leave its two outer
        # semiarcs free, so some colorings cannot lose the kink
        b = Biquandle(((1, 1), (1, 1)), ((1, 1), (1, 1)))
        d = parse_gauss_code("U1+O1+O2-U2-")
        outcomes = set()
        for c in enumerate_colorings(b, d):
            outcomes.add(c[1] == c[3])
            if c[1] == c[3]:
                assert transport_coloring(b, d, R1Delete(0), c) == (c[2], c[3])
            else:
                with pytest.raises(TransportError, match="boundary colors disagree"):
                    transport_coloring(b, d, R1Delete(0), c)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("kind", [R1Delete, R2Delete])
    def test_deletions_solve_each_coloring_once(self, monkeypatch, quad4, kind):
        calls = []
        solve = homset._solve_middles

        def recorded(b, d2, partial):
            calls.append(partial)
            return solve(b, d2, partial)

        monkeypatch.setattr(homset, "_solve_middles", recorded)
        cases = [
            (d, move)
            for d in _small_hosts()
            for move in enumerate_moves(d)
            if isinstance(move, kind)
        ]
        assert cases
        for d, move in cases:
            calls.clear()
            colorings = enumerate_colorings(quad4, d)
            transport_colorings(quad4, d, move, colorings)
            assert len(calls) == len(colorings)

    def test_r3_slide_bijects_colorings(self, cyc3, quad4):
        move = R3Slide((0, 2, 4), "L", (1, 2, 3), 1)
        d2 = apply_move(R3_HOST, move)
        for b in (cyc3, quad4):
            images = set()
            for c in enumerate_colorings(b, R3_HOST):
                c2 = transport_coloring(b, R3_HOST, move, c)
                assert is_coloring(b, d2, c2)
                images.add(c2)
            assert images == set(enumerate_colorings(b, d2))

    def test_every_move_preserves_count(self, shift4):
        d = VIRTUAL_HOPF
        base = counting_invariant(shift4, d)
        for move in enumerate_moves(d):
            d2 = apply_move(d, move)
            assert counting_invariant(shift4, d2) == base, move

    @pytest.mark.parametrize("name", ["flip2", "cyc3", "quad4", "shift4"])
    def test_matches_brute_force_extension(self, request, monkeypatch, name):
        b = request.getfixturevalue(name)
        hosts = [(d, enumerate_moves(d)) for d in _small_hosts()]
        hosts += [
            (d, [mv for mv in enumerate_moves(d) if isinstance(mv, R3Slide)])
            for d in _r3_template_hosts(0)
        ]
        cases = [
            (b, d, move, c)
            for d, moves in hosts
            for move in moves
            for c in enumerate_colorings(b, d)
        ]
        got = [_transport_or_error(*case) for case in cases]
        monkeypatch.setattr(homset, "_solve_middles", _brute_force_extension)
        expected = [_transport_or_error(*case) for case in cases]
        assert got == expected
        assert not any(isinstance(g, str) for g in got)

    def test_corrupted_input_raises(self, quad4):
        move = R3Slide((0, 2, 4), "L", (1, 2, 3), 1)
        d2 = apply_move(R3_HOST, move)
        for c in enumerate_colorings(quad4, R3_HOST):
            bad = c[:1] + (c[1] % quad4.n + 1,) + c[2:]  # 1 is not a site
            with pytest.raises(TransportError, match="not a coloring"):
                transport_coloring(quad4, R3_HOST, move, bad)
            # an inconsistent or underdetermined partial coloring of the
            # slid diagram fails to extend exactly as the brute force does
            for partial in (
                [None if i in move.sites else v for i, v in enumerate(bad)],
                [None] * len(c),
            ):
                with pytest.raises(TransportError) as err:
                    homset._solve_middles(quad4, d2, partial)
                with pytest.raises(TransportError, match=str(err.value)):
                    _brute_force_extension(quad4, d2, partial)


class TestBatchTransport:
    def _cases(self, b):
        hosts = [(d, enumerate_moves(d)) for d in _small_hosts()]
        hosts += [
            (d, [mv for mv in enumerate_moves(d) if isinstance(mv, R3Slide)])
            for d in _r3_template_hosts(0)
        ]
        return [(d, move) for d, moves in hosts for move in moves]

    def test_matches_one_at_a_time(self, quad4):
        for d, move in self._cases(quad4):
            colorings = enumerate_colorings(quad4, d)
            d2, images = transport_colorings(quad4, d, move, colorings)
            assert d2 == apply_move(d, move)
            assert images == [transport_coloring(quad4, d, move, c) for c in colorings]

    def test_one_moved_diagram_per_call(self, monkeypatch, cyc3):
        calls = []
        moved = homset._moved

        def counted(d, move):
            calls.append(move)
            return moved(d, move)

        monkeypatch.setattr(homset, "_moved", counted)
        for d, move in self._cases(cyc3):
            calls.clear()
            colorings = enumerate_colorings(cyc3, d)
            transport_colorings(cyc3, d, move, colorings)
            assert calls == [move]

    def test_any_corrupted_coloring_raises(self, quad4):
        move = R3Slide((0, 2, 4), "L", (1, 2, 3), 1)
        colorings = enumerate_colorings(quad4, R3_HOST)
        for k, c in enumerate(colorings):
            bad = c[:1] + (c[1] % quad4.n + 1,) + c[2:]
            batch = colorings[:k] + [bad] + colorings[k + 1 :]
            with pytest.raises(TransportError, match="not a coloring"):
                transport_colorings(quad4, R3_HOST, move, batch)


def _recursive_extensions(b, d, start) -> list[tuple[int, ...]]:
    """The coloring solver as it was written with two nested closures, one
    of them recursive: the reference the explicit-stack solver must match,
    list for list and in order."""
    cd = d.compiled
    rel = homset._relation(b)
    r = b.n + 1
    r2, r3 = r * r, r * r * r
    everything = (1 << r) - 2
    slots, touching = cd.slots, cd.touching
    # per semiarc, the chords it touches, each once, in order
    touches = [list(dict.fromkeys(c for c, _ in t)) for t in touching]
    tables = [rel[kind] for kind in cd.kind]
    val = list(start)
    queued = [True] * len(slots)
    found = []

    def propagate(queue, trail):
        while queue:
            ch = queue.pop()
            sl = slots[ch]
            s0, s1, s2, s3 = sl
            entry = tables[ch].get(val[s0] + r * val[s1] + r2 * val[s2] + r3 * val[s3])
            if entry is None:
                for c in queue:
                    queued[c] = False
                queued[ch] = False
                queue.clear()
                return False
            for k, v in entry[4]:
                s = sl[k]
                val[s] = v
                trail.append(s)
                for c in touches[s]:
                    if not queued[c]:
                        queued[c] = True
                        queue.append(c)
            queued[ch] = False
        return True

    def search(queue):
        trail = []
        if propagate(queue, trail):
            best, best_values, fewest = -1, 0, r
            for s, v in enumerate(val):
                if v:
                    continue
                allowed = everything
                for ch, k in touching[s]:
                    s0, s1, s2, s3 = slots[ch]
                    allowed &= tables[ch][val[s0] + r * val[s1] + r2 * val[s2] + r3 * val[s3]][k]
                count = allowed.bit_count()
                if count < fewest:
                    best, best_values, fewest = s, allowed, count
                    if count <= 1:
                        break
            if best < 0:
                found.append(tuple(val))
            else:
                while best_values:
                    low = best_values & -best_values
                    best_values ^= low
                    val[best] = low.bit_length() - 1
                    for c in touches[best]:
                        queued[c] = True
                    search(list(touches[best]))
                val[best] = 0
        for s in trail:
            val[s] = 0

    search(list(range(len(slots))))
    return found


class TestSolverOracle:
    """The explicit-stack solver returns what the recursive one returned,
    in the same order, for every kind of start the library passes it."""

    @staticmethod
    def _starts(rng, b, d) -> list[list[int]]:
        k = d.num_semiarcs
        starts = [[0] * k]  # the empty start
        for r in b.elements:  # semiarc 0 preset, as enumerate_colorings does
            starts.append([r] + [0] * (k - 1))
        colorings = _recursive_extensions(b, d, [0] * k)
        for c in rng.sample(colorings, min(3, len(colorings))):
            # transport-style: a coloring with the colors of a run of
            # semiarcs (a move disk) removed
            lo = rng.randrange(k)
            hi = lo + rng.randint(1, 4)
            starts.append([0 if lo <= i < hi else v for i, v in enumerate(c)])
            # and one with scattered holes
            starts.append([0 if rng.random() < 0.4 else v for v in c])
        for _ in range(3):
            # random presets, nearly always inconsistent
            starts.append([rng.choice((0, 0, *b.elements)) for _ in range(k)])
        return starts

    @pytest.mark.parametrize(
        "name", ["flip2", "cyc3", "quad4", "shift4", "dihedral6", "sigma6"]
    )
    def test_same_colorings_in_the_same_order(self, request, name):
        b = _biquandle(request, name)
        rng = random.Random(20261019)
        inconsistent = nonempty = 0
        for chords in range(13):
            for _ in range(10 if chords <= 8 else 5):
                d = _random_diagram_of_size(rng, chords)
                for start in self._starts(rng, b, d):
                    expected = _recursive_extensions(b, d, start)
                    before = list(start)
                    assert homset._extensions(b, d, start) == expected, (str(d), start)
                    assert start == before
                    inconsistent += not expected
                    nonempty += len(expected) > 1
        assert inconsistent and nonempty, (inconsistent, nonempty)

    def test_bundled_table_in_the_same_order(self, cyc3, quad4, table):
        for b in (cyc3, quad4):
            for entry in table:
                d = entry.diagram
                start = [0] * d.num_semiarcs
                assert homset._extensions(b, d, start) == _recursive_extensions(b, d, start)
