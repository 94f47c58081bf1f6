"""Weighted coloring quivers, quotients, and isomorphism testing."""

import random
import re
from itertools import permutations

import pytest

from arrowquiver.arrowweight import WeightTensor
from arrowquiver.biquandle import Biquandle
from arrowquiver.gausscode import parse_gauss_code
from arrowquiver.quiver import Quiver, build_quiver, quiver_isomorphic, quotient_quiver

VIRTUAL_HOPF = parse_gauss_code("O1+O2+U1+U2+")


class TestBuild:
    def test_flip_structure(self, flip2, w16):
        q = build_quiver(flip2, w16, VIRTUAL_HOPF)
        assert q.vertices == ((1, 2, 1, 2), (2, 1, 2, 1))
        assert q.weights == (8, 8)
        assert q.edges == ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert q.endos == ((1, 2), (2, 1))
        assert q.modulus == 16
        assert q.indegrees() == (2, 2)

    def test_default_endos_are_all(self, shift4, w4):
        q = build_quiver(shift4, w4, VIRTUAL_HOPF)
        assert q.endos == tuple(shift4.endomorphisms())
        assert len(q.edges) == len(q.vertices) * len(q.endos)

    def test_explicit_endo_subset(self, flip2, w16):
        q = build_quiver(flip2, w16, VIRTUAL_HOPF, endos=[(1, 2)])
        assert q.edges == ((0, 0, 0), (1, 1, 0))

    def test_rejects_non_preserving_map(self, flip2, w16):
        with pytest.raises(ValueError, match="does not preserve colorings"):
            build_quiver(flip2, w16, VIRTUAL_HOPF, endos=[(1, 1)])

    def test_rejects_repeated_map(self, cyc3, w8):
        assert len(build_quiver(cyc3, w8, VIRTUAL_HOPF, endos=[(1, 2, 3)]).edges) == 3
        with pytest.raises(ValueError, match=r"^map \(1, 2, 3\) is listed twice$"):
            build_quiver(cyc3, w8, VIRTUAL_HOPF, endos=[(1, 2, 3), (2, 3, 1), [1, 2, 3]])

    @pytest.mark.parametrize("f", [(1,), (1, 2, 3, 3)])
    def test_rejects_map_of_wrong_length(self, cyc3, w8, f):
        message = f"^map {re.escape(str(f))} has {len(f)} entries but the biquandle has 3 elements$"
        with pytest.raises(ValueError, match=message):
            build_quiver(cyc3, w8, VIRTUAL_HOPF, endos=[(1, 2, 3), f])

    def test_every_map_of_a_trivial_biquandle(self):
        # all 6^6 maps of the trivial 6-element biquandle are endomorphisms,
        # too many for a repeat check that rescans the earlier maps
        rows = tuple((x,) * 6 for x in range(1, 7))
        b = Biquandle(rows, rows)
        w = WeightTensor(6, 2, (0,) * 6**4)
        unknot = parse_gauss_code("")
        endos = b.endomorphisms()
        assert len(endos) == 6**6
        assert len(build_quiver(b, w, unknot, endos).edges) == 6 * 6**6
        with pytest.raises(ValueError, match=r"^map \(1, 1, 1, 1, 1, 1\) is listed twice$"):
            build_quiver(b, w, unknot, endos + [endos[0]])

    def test_to_dot(self, flip2, w16):
        q = build_quiver(flip2, w16, VIRTUAL_HOPF)
        assert q.to_dot() == (
            "digraph quiver {\n"
            '  v0 [label="1212 | 8"];\n'
            '  v1 [label="2121 | 8"];\n'
            "  v0 -> v0 [label=\"f0\"];\n"
            "  v1 -> v1 [label=\"f0\"];\n"
            "  v0 -> v1 [label=\"f1\"];\n"
            "  v1 -> v0 [label=\"f1\"];\n"
            "}\n"
        )


class TestQuotient:
    def test_single_weight_class(self, flip2, w16):
        quot = quotient_quiver(build_quiver(flip2, w16, VIRTUAL_HOPF))
        assert quot.weights == (8,)
        assert quot.sizes == (2,)
        assert quot.edges == ((0, 0, 4),)
        assert quot.modulus == 16

    def test_two_weight_classes(self, shift4, w4):
        quot = quotient_quiver(build_quiver(shift4, w4, VIRTUAL_HOPF))
        assert quot.weights == (0, 2)
        assert quot.sizes == (2, 2)
        assert quot.edges == ((0, 0, 4), (0, 1, 4), (1, 0, 4), (1, 1, 4))

    def test_edge_multiplicity_conserved(self, quad4, w6):
        q = build_quiver(quad4, w6, VIRTUAL_HOPF)
        quot = quotient_quiver(q)
        assert sum(m for _, _, m in quot.edges) == len(q.edges)
        assert sum(quot.sizes) == len(q.vertices)

    def test_to_dot(self, flip2, w16):
        quot = quotient_quiver(build_quiver(flip2, w16, VIRTUAL_HOPF))
        assert quot.to_dot() == (
            "digraph quotient {\n"
            '  w0 [label="8 (x2)"];\n'
            '  w0 -> w0 [label="4"];\n'
            "}\n"
        )


class TestIsomorphism:
    def test_reflexive(self, flip2, w16, shift4, w4):
        q1 = build_quiver(flip2, w16, VIRTUAL_HOPF)
        q2 = build_quiver(shift4, w4, VIRTUAL_HOPF)
        assert quiver_isomorphic(q1, q1)
        assert quiver_isomorphic(q2, q2)
        assert not quiver_isomorphic(q1, q2)

    def test_weights_distinguish_unless_ignored(self, flip2, w16):
        zero = WeightTensor(2, 16, (0,) * 16)
        q1 = build_quiver(flip2, w16, VIRTUAL_HOPF)
        q2 = build_quiver(flip2, zero, VIRTUAL_HOPF)
        assert not quiver_isomorphic(q1, q2)
        assert quiver_isomorphic(q1, q2, ignore_weights=True)

    def test_moduli_distinguish_unless_weights_ignored(self, flip2):
        q16 = build_quiver(flip2, WeightTensor(2, 16, (0,) * 16), VIRTUAL_HOPF)
        q8 = build_quiver(flip2, WeightTensor(2, 8, (0,) * 16), VIRTUAL_HOPF)
        assert q16.weights == q8.weights
        assert not quiver_isomorphic(q16, q8)
        assert quiver_isomorphic(q16, q8, ignore_weights=True)

    def test_endos_matched_by_position(self, flip2, w16):
        q1 = build_quiver(flip2, w16, VIRTUAL_HOPF, endos=[(1, 2), (2, 1)])
        q2 = build_quiver(flip2, w16, VIRTUAL_HOPF, endos=[(2, 1), (1, 2)])
        assert not quiver_isomorphic(q1, q2)

    def test_vertex_relabeling_is_isomorphism(self, cyc3, w8):
        d = parse_gauss_code("O1+U2+O3+U1+O2+U3+")
        rotations = cyc3.endomorphisms()
        q1 = build_quiver(cyc3, w8, d, endos=rotations)
        q2 = build_quiver(cyc3, w8, d.rotated(2), endos=rotations)
        assert quiver_isomorphic(q1, q2)


def _quiver(maps, weights, modulus=3):
    """A quiver on vertices 0..n-1 whose k-th endomorphism acts as ``maps[k]``."""
    n = len(weights)
    targets = tuple(tuple(f) for f in maps)
    endos = tuple((k + 1,) for k in range(len(maps)))
    return Quiver(tuple((v,) for v in range(n)), tuple(weights), targets, endos, modulus)


def _shuffled(maps, weights, rng):
    """The same quiver with its vertices renamed by a random permutation."""
    n = len(weights)
    p = rng.sample(range(n), n)
    new_maps = [[0] * n for _ in maps]
    new_weights = [0] * n
    for v in range(n):
        new_weights[p[v]] = weights[v]
        for k, f in enumerate(maps):
            new_maps[k][p[v]] = p[f[v]]
    return new_maps, new_weights


def _brute_isomorphic(q1, q2, ignore_weights):
    """Try every vertex bijection."""
    n = len(q1.vertices)
    if n != len(q2.vertices) or len(q1.endos) != len(q2.endos):
        return False
    if not ignore_weights and q1.modulus != q2.modulus:
        return False
    s1 = [[0] * n for _ in q1.endos]
    s2 = [[0] * n for _ in q2.endos]
    for table, q in ((s1, q1), (s2, q2)):
        for src, dst, k in q.edges:
            table[k][src] = dst
    for p in permutations(range(n)):
        if not ignore_weights and any(
            q1.weights[v] != q2.weights[p[v]] for v in range(n)
        ):
            continue
        if all(p[f1[v]] == f2[p[v]] for f1, f2 in zip(s1, s2) for v in range(n)):
            return True
    return False


def _random_case(rng):
    """A pair of small quivers: a shuffled copy, a copy with one entry
    changed, or an unrelated quiver.  Maps are random functions or random
    permutations, so refinement alone cannot always decide."""
    n = rng.randint(1, 7)
    k = rng.randint(1, 3)
    values = rng.randint(1, 3)

    def random_map():
        if rng.random() < 0.5:
            return rng.sample(range(n), n)
        return [rng.randrange(n) for _ in range(n)]

    maps = [random_map() for _ in range(k)]
    weights = [rng.randrange(values) for _ in range(n)]
    kind = rng.choice(("shuffled", "perturbed", "unrelated"))
    if kind == "unrelated":
        maps2 = [random_map() for _ in range(k)]
        weights2 = [rng.randrange(values) for _ in range(n)]
    else:
        maps2, weights2 = _shuffled(maps, weights, rng)
        if kind == "perturbed":
            v = rng.randrange(n)
            if rng.random() < 0.5:
                weights2[v] = (weights2[v] + 1) % 3
            else:
                f = rng.choice(maps2)
                f[v] = (f[v] + rng.randint(1, max(1, n - 1))) % n
    return _quiver(maps, weights), _quiver(maps2, weights2)


class TestIsomorphismOracle:
    """``quiver_isomorphic`` against every vertex bijection, and on pairs
    where mapping one vertex at a time used to backtrack exponentially."""

    def test_matches_brute_force(self):
        rng = random.Random(6)
        answers = {True: 0, False: 0}
        for _ in range(800):
            q1, q2 = _random_case(rng)
            for ignore in (False, True):
                expected = _brute_isomorphic(q1, q2, ignore)
                assert quiver_isomorphic(q1, q2, ignore) == expected, (q1, q2, ignore)
                answers[expected] += 1
        assert min(answers.values()) > 400, answers

    def test_edges_of_the_search(self):
        # no vertices: the empty bijection is the isomorphism, with or
        # without maps; no maps: only the weight multisets can differ
        cases = [
            (_quiver([], []), _quiver([], []), True, True),
            (_quiver([[]], []), _quiver([[]], []), True, True),
            (_quiver([], []), _quiver([[]], []), False, False),
            (_quiver([], (3, 5), 6), _quiver([], (5, 3), 6), True, True),
            (_quiver([], (3, 5), 6), _quiver([], (5, 5), 6), False, True),
            (_quiver([], (3,), 6), _quiver([], (3, 3), 6), False, False),
        ]
        for q1, q2, weighted, unweighted in cases:
            for ignore, expected in ((False, weighted), (True, unweighted)):
                assert _brute_isomorphic(q1, q2, ignore) == expected, (q1, q2, ignore)
                assert quiver_isomorphic(q1, q2, ignore) == expected, (q1, q2, ignore)
                assert quiver_isomorphic(q2, q1, ignore) == expected, (q2, q1, ignore)

    @pytest.mark.parametrize("n", [12, 16, 32, 64])
    def test_star_against_star_with_hanging_leaf(self, n):
        # one leaf of the second star maps to another leaf, not the centre;
        # only the in-structure tells them apart
        rng = random.Random(n)
        star = [0] * n
        hanging = [0] * (n - 1) + [1]
        q1 = _quiver(*_shuffled([star], [0] * n, rng))
        q2 = _quiver(*_shuffled([hanging], [0] * n, rng))
        assert not quiver_isomorphic(q1, q2, ignore_weights=True)
        assert quiver_isomorphic(q1, _quiver(*_shuffled([star], [0] * n, rng)))

    def test_identity_map_succeeds_without_backtracking(self):
        # every vertex is a loop, so all 64! bijections are isomorphisms
        rng = random.Random(0)
        maps, weights = [list(range(64))], [v % 2 for v in range(64)]
        q2 = _quiver(*_shuffled(maps, weights, rng))
        assert quiver_isomorphic(_quiver(maps, weights), q2)
        assert not quiver_isomorphic(_quiver(maps, [0] * 64), q2)
        assert quiver_isomorphic(_quiver(maps, [0] * 64), q2, ignore_weights=True)

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_identity_map_beyond_the_recursion_limit(self, n):
        # every vertex is a loop of one weight, so the search branches once
        # per vertex: as deep as the quiver is large
        maps, weights = [list(range(n))], [0] * n
        q = _quiver(maps, weights)
        assert quiver_isomorphic(q, q)
        assert quiver_isomorphic(q, _quiver(*_shuffled(maps, weights, random.Random(n))))
