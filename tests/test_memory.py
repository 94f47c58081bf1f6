"""What the compiled-table, coloring and weight-sum caches keep, and what
diagrams, compiled tables and moves hold.

The caches of :mod:`arrowquiver.gausscode`, :mod:`arrowquiver.homset` and
:mod:`arrowquiver.arrowweight` serve the reuse within one call chain (a
diagram's tables, its colorings, then its weight sums and its quiver), so
they must hold that much and no more: a diagram rendered and dropped long
ago must be freed, and one still held by a caller holds only its word and
hash, not its tables.  Compiled tables share the small tuples that repeat
across diagrams, and neither they nor the moves carry an instance
dictionary.
"""

import dataclasses
import gc
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import chain

import pytest

from arrowquiver import arrowweight, gausscode, homset
from arrowquiver.arrowweight import (
    _random_diagram_of_size,
    _weight_sums,
    is_valid_weight,
    weight_multiset,
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
    parse_gauss_code,
)
from arrowquiver.homset import enumerate_colorings
from arrowquiver.quiver import build_quiver

from conftest import listed_move

TREFOIL = "O1+U2+O3+U1+O2+U3+"


def _scramble_items(count: int, seed: int) -> list:
    """Seeded (d1, d2) pairs as a scramble item makes them: a random diagram
    of 0-6 chords, and the diagram 1-8 listed moves away from it."""
    rng = random.Random(seed)
    items = []
    for _ in range(count):
        d1 = d2 = _random_diagram_of_size(rng, rng.randint(0, 6))
        for _ in range(rng.randint(1, 8)):
            move = listed_move(rng, d2)
            if move is None:
                break
            d2 = apply_move(d2, move)
        items.append((d1, d2))
    return items


class TestCacheReuse:
    def test_a_scramble_item_searches_and_sums_each_diagram_once(
        self, monkeypatch, quad4, w6, endos_quad4
    ):
        searched, summed = Counter(), Counter()
        extensions, sums = homset._extensions, arrowweight._sums

        def counted_extensions(b, d, start):
            searched[d] += 1
            return extensions(b, d, start)

        def counted_sums(w, d, colorings):
            summed[d] += 1
            return sums(w, d, colorings)

        monkeypatch.setattr(homset, "_extensions", counted_extensions)
        monkeypatch.setattr(arrowweight, "_sums", counted_sums)
        homset._colorings.cache_clear()
        arrowweight._weight_sums.cache_clear()
        orbits = len(homset._orbits(quad4))
        assert orbits == 2
        seen = set()
        for d1, d2 in _scramble_items(3 * gausscode._DIAGRAMS_CACHED, 20261019):
            searched.clear()
            summed.clear()
            # the calls of one scramble item, in its order
            enumerate_colorings(quad4, d1)
            enumerate_colorings(quad4, d2)
            weight_multiset(quad4, w6, d1)
            weight_multiset(quad4, w6, d2)
            build_quiver(quad4, w6, d1, endos_quad4)
            build_quiver(quad4, w6, d2, endos_quad4)
            assert set(searched) <= {d1, d2} and set(summed) <= {d1, d2}
            for d in {d1, d2}:
                # a diagram of an earlier item may still be cached
                expected = {(orbits, 1)} if d not in seen else {(orbits, 1), (0, 0)}
                assert (searched[d], summed[d]) in expected, str(d)
            seen |= {d1, d2}

    def test_validity_trials_search_only_their_starting_diagrams(self, monkeypatch, quad4, w6):
        arrowweight.generate_constraints(quad4, w6.m)
        starts = []
        enumerate_colorings_ = arrowweight.enumerate_colorings

        def counted(b, d):
            starts.append(d)
            return enumerate_colorings_(b, d)

        monkeypatch.setattr(arrowweight, "enumerate_colorings", counted)
        assert is_valid_weight(quad4, w6, trials=40)
        assert len(starts) == 40


class TestCacheRetention:
    # distinct diagrams rendered after the first, more than the caches hold
    RENDERED = 256

    def test_rendered_diagrams_are_freed(self, cyc3, w8, endos_cyc3):
        rng = random.Random(20261019)
        words = {}
        while len(words) <= self.RENDERED:
            d = _random_diagram_of_size(rng, 3)
            words.setdefault(str(d), d)
        diagrams = list(words.values())
        first = weakref.ref(diagrams[0])
        for d in diagrams:
            build_quiver(cyc3, w8, d, endos_cyc3)
        del d, diagrams, words
        gc.collect()
        assert first() is None

    def test_held_diagrams_do_not_hold_their_tables(self, cyc3, w8, endos_cyc3):
        def live_tables() -> int:
            gc.collect()
            return sum(type(o) is gausscode.CompiledDiagram for o in gc.get_objects())

        rng = random.Random(20261020)
        words = {}
        while len(words) < self.RENDERED:
            d = _random_diagram_of_size(rng, rng.randint(1, 4))
            words.setdefault(str(d), d)
        held = list(words.values())
        gausscode._compiled.cache_clear()
        before = live_tables()
        for d in held:
            build_quiver(cyc3, w8, d, endos_cyc3)
        assert live_tables() - before <= gausscode._DIAGRAMS_CACHED
        assert all(set(d.__dict__) == {"endpoints", "_hash"} for d in held)
        # the first diagram's tables were evicted: reading them builds them
        # again, equal to a fresh compile
        misses = gausscode._compiled.cache_info().misses
        first = held[0]
        assert first.compiled == gausscode._compile(first.endpoints)
        assert gausscode._compiled.cache_info().misses == misses + 1

    def test_cache_bound(self):
        assert gausscode._DIAGRAMS_CACHED < self.RENDERED
        for cached in (homset._colorings, arrowweight._weight_sums):
            assert cached.cache_parameters()["maxsize"] == gausscode._DIAGRAMS_CACHED

    def test_compiled_tables_share_the_bound(self):
        assert gausscode._compiled.cache_parameters()["maxsize"] == gausscode._DIAGRAMS_CACHED


class TestQuiverBuild:
    # the peak that tracemalloc read for the build below when the index of
    # build_quiver was keyed by a fresh tuple per coloring (Python 3.11)
    FRESH_KEYS_PEAK = 1_665_516

    def test_the_index_holds_no_second_copy_of_the_colorings(self, quad4, w6, endos_quad4):
        # the connected sum of three copies of 4.99: 4 096 colorings by quad4
        word = parse_gauss_code("U1-O2-O1-U2-U3-O4-O3-U4-").endpoints
        d = GaussDiagram(
            tuple(Endpoint(e.chord + 4 * k, e.passage, e.sign) for k in range(3) for e in word)
        )
        assert len(homset._colorings(quad4, d)) == 4096
        _weight_sums(quad4, w6, d)
        tracemalloc.start()
        try:
            q = build_quiver(quad4, w6, d, endos_quad4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.vertices is homset._colorings(quad4, d)
        assert peak <= self.FRESH_KEYS_PEAK // 2, peak


class TestLayout:
    def test_compiled_diagrams_share_their_slot_references_and_kinds(self):
        rng = random.Random(20261019)
        refs, kinds = {}, {}
        diagrams = [parse_gauss_code(TREFOIL), parse_gauss_code(TREFOIL).mirrored()]
        diagrams += [_random_diagram_of_size(rng, rng.randint(0, 8)) for _ in range(300)]
        for d in diagrams:
            cd = d.compiled
            for ref in chain.from_iterable(cd.touching):
                assert refs.setdefault((d.n, ref), ref) is ref
                assert ref is gausscode._slot_refs(d.n)[4 * ref[0] + ref[1]]
            for kind in cd.kind:
                assert kinds.setdefault(kind, kind) is kind
        assert len(kinds) == 8
        # every slot reference of the trefoil occurs in its mirror image too
        one, two = (d.compiled for d in diagrams[:2])
        first = set(map(id, chain.from_iterable(one.touching)))
        assert first == set(map(id, chain.from_iterable(two.touching)))
        assert len(first) == 12

    def test_compiled_tables_and_moves_have_no_instance_dict(self):
        d = parse_gauss_code(TREFOIL)
        moves = [
            R1Insert(0, False, 1),
            R1Delete(3),
            R2Insert(1, 2, True, -1),
            R2Delete(0, 4, False),
            R3Slide((1, 10, 6), "L", (1, 5, 2), -1),
        ]
        for obj in (d.compiled, *moves):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        # diagrams keep theirs: it holds their word and cached hash, and the
        # tables sit in the bounded cache of gausscode._compiled
        assert hasattr(d, "__dict__")
        assert [repr(m) for m in moves] == [
            "R1Insert(gap=0, head_first=False, sign=1)",
            "R1Delete(start=3)",
            "R2Insert(gap_over=1, gap_under=2, antiparallel=True, sign=-1)",
            "R2Delete(over_start=0, under_start=4, antiparallel=False)",
            "R3Slide(sites=(1, 10, 6), form='L', chords=(1, 5, 2), eps=-1)",
        ]
        for m in moves:
            values = tuple(getattr(m, f.name) for f in dataclasses.fields(m))
            twin = type(m)(*values)
            assert twin == m and hash(twin) == hash(m) == hash(values)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, dataclasses.fields(m)[0].name, 0)
        cd = d.compiled
        assert gausscode._compile(d.endpoints) == cd
        assert hash(gausscode._compile(d.endpoints)) == hash(cd)
