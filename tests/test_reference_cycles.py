"""The coloring, quiver and weight-sum paths leave no reference cycles.

An object caught in a reference cycle is freed only by the cyclic garbage
collector, and each collection pass costs time in proportion to the objects
alive.  These paths allocate only what they return, so a collection run
right after them, with automatic collection held off in between, finds
nothing unreachable.  Each test clears the caches first, so that the solver
and the sums really run.
"""

import gc
from contextlib import contextmanager

import pytest

from arrowquiver import arrowweight, homset
from arrowquiver.arrowweight import _integer_rows, is_valid_weight, weight_multiset
from arrowquiver.gausscode import R3Slide, enumerate_moves, parse_gauss_code
from arrowquiver.homset import enumerate_colorings, transport_colorings
from arrowquiver.quiver import build_quiver

CODES = (
    "",
    "O1+U1+",
    "O1+O2+U1+U2+",
    "O1+U2+O3+U1+O2+U3+",
    "O1-U2-O3-U1-O2-U3-",
    "U1+U2+O1+U3+O2+O3+",
    "O1-U2+O3-U4+O2+U1-O4+U3-",
)

PAIRS = {
    "flip2/16": ("flip2", "w16"),
    "cyc3/8": ("cyc3", "w8"),
    "cyc3/3": ("cyc3", "w3"),
    "quad4/6": ("quad4", "w6"),
    "shift4/4": ("shift4", "w4"),
}


def _clear_caches() -> None:
    for cached in (
        homset._colorings,
        homset._relation,
        homset._orbits,
        arrowweight._weight_sums,
        arrowweight._integer_rows,
        arrowweight.generate_constraints,
    ):
        cached.cache_clear()


def _diagrams() -> list:
    """Diagrams built anew, so that none has its tables compiled yet."""
    return [parse_gauss_code(code) for code in CODES]


@contextmanager
def _no_cycles_left():
    """Run the body with automatic collection off; a collection afterwards
    must find no unreachable object."""
    _clear_caches()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=PAIRS)
def pair(request):
    name, tensor = PAIRS[request.param]
    return request.getfixturevalue(name), request.getfixturevalue(tensor)


def test_enumerate_colorings(pair):
    b, _ = pair
    with _no_cycles_left():
        for d in _diagrams():
            enumerate_colorings(b, d)


def test_transport_colorings(pair):
    b, _ = pair
    diagrams = _diagrams()
    # every fifth move of each diagram, and every slide
    moves = [
        [mv for i, mv in enumerate(enumerate_moves(d)) if i % 5 == 0 or isinstance(mv, R3Slide)]
        for d in diagrams
    ]
    assert any(isinstance(mv, R3Slide) for ms in moves for mv in ms)
    with _no_cycles_left():
        for d, ms in zip(diagrams, moves):
            colorings = enumerate_colorings(b, d)
            for move in ms:
                transport_colorings(b, d, move, colorings)


def test_build_quiver(pair):
    b, w = pair
    endos = b.endomorphisms()
    with _no_cycles_left():
        for d in _diagrams():
            build_quiver(b, w, d, endos)


def test_weight_multiset(pair):
    b, w = pair
    with _no_cycles_left():
        for d in _diagrams():
            weight_multiset(b, w, d)
            weight_multiset(b, w, d, check_rotations=True)


def test_integer_rows(flip2, cyc3):
    for b in (flip2, cyc3):
        with _no_cycles_left():
            _integer_rows(b)


def test_is_valid_weight(pair):
    b, w = pair
    with _no_cycles_left():
        assert is_valid_weight(b, w, trials=10)
