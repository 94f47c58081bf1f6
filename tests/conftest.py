from itertools import product
from pathlib import Path

import pytest

from arrowquiver.arrowweight import WeightTensor, _r3_template_hosts
from arrowquiver.biquandle import load as load_biquandle, parse_endos
from arrowquiver.gausscode import Endpoint, GaussDiagram, R1Insert, R2Insert, enumerate_moves
from arrowquiver.knotdata import bundled_path, bundled_table

TESTS = Path(__file__).parent


@pytest.fixture(scope="session")
def flip2():
    return load_biquandle(bundled_path("biquandle_flip2.txt"))


@pytest.fixture(scope="session")
def cyc3():
    return load_biquandle(bundled_path("biquandle_cyc3.txt"))


@pytest.fixture(scope="session")
def quad4():
    return load_biquandle(bundled_path("biquandle_quad4.txt"))


@pytest.fixture(scope="session")
def shift4():
    return load_biquandle(bundled_path("biquandle_shift4.txt"))


@pytest.fixture(scope="session")
def w16():
    return WeightTensor.load(bundled_path("weight_flip2_z16.txt"))


@pytest.fixture(scope="session")
def w8():
    return WeightTensor.load(bundled_path("weight_cyc3_z8.txt"))


@pytest.fixture(scope="session")
def w3():
    return WeightTensor.load(bundled_path("weight_cyc3_z3.txt"))


@pytest.fixture(scope="session")
def w6():
    return WeightTensor.load(bundled_path("weight_quad4_z6.txt"))


@pytest.fixture(scope="session")
def w4():
    return WeightTensor.load(bundled_path("weight_shift4_z4.txt"))


def _read_endos(name: str, b) -> list[tuple[int, ...]]:
    path = bundled_path(name)
    return parse_endos(Path(path).read_text(encoding="utf-8"), b, str(path))


@pytest.fixture(scope="session")
def endos_cyc3(cyc3):
    return _read_endos("endos_cyc3.txt", cyc3)


@pytest.fixture(scope="session")
def endos_quad4(quad4):
    return _read_endos("endos_quad4.txt", quad4)


@pytest.fixture(scope="session")
def endos_shift4(shift4):
    return _read_endos("endos_shift4.txt", shift4)


@pytest.fixture(scope="session")
def table():
    return bundled_table()


def read_rows(name: str) -> dict[str, str]:
    rows = {}
    for line in (TESTS / "data" / name).read_text(encoding="utf-8").splitlines():
        knot, render = line.split("\t")
        rows[knot] = render
    return rows


def listed_move(rng, d):
    """One scramble step's move: ``rng.choice`` over ``enumerate_moves(d)``,
    without the insertions once ``d`` has 6 chords, or None if no move is
    left.  Validity trials draw their moves this way."""
    moves = enumerate_moves(d)
    if d.n >= 6:
        moves = [mv for mv in moves if not isinstance(mv, (R1Insert, R2Insert))]
    return rng.choice(moves) if moves else None


def spectator_hosts() -> list[GaussDiagram]:
    """Every slide host with one spectator chord 4, kinked or not: each
    placement of the spectator's passages (e1, e2) into the inter-block gaps
    (g1, g2) of each bare host, both passage orders and repeated gaps
    included, as 96 distinct words in order of first occurrence.  In 48 of
    them the spectator is a kink; ``_r3_template_hosts(1)`` lists the others."""
    words = []
    for bare in _r3_template_hosts(0):
        blocks = [bare.endpoints[i : i + 2] for i in (0, 2, 4)]
        for sign in (1, -1):
            ends = (Endpoint(4, "O", sign), Endpoint(4, "U", sign))
            for e1, e2 in (ends, ends[::-1]):
                for g1, g2 in product(range(3), repeat=2):
                    gaps = [[], [], []]
                    gaps[g1].append(e1)
                    gaps[g2].append(e2)
                    word = [e for blk, gap in zip(blocks, gaps) for e in (*blk, *gap)]
                    words.append(GaussDiagram(tuple(word)))
    return list(dict.fromkeys(words))
