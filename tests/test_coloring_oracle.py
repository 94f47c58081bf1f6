"""An exact coloring oracle: Alexander biquandles, colored by linear algebra.

On Z_n, under(x, y) = t x + (s - t) y and over(x, y) = s x define a
biquandle when t and s are units (element x of 1..n is read as x - 1).  Each
crossing equation of the sign rule in :mod:`arrowquiver.homset` is then
linear, so the colorings of a diagram are the kernel of a homogeneous
system over Z_n.  The Z_m solver counts that kernel and lists it in
lexicographic order, with no search, and both must match what the
coloring search finds.
"""

import random

import pytest

from arrowquiver.arrowweight import SolutionSet, _random_diagram_of_size
from arrowquiver.biquandle import Biquandle, validate_tables
from arrowquiver.homset import enumerate_colorings

ALEXANDER = [(4, 3, 1), (5, 2, 3), (7, 3, 2), (8, 3, 5), (9, 2, 4)]


def _alexander(n: int, t: int, s: int) -> Biquandle:
    under = tuple(tuple((t * x + (s - t) * y) % n + 1 for y in range(n)) for x in range(n))
    over = tuple(tuple(s * x % n + 1 for _ in range(n)) for x in range(n))
    assert validate_tables(under, over) == []
    return Biquandle(under, over)


def _coloring_rows(d, t: int, s: int) -> list[dict[int, int]]:
    """Two equations per crossing, on the semiarcs of the word:
    u_out = t u_in + (s - t) o_out and o_in = s o_out at a positive crossing,
    u_in = t u_out + (s - t) o_in and o_out = s o_in at a negative one.  A
    kink names one semiarc twice, so coefficients are added up."""
    two_n = len(d.endpoints)
    at = {(e.chord, e.passage): i for i, e in enumerate(d.endpoints)}
    rows = []
    for chord in range(1, d.n + 1):
        u, o = at[chord, "U"], at[chord, "O"]
        u_in, u_out, o_in, o_out = (u - 1) % two_n, u, (o - 1) % two_n, o
        if d.endpoints[u].sign < 0:
            u_in, u_out, o_in, o_out = u_out, u_in, o_out, o_in
        for terms in (((u_out, 1), (u_in, -t), (o_out, t - s)), ((o_in, 1), (o_out, -s))):
            row: dict[int, int] = {}
            for semiarc, c in terms:
                row[semiarc] = row.get(semiarc, 0) + c
            rows.append(row)
    return rows


@pytest.mark.parametrize("n, t, s", ALEXANDER)
def test_colorings_are_the_kernel_of_the_crossing_equations(n, t, s):
    b = _alexander(n, t, s)
    rng = random.Random(20261019 + n)
    for chords in range(31):
        d = _random_diagram_of_size(rng, chords)
        kernel = SolutionSet(d.num_semiarcs, n, _coloring_rows(d, t, s))
        colorings = enumerate_colorings(b, d)
        assert len(colorings) == kernel.count(), (n, str(d))
        assert colorings == [tuple(v + 1 for v in c) for c in kernel], (n, str(d))
