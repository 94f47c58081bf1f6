"""Biquandle colorings of Gauss diagrams and their transport through moves.

A coloring assigns an element of the biquandle to every semiarc.  Walking
the knot, the color changes only at crossing passages, by the crossing
convention of :mod:`arrowquiver.biquandle`: the colors (u_in, u_out, o_in,
o_out) around a positive crossing form one of
:attr:`~arrowquiver.biquandle.Biquandle.crossings`, and those around a
negative crossing, the formal inverse, form one with in and out exchanged
on both strands.

The number of colorings is the biquandle counting invariant.  Each crossing
also gets an *arrow label*, the pair of colors that sits at the positive
sense of the crossing: (u_in, o_out) at a positive crossing and
(u_out, o_in) at a negative one, which is the same pair read through the
inverse crossing.  Arrow weight sums (:mod:`arrowquiver.arrowweight`) are
functions of these labels.

Search: one solver finds every coloring that extends a partial one.  It
reads the diagram compiled to flat tables
(:attr:`~arrowquiver.gausscode.GaussDiagram.compiled`: the four semiarc
slots around each chord, the relation table each chord reads and the
slots each semiarc fills) and, per biquandle, the crossing relation:
one table per crossing kind (sign, and kink shape: whether a kink makes
u_in and o_out, or u_out and o_in, one semiarc), which maps the known
colors around a crossing to the entry (m0, m1, m2, m3, forced).  m_k is
the mask of the values that the solutions of the crossing's equations
agreeing with the known colors give slot k, and ``forced`` the slots to
which all of them give one value, with that value; a table has at most
16 n^2 keys.  The solver propagates, then branches: a crossing gets its
forced values with one table lookup, a crossing whose known colors have
no entry prunes the branch, and a crossing waits in the queue at most
once, since it is queued again only after it has been taken out.
By axiom B2 the colors of (u_in, o_out), (o_in, u_out), (u_in, o_in) or
(u_out, o_out) each fix a crossing, so propagation usually runs around the
whole knot.  When nothing is forced, the uncolored semiarc whose crossings
allow the fewest values is tried with each of them in ascending order.
The search is one loop over an explicit stack, the idiom of
:meth:`~arrowquiver.biquandle.Biquandle._maps`: one trail lists the
semiarcs propagation colored, in order, and each open branch point holds
its semiarc, the values still to try and the length of the trail when it
branched, so going back to it uncolors the trail past that length.  Its
depth therefore does not count against the recursion limit, and a search
allocates no closure and leaves no reference cycle for the garbage
collector to find.
:func:`enumerate_colorings` runs the solver once per orbit of the
biquandle's automorphism group on its elements, with semiarc 0 colored by
the orbit's least element r: an automorphism f sends the colorings with r
there one-to-one onto those with f(r), so the rest of the orbit is read off
as images.  The orbits, and one automorphism carrying r to each other
element of its orbit, come from the map search that also lists the
endomorphisms (:meth:`~arrowquiver.biquandle.Biquandle._maps`), asked for
the first bijective map with one image fixed; they are built on a
biquandle's first enumeration and cached with its relation tables.
The colorings of the 64 most recently used (biquandle, diagram) pairs are
cached, and :mod:`arrowquiver.arrowweight` caches their weight sums alike,
as :mod:`arrowquiver.gausscode` caches compiled tables, all under one
bound: the reuse these caches serve lies within one call chain (a
diagram's tables, its colorings, then its weight sums and its quiver), so
a diagram rendered long ago is not kept alive, and its tables are not kept
by a caller that holds the diagram.

Transport: performing a Reidemeister move on a colored diagram leaves the
colors of all semiarcs outside the move disk unchanged and determines the
colors inside uniquely.  :func:`transport_colorings` carries any number of
colorings of one diagram through one move.  The move engine of
:mod:`arrowquiver.gausscode` places the passages and reports, once, the
semiarc map: per new semiarc, the old semiarc whose color it keeps (none
inside the move disk), and the pairs of old semiarcs a deletion joins.
Every move then takes one path per coloring: joined semiarcs must agree,
and the same solver extends the kept colors to the moved diagram (after a
deletion it only checks the crossing equations).  :class:`TransportError`
is raised if a coloring was not valid or the move does not match.
:func:`transport_coloring` is the one-coloring case.  Callers holding the
list :func:`enumerate_colorings` returned skip the input check through
:func:`_transport`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

from .biquandle import Biquandle
from .gausscode import _DIAGRAMS_CACHED, LABEL_SLOTS, GaussDiagram, Move, _moved

__all__ = [
    "enumerate_colorings",
    "counting_invariant",
    "is_coloring",
    "chord_colors",
    "arrow_label",
    "transport_coloring",
    "transport_colorings",
    "TransportError",
]


class TransportError(RuntimeError):
    """A coloring could not be carried through a move."""


def chord_colors(
    d: GaussDiagram, coloring: tuple[int, ...], chord: int
) -> tuple[int, int, int, int]:
    """The four semiarc colors (u_in, u_out, o_in, o_out) around a chord,
    whose label must be an ``int`` from 1 to n (KeyError otherwise)."""
    slots = d.compiled.slots
    if not (type(chord) is int and 0 < chord <= len(slots)):
        raise KeyError(chord)
    s0, s1, s2, s3 = slots[chord - 1]
    return coloring[s0], coloring[s1], coloring[s2], coloring[s3]


@lru_cache(maxsize=64)
def _relation(b: Biquandle) -> dict[tuple[int, int], dict[int, tuple]]:
    """One biquandle's crossing relation, tabulated for the solver: one
    table per crossing kind (sign, shape).

    A partial tuple (u_in, u_out, o_in, o_out) is encoded as the integer sum
    of v_k * (n+1)^k, with v_k = 0 for an unknown slot.  The table of a kind
    maps the key of each partial tuple that some valid tuple (one satisfying
    a crossing's equations) extends to the entry (m0, m1, m2, m3, forced):
    m_k is the bitmask of the values those tuples give slot k, and
    ``forced`` holds the (position, value) pairs of its unknown slots on
    which every one of them agrees, which is what propagation assigns.  A
    key that no valid tuple extends is absent, so a table has at most
    16 n^2 keys, and a tuple over 1..n is valid exactly when its key is in
    the table of (sign, 0).  ``shape`` marks the slots that coincide at a
    kink: bit 0 for u_in == o_out, bit 1 for u_out == o_in; the table of a
    shape keeps only tuples that agree on the coinciding slots, and a slot
    that a kink joins to an earlier one (o_out at bit 0, o_in at bit 1) is
    left out of ``forced``, so the pairs of one key color distinct semiarcs.
    """
    r = b.n + 1
    pos = b.crossings
    neg = [(u_out, u_in, o_out, o_in) for u_in, u_out, o_in, o_out in pos]
    tables: dict[tuple[int, int], dict[int, tuple]] = {}
    for sign, tuples in ((1, pos), (-1, neg)):
        for shape in range(4):
            # per set of known slots (bit k for slot k), the slots a key
            # may force: the unknown ones, less o_out or o_in where a kink
            # joins it to u_in or u_out
            joined = (shape & 1) << 3 | (shape & 2) << 1
            forcible = [
                [k for k in range(4) if not (known | joined) >> k & 1]
                for known in range(16)
            ]
            masks: dict[int, tuple[int, ...]] = {}
            free: dict[int, list[int]] = {}  # per key, the slots it may force
            for t in tuples:
                if (shape & 1 and t[0] != t[3]) or (shape & 2 and t[1] != t[2]):
                    continue
                bits = tuple(1 << v for v in t)
                keys = [0]  # the keys of t's 16 partial tuples, by known slots
                for k in range(4):
                    keys += [key + t[k] * r**k for key in keys]
                for known, key in enumerate(keys):
                    m = masks.get(key)
                    if m is None:
                        masks[key] = bits
                        free[key] = forcible[known]
                    else:
                        masks[key] = tuple([x | y for x, y in zip(m, bits)])
            table = tables[sign, shape] = {}
            for key, m in masks.items():
                forced = [(k, m[k].bit_length() - 1) for k in free[key] if not m[k] & (m[k] - 1)]
                table[key] = m + (tuple(forced),)
    return tables


# images the automorphism search of one biquandle may try in all, so that a
# large biquandle never costs a search over all n! bijections; past it, the
# elements not yet placed become representatives of their own
_AUTOMORPHISM_BUDGET = 1 << 16


@lru_cache(maxsize=64)
def _orbits(b: Biquandle) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The orbits of Aut(b) on its elements, as (r, carriers) pairs.

    ``r`` is the least element of its orbit.  ``carriers`` holds, for every
    other element a of the orbit in ascending order, one automorphism g
    with g(r) == a, as the tuple (0, g(1), ..., g(n)), so that g[v] is the
    image of v.  Each element is tried against the representatives found
    so far and becomes one itself when no automorphism carries any of them
    to it; the first automorphism that the one map search of
    :mod:`arrowquiver.biquandle` meets is kept, and all these searches
    share one budget.  Should it be spent, an element is kept as
    its own representative: an orbit may then be split in several, which
    costs the coloring search speed, never correctness.
    """
    budget = [_AUTOMORPHISM_BUDGET]
    orbits: list[tuple[int, list[tuple[int, ...]]]] = []
    for a in b.elements:
        for r, carriers in orbits:
            g = next(b._maps(((r, a),), injective=True, budget=budget), None)
            if g is not None:
                carriers.append(g)
                break
        else:
            orbits.append((a, []))
    return tuple((r, tuple(carriers)) for r, carriers in orbits)


def is_coloring(b: Biquandle, d: GaussDiagram, coloring: tuple[int, ...]) -> bool:
    """Whether ``coloring`` satisfies every crossing equation of ``d``.

    Every color must equal one of 1..n: a key built from any other value
    could collide with a key of the relation table."""
    return _all_colorings(b, d, (coloring,))


def _all_colorings(b: Biquandle, d: GaussDiagram, colorings) -> bool:
    """:func:`is_coloring` of each of ``colorings``, reading the tables of
    ``d`` once."""
    elements = range(1, b.n + 1)
    rel, r = _relation(b), b.n + 1
    tables = {1: rel[1, 0], -1: rel[-1, 0]}
    cd, semiarcs = d.compiled, d.num_semiarcs
    for coloring in colorings:
        if len(coloring) != semiarcs or not all(map(elements.__contains__, coloring)):
            return False
        for (s0, s1, s2, s3), (sign, _) in zip(cd.slots, cd.kind):
            key = coloring[s0] + r * (coloring[s1] + r * (coloring[s2] + r * coloring[s3]))
            if key not in tables[sign]:
                return False
    return True


def enumerate_colorings(
    b: Biquandle, d: GaussDiagram
) -> list[tuple[int, ...]]:
    """All colorings of ``d`` by ``b``, sorted lexicographically.

    An automorphism f of ``b`` carries each coloring c to the coloring
    f∘c, so the colorings with color f(r) on semiarc 0 are the images of
    those with color r there.  The search therefore runs once per
    representative r of an orbit of Aut(b) on the elements, with semiarc 0
    colored r, and the colorings for every other root color a of the orbit
    are the images under one automorphism carrying r to a.

    Each search propagates, then branches.  A crossing whose known semiarc
    colors leave one value for another of its semiarcs colors it; no
    solution of its equations prunes the branch.  When nothing more is
    forced, the uncolored semiarc with the fewest values its crossings
    still allow is tried with each of them in ascending order.
    """
    return list(_colorings(b, d))


# the one bound of the diagram caches, set and explained in gausscode
@lru_cache(maxsize=_DIAGRAMS_CACHED)
def _colorings(b: Biquandle, d: GaussDiagram) -> tuple[tuple[int, ...], ...]:
    found: list[tuple[int, ...]] = []
    start = [0] * d.num_semiarcs
    for r, carriers in _orbits(b):
        start[0] = r
        rooted = _extensions(b, d, start)
        found += rooted
        for g in carriers:
            found += [tuple(map(g.__getitem__, c)) for c in rooted]
    return tuple(sorted(found))


def _extensions(
    b: Biquandle, d: GaussDiagram, start: list[int]
) -> list[tuple[int, ...]]:
    """Every coloring of ``d`` that agrees with ``start`` where it is
    nonzero (0 marks an uncolored semiarc), in the order of the search.

    One loop propagates and branches.  ``trail`` lists the semiarcs that
    propagation colored, in order, and ``stack`` the open branch points as
    [semiarc, values still to try, length of the trail at the branch]; going
    back to a branch point uncolors the trail past its length.
    """
    cd = d.compiled
    rel = _relation(b)
    r = b.n + 1
    r2, r3 = r * r, r * r * r
    everything = (1 << r) - 2  # the mask of all values 1..n
    slots, touching = cd.slots, cd.touching
    # per chord: the table of its sign and kink shape
    tables = [rel[kind] for kind in cd.kind]
    val = list(start)
    queue = list(range(len(slots)))
    queued = [True] * len(slots)  # exactly the chords in the queue
    trail: list[int] = []
    stack: list[list[int]] = []
    found: list[tuple[int, ...]] = []
    while True:
        # propagate: a crossing's known colors may force others
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
                break
            for k, v in entry[4]:
                s = sl[k]
                val[s] = v
                trail.append(s)
                for c, _ in touching[s]:
                    if not queued[c]:
                        queued[c] = True
                        queue.append(c)
            # unqueued only now: the values it forced leave it nothing more
            queued[ch] = False
        else:
            # consistent: branch on the uncolored semiarc with the fewest
            # values its crossings allow, or report a complete coloring
            best, best_values, fewest = -1, 0, r
            for s, v in enumerate(val):
                if v:
                    continue
                allowed = everything
                for ch, k in touching[s]:
                    s0, s1, s2, s3 = slots[ch]
                    allowed &= tables[ch][
                        val[s0] + r * val[s1] + r2 * val[s2] + r3 * val[s3]
                    ][k]
                count = allowed.bit_count()
                if count < fewest:
                    best, best_values, fewest = s, allowed, count
                    if count <= 1:
                        break
            if best < 0:
                found.append(tuple(val))
            else:
                stack.append([best, best_values, len(trail)])
        # the next value of the innermost open branch point, if any
        while stack:
            top = stack[-1]
            s, left, mark = top
            for t in trail[mark:]:
                val[t] = 0
            del trail[mark:]
            if left:
                low = left & -left
                top[1] = left ^ low
                val[s] = low.bit_length() - 1
                for c, _ in touching[s]:
                    if not queued[c]:
                        queued[c] = True
                        queue.append(c)
                break
            val[s] = 0
            stack.pop()
        else:
            return found


def counting_invariant(b: Biquandle, d: GaussDiagram) -> int:
    """The number of colorings of ``d`` by ``b``."""
    return len(enumerate_colorings(b, d))


def arrow_label(
    d: GaussDiagram, coloring: tuple[int, ...], chord: int
) -> tuple[int, int]:
    """The label (under color in, over color out) in the positive sense.

    At a negative crossing the positive sense is reached by inverting the
    crossing, which exchanges in and out on both strands.
    """
    colors = chord_colors(d, coloring, chord)
    i, j = LABEL_SLOTS[d.sign_of(chord)]
    return colors[i], colors[j]


# ---------------------------------------------------------------------------
# transport


def _solve_middles(
    b: Biquandle, d2: GaussDiagram, partial: list[int | None]
) -> tuple[int, ...]:
    """The unique coloring of ``d2`` that extends ``partial``."""
    solutions = _extensions(b, d2, [v or 0 for v in partial])
    if len(solutions) != 1:
        raise TransportError(
            f"expected a unique extension, found {len(solutions)}"
        )
    return solutions[0]


def transport_colorings(
    b: Biquandle, d: GaussDiagram, move: Move, colorings: Iterable[tuple[int, ...]]
) -> tuple[GaussDiagram, list[tuple[int, ...]]]:
    """Carry colorings of ``d`` through ``move`` together.

    Returns ``apply_move(d, move)`` and the image of each coloring, in
    order; semiarcs away from the move keep their colors.  The move engine
    gives the moved diagram and its semiarc map once per call.  Each
    coloring is then carried on its own, the same way for every move: the
    old semiarcs a deletion joins must agree, and the solver extends the
    kept colors to the unique coloring of the moved diagram.
    Raises :class:`TransportError` when a coloring is invalid, its joined
    semiarcs disagree, or it has no unique extension (each signals a
    non-move).
    """
    colorings = list(colorings)
    if not _all_colorings(b, d, colorings):
        raise TransportError("not a coloring of the input diagram")
    return _transport(b, d, move, colorings)


def _transport(
    b: Biquandle, d: GaussDiagram, move: Move, colorings: list[tuple[int, ...]]
) -> tuple[GaussDiagram, list[tuple[int, ...]]]:
    """:func:`transport_colorings` of colorings known to be colorings of
    ``d``, such as those :func:`enumerate_colorings` returned."""
    d2, keep, joins = _moved(d, move)
    images = []
    for c in colorings:
        if any(c[i] != c[j] for i, j in joins):
            raise TransportError("move disk boundary colors disagree")
        images.append(
            _solve_middles(b, d2, [None if i is None else c[i] for i in keep])
        )
    return d2, images


def transport_coloring(
    b: Biquandle, d: GaussDiagram, move: Move, coloring: tuple[int, ...]
) -> tuple[int, ...]:
    """Carry one coloring of ``d`` through ``move``: a one-element
    :func:`transport_colorings`, whose result colors ``apply_move(d, move)``."""
    return transport_colorings(b, d, move, [coloring])[1][0]
