"""Signed Gauss codes and Reidemeister moves on them.

A signed Gauss code records the sequence of crossing passages met while
traversing an oriented knot diagram from a basepoint: each crossing is met
once on the overstrand (O) and once on the understrand (U), and carries a
sign.  The code ``O1+U2-U1+O2-`` means: over crossing 1 (positive), under
crossing 2 (negative), and so on.  Any such code describes a virtual knot;
it describes a classical knot iff it is realizable by a planar diagram, which
we never need to decide.

The basepoint splits the knot into 2n semiarcs (n = number of crossings);
semiarc i runs from the i-th passage to the (i+1)-th, cyclically, and semiarc
2n-1 closes up back to passage 0.  With zero crossings there is a single
closed semiarc.

Two chords of the Gauss diagram *cross* when their endpoint pairs interleave
cyclically; arrow weight sums run over exactly these pairs.

Reidemeister moves are represented explicitly as :class:`R1Insert`,
:class:`R1Delete`, :class:`R2Insert`, :class:`R2Delete` and :class:`R3Slide`
instances, and one rule places their passages.  An insertion puts each
block of new passages into a gap: gap g means "immediately before passage
g", in 0..2n (gap 0 and gap 2n are one place on the circle, kept distinct
only so that round trips restore the exact word), and the new chords are
labeled n+1 (and n+2 for R2).  A deletion removes blocks of two
cyclically adjacent passages, keeps the order of the others and renumbers
their chords 1..n in that order.  An R3 slide swaps the two passages of
each of its three blocks in place.

The same rule gives the old semiarc each new one continues, which carries
colorings through the move (:mod:`arrowquiver.homset`).  A semiarc between
two passages of one inserted or swapped block is inside the move disk and
continues none; a block inserted at gap g cuts old semiarc g - 1 in two
pieces that both continue it; every other semiarc continues the old one it
starts with.  A deletion joins the old semiarcs at the two ends of each
run of removed passages, or all those outside its blocks when it removes
every passage.

Construction: ``GaussDiagram(...)`` checks its word, and so does
:func:`parse_gauss_code`, which builds one; every diagram read from a user
or a file goes through that check.  A diagram derived from a valid one is
trusted instead: the move engine, once a move's own checks have passed, and
the word transforms :meth:`~GaussDiagram.rotated`,
:meth:`~GaussDiagram.reversed`, :meth:`~GaussDiagram.mirrored` and
:meth:`~GaussDiagram._relabeled` build their results with
:func:`_trusted`, which skips the check, since each of them maps a valid
word to a valid word.  A diagram computes its hash once, from integers
only, and keeps it beside :attr:`~GaussDiagram.compiled`; a pickled
diagram carries only its word and is checked again when loaded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "Endpoint",
    "GaussDiagram",
    "parse_gauss_code",
    "R1Insert",
    "R1Delete",
    "R2Insert",
    "R2Delete",
    "R3Slide",
    "Move",
    "enumerate_moves",
    "apply_move",
    "inverse_move",
]

_TOKEN = re.compile(r"([OU])(\d+)([+-])")


@dataclass(frozen=True)
class Endpoint:
    """One passage through a crossing: which chord, O or U, and the sign."""

    chord: int
    passage: str  # "O" or "U"
    sign: int  # +1 or -1

    def __str__(self) -> str:
        return f"{self.passage}{self.chord}{'+' if self.sign > 0 else '-'}"


# where a crossing's arrow label sits in its slots (u_in, u_out, o_in, o_out),
# by sign: (u_in, o_out) at a positive crossing, (u_out, o_in) at a negative one
LABEL_SLOTS = {1: (0, 3), -1: (1, 2)}


@dataclass(frozen=True)
class GaussDiagram:
    """An oriented knot as a cyclic word of crossing passages."""

    endpoints: tuple[Endpoint, ...]

    def __post_init__(self) -> None:
        seen: dict[int, dict[str, int]] = {}
        for e in self.endpoints:
            if e.passage not in ("O", "U") or e.sign not in (1, -1):
                raise ValueError(f"malformed endpoint {e!r}")
            slot = seen.setdefault(e.chord, {})
            if e.passage in slot:
                raise ValueError(f"chord {e.chord} visited twice as {e.passage}")
            slot[e.passage] = e.sign
        for chord, slot in seen.items():
            if set(slot) != {"O", "U"}:
                raise ValueError(f"chord {chord} lacks an O or U passage")
            if slot["O"] != slot["U"]:
                raise ValueError(f"chord {chord} has mismatched signs")
        if seen and sorted(seen) != list(range(1, len(seen) + 1)):
            raise ValueError(f"chord labels must be 1..n, got {sorted(seen)}")

    @property
    def n(self) -> int:
        """Number of crossings."""
        return len(self.endpoints) // 2

    @property
    def num_semiarcs(self) -> int:
        return max(1, len(self.endpoints))

    def __str__(self) -> str:
        return "".join(str(e) for e in self.endpoints)

    @cached_property
    def compiled(self) -> "CompiledDiagram":
        """Flat integer tables of this diagram, built on first use."""
        return _compile(self.endpoints)

    @cached_property
    def _pair_table(self) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
        """What arrow weight sums read, built on first use: per interleaving
        chord pair, in the order of :meth:`crossing_pairs`, the tuple
        (sign product, a, b, x, y, u1, u2).  The first chord is the one whose
        under passage comes first: u1 < u2 are the two under-passage indices,
        and the colors of semiarcs (a, b) and (x, y) are the arrow labels of
        the first and the second chord."""
        cd = self.compiled
        sign, under = cd.sign, cd.under
        labels = []  # per chord, the two semiarcs of its arrow label
        for sl, sg in zip(cd.slots, sign):
            i, j = LABEL_SLOTS[sg]
            labels.append((sl[i], sl[j]))
        table = []
        for p, q in cd.pairs:
            if under[p] > under[q]:
                p, q = q, p
            table.append((sign[p] * sign[q], *labels[p], *labels[q], under[p], under[q]))
        return tuple(table)

    def __hash__(self) -> int:
        # computed once, from ints only, so that it does not depend on
        # PYTHONHASHSEED
        h = self.__dict__.get("_hash")
        if h is None:
            codes = [e.chord * 4 + (e.passage == "O") * 2 + (e.sign > 0) for e in self.endpoints]
            h = self.__dict__["_hash"] = hash(tuple(codes))
        return h

    def __reduce__(self):
        # the word alone, checked again on load: a hash or tables cached in
        # another process (perhaps another platform) are never carried over
        return GaussDiagram, (self.endpoints,)

    def index_of(self, chord: int, passage: str) -> int:
        c = self.compiled
        if passage in ("U", "O") and chord in c.chords:
            return (c.under if passage == "U" else c.over)[chord - 1]
        raise KeyError((chord, passage))

    def sign_of(self, chord: int) -> int:
        c = self.compiled
        if chord in c.chords:
            return c.sign[chord - 1]
        raise KeyError(chord)

    def crossing_pairs(self) -> list[tuple[int, int]]:
        """All unordered pairs of chords that interleave, as (p, q), p < q."""
        return [(p + 1, q + 1) for p, q in self.compiled.pairs]

    def rotated(self, k: int) -> "GaussDiagram":
        """Move the basepoint k passages forward; chord labels are kept."""
        if not self.endpoints:
            return self
        k %= len(self.endpoints)
        return _trusted(self.endpoints[k:] + self.endpoints[:k])

    def reversed(self) -> "GaussDiagram":
        """Reverse the orientation of the knot (signs are unchanged)."""
        return _trusted(tuple(reversed(self.endpoints)))

    def mirrored(self) -> "GaussDiagram":
        """Switch every crossing: O and U swap and all signs flip."""
        return _trusted(
            tuple(
                Endpoint(e.chord, "U" if e.passage == "O" else "O", -e.sign)
                for e in self.endpoints
            )
        )

    def _relabeled(self) -> "GaussDiagram":
        """Renumber chords 1..n in order of first appearance."""
        return _trusted(_relabel(self.endpoints))

    def canonical_code(self) -> str:
        """A code equal for diagrams differing only by basepoint rotation
        or chord renumbering: the least relabeled code over all rotations,
        read from the rotated words without building their diagrams."""
        ends = self.endpoints
        return min(
            "".join(map(str, _relabel(ends[k:] + ends[:k])))
            for k in range(max(1, len(ends)))
        )


def _trusted(endpoints: tuple[Endpoint, ...]) -> GaussDiagram:
    """The diagram of a word known to be valid, built without the check of
    ``GaussDiagram.__post_init__``."""
    d = object.__new__(GaussDiagram)
    d.__dict__["endpoints"] = endpoints
    return d


@dataclass(frozen=True)
class CompiledDiagram:
    """A diagram as flat integer tables, read by coloring search and weight sums.

    Chords are numbered from 0 here: per-chord tuples hold chord label c at
    index c - 1.  A chord's four *slots* are the semiarcs around its
    crossing, at positions 0-3: ``(u_in, u_out, o_in, o_out)``, the
    semiarcs entering and leaving its under passage and its over passage.
    Two slots of one chord are the same semiarc when its passages are
    adjacent (a kink).  Coloring search reads each chord's crossing relation
    from the table of its ``kind``: its sign and kink shape (bit 0 set when
    u_in and o_out are one semiarc, bit 1 when u_out and o_in are).
    """

    chords: range  # the chord labels 1..n
    under: tuple[int, ...]  # passage index of each chord's U endpoint
    over: tuple[int, ...]  # passage index of each chord's O endpoint
    sign: tuple[int, ...]
    slots: tuple[tuple[int, int, int, int], ...]
    kind: tuple[tuple[int, int], ...]  # (sign, kink shape) of each chord
    # per semiarc, the (chord index, position) of the slots it fills, and
    # the chord indices among them, each once; the lone semiarc of the empty
    # diagram fills none
    touching: tuple[tuple[tuple[int, int], ...], ...]
    touches: tuple[tuple[int, ...], ...]
    # the chord index pairs (p, q), p < q, whose endpoints interleave
    pairs: tuple[tuple[int, int], ...]


def _compile(endpoints: tuple[Endpoint, ...]) -> CompiledDiagram:
    two_n = len(endpoints)
    n = two_n // 2
    under = [0] * n
    over = [0] * n
    sign = [0] * n
    # semiarc i leaves passage i and enters passage i + 1 (the last one
    # enters passage 0), at the slot (chord index, position) of each: u_out 1
    # or o_out 3 where it leaves, u_in 0 or o_in 2 where it enters
    touching = []
    touches = []
    leaving = None  # the slot where the semiarc before passage i leaves
    for i, e in enumerate(endpoints):
        c = e.chord - 1
        sign[c] = e.sign
        if e.passage == "U":
            under[c] = i
            entering, leave = (c, 0), (c, 1)
        else:
            over[c] = i
            entering, leave = (c, 2), (c, 3)
        if i:
            touching.append((leaving, entering))
            touches.append((leaving[0],) if leaving[0] == c else (leaving[0], c))
        else:
            first = entering
        leaving = leave
    if two_n:
        touching.append((leaving, first))
        touches.append((c,) if c == first[0] else (c, first[0]))
    slots = []
    kind = []
    for c in range(n):
        u, o = under[c], over[c]
        s0, s2 = (u - 1) % two_n, (o - 1) % two_n
        slots.append((s0, u, s2, o))
        kind.append((sign[c], (s0 == o) | (u == s2) << 1))
    # chords p < q interleave when exactly one end of q lies inside p's span
    lows = [min(u, o) for u, o in zip(under, over)]
    highs = [max(u, o) for u, o in zip(under, over)]
    pairs = []
    for p in range(n):
        lo, hi = lows[p], highs[p]
        for q in range(p + 1, n):
            if (lo < lows[q] < hi) != (lo < highs[q] < hi):
                pairs.append((p, q))
    return CompiledDiagram(
        range(1, n + 1),
        tuple(under),
        tuple(over),
        tuple(sign),
        tuple(slots),
        tuple(kind),
        tuple(touching) or ((),),
        tuple(touches) or ((),),
        tuple(pairs),
    )


def _relabel(endpoints) -> tuple[Endpoint, ...]:
    """Renumber chords 1..n in order of first appearance, keeping each
    endpoint whose label stays."""
    order: dict[int, int] = {}
    for e in endpoints:
        if e.chord not in order:
            order[e.chord] = len(order) + 1
    return tuple(
        e if order[e.chord] == e.chord else Endpoint(order[e.chord], e.passage, e.sign)
        for e in endpoints
    )


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a signed Gauss code such as ``O1+O2+U1+U2+``.

    Tokens may optionally be separated by whitespace or commas.  The empty
    string is the zero-crossing unknot.
    """
    cleaned = re.sub(r"[\s,]+", "", text)
    pos = 0
    endpoints: list[Endpoint] = []
    while pos < len(cleaned):
        m = _TOKEN.match(cleaned, pos)
        if not m:
            raise ValueError(f"bad Gauss code near {cleaned[pos:pos + 8]!r}")
        passage, chord, sign = m.group(1), int(m.group(2)), m.group(3)
        endpoints.append(Endpoint(chord, passage, 1 if sign == "+" else -1))
        pos = m.end()
    return GaussDiagram(tuple(endpoints))


# ---------------------------------------------------------------------------
# Reidemeister moves, placed by the rule of the module docstring


@dataclass(frozen=True)
class R1Insert:
    """Add a kink: the two new passages sit side by side in one gap.

    ``head_first`` False inserts [O U] (the overpass is met first), True
    inserts [U O].  Both chiralities times both signs are legal.
    """

    gap: int
    head_first: bool
    sign: int


@dataclass(frozen=True)
class R1Delete:
    """Remove a kink whose two passages are cyclically adjacent.

    ``start`` is the index of the first of the two adjacent passages (the
    pair is (start, start+1 mod 2n)).
    """

    start: int


@dataclass(frozen=True)
class R2Insert:
    """Slide one strand over another, adding two canceling crossings.

    The O passages of the new chords a = n+1, b = n+2 land in ``gap_over``
    as the block [Oa Ob]; the U passages land in ``gap_under``.  For a
    parallel poke the U block is [Ua Ub]; antiparallel it is [Ub Ua].  Chord
    a gets ``sign`` and b gets the opposite sign.  The two gaps may coincide,
    in which case the O block is placed first ([Oa Ob Ub Ua] doubles the
    strand straight back over its target; [Oa Ob Ua Ub] loops it around).
    """

    gap_over: int
    gap_under: int
    antiparallel: bool
    sign: int


@dataclass(frozen=True)
class R2Delete:
    """Cancel two crossings forming an R2 pair.

    ``over_start`` indexes the [Oa Ob] block, ``under_start`` the U block
    ([Ua Ub] if parallel, [Ub Ua] if antiparallel).  Blocks may wrap around
    the basepoint.
    """

    over_start: int
    under_start: int
    antiparallel: bool


@dataclass(frozen=True)
class R3Slide:
    """Slide a strand across a crossing.

    The move needs three chords x, y, z of a common sign ``eps`` meeting in
    three two-passage sites:

        left form:   [Ux Uy]   [Ox Uz]   [Oy Oz]
        right form:  [Uy Ux]   [Uz Ox]   [Oz Oy]

    ``sites`` are the indices of the first passage of each block, in the
    order above; the slide swaps the two passages inside each block in
    place, toggling between the forms.
    """

    sites: tuple[int, int, int]
    form: str  # "L" or "R"
    chords: tuple[int, int, int]  # (x, y, z)
    eps: int


Move = R1Insert | R1Delete | R2Insert | R2Delete | R3Slide

# a moved diagram with its semiarc map, as :func:`_moved` returns it
Moved = tuple[GaussDiagram, list[int | None], list[tuple[int, int]]]


def _insert_blocks(d: GaussDiagram, blocks: dict[int, list[Endpoint]]) -> Moved:
    ends = d.endpoints
    out: list[Endpoint] = []
    keep: list[int | None] = []
    last = 0
    for g, block in sorted(blocks.items()):
        # the one check a new passage needs: its chord and passages are
        # fresh and complete, but the sign comes from the move
        for e in block:
            if e.sign not in (1, -1):
                raise ValueError(f"malformed endpoint {e!r}")
        out += ends[last:g]
        out += block
        keep += range(last, g)
        # the block's last passage starts the rest of old semiarc g - 1
        keep += [None] * (len(block) - 1)
        keep.append((g - 1) % d.num_semiarcs)
        last = g
    out += ends[last:]
    keep += range(last, len(ends))
    return _trusted(tuple(out)), keep, []


def _delete_blocks(d: GaussDiagram, starts: tuple[int, ...]) -> Moved:
    ends = d.endpoints
    two_n = len(ends)
    out: list[Endpoint] = []
    keep: list[int | None] = []
    lo = 0
    for g in sorted({*starts, *[(s + 1) % two_n for s in starts]}):
        out += ends[lo:g]
        keep += range(lo, g)
        lo = g + 1
    out += ends[lo:]
    keep += range(lo, two_n)
    if not out:
        # one closed semiarc is left: every old one outside the disk joins it
        outside = [i for i in range(two_n) if i not in starts]
        return _trusted(()), outside[:1], [(outside[0], i) for i in outside[1:]]
    # a run of removed passages, one block or two adjacent ones, joins the
    # old semiarc entering it to the one leaving it; it starts at the block
    # that no other block ends just before
    joins = [
        ((s - 1) % two_n, (s + 3 if (s + 2) % two_n in starts else s + 1) % two_n)
        for s in starts
        if (s - 2) % two_n not in starts
    ]
    return _trusted(_relabel(out)), keep, joins


def _swap_blocks(d: GaussDiagram, sites: tuple[int, ...]) -> Moved:
    ends = list(d.endpoints)
    keep: list[int | None] = list(range(len(ends)))
    for s in sites:
        t = _adjacent(d, s)
        ends[s], ends[t] = ends[t], ends[s]
        keep[s] = None
    return _trusted(tuple(ends)), keep, []


def _adjacent(d: GaussDiagram, i: int) -> int:
    return (i + 1) % len(d.endpoints)


def _check_starts(d: GaussDiagram, starts: tuple[int, ...]) -> None:
    """Every block of a deletion or slide starts at a passage of ``d``."""
    two_n = len(d.endpoints)
    for s in starts:
        if s < 0:
            raise ValueError(f"block at negative index {s}")
        if s >= two_n:
            raise ValueError(f"block at index {s}, but the diagram has {two_n} passages")


def apply_move(d: GaussDiagram, move: Move) -> GaussDiagram:
    """The diagram after performing ``move`` on ``d``.

    Raises ValueError when the move does not match the diagram.
    """
    return _moved(d, move)[0]


def _moved(d: GaussDiagram, move: Move) -> Moved:
    """:func:`apply_move` with the semiarc map of the move (see the module
    docstring): per semiarc of the moved diagram, the old semiarc whose
    color it keeps, or None inside the move disk, and the pairs of old
    semiarcs that a deletion joins into one."""
    two_n = len(d.endpoints)
    if isinstance(move, R1Insert):
        if not 0 <= move.gap <= two_n:
            raise ValueError("R1 gap out of range")
        c = d.n + 1
        pair = [Endpoint(c, "U", move.sign), Endpoint(c, "O", move.sign)]
        if not move.head_first:
            pair.reverse()
        return _insert_blocks(d, {move.gap: pair})

    if isinstance(move, R1Delete):
        i = move.start
        _check_starts(d, (i,))
        j = _adjacent(d, i)
        a, b = d.endpoints[i], d.endpoints[j]
        if a.chord != b.chord or i == j:
            raise ValueError("R1 deletion needs adjacent passages of one chord")
        return _delete_blocks(d, (i,))

    if isinstance(move, R2Insert):
        if not (0 <= move.gap_over <= two_n and 0 <= move.gap_under <= two_n):
            raise ValueError("R2 gap out of range")
        a, b = d.n + 1, d.n + 2
        sa, sb = move.sign, -move.sign
        over = [Endpoint(a, "O", sa), Endpoint(b, "O", sb)]
        under = [Endpoint(a, "U", sa), Endpoint(b, "U", sb)]
        if move.antiparallel:
            under.reverse()
        if move.gap_over == move.gap_under:
            return _insert_blocks(d, {move.gap_over: over + under})
        return _insert_blocks(d, {move.gap_over: over, move.gap_under: under})

    if isinstance(move, R2Delete):
        i, j = move.over_start, move.under_start
        _check_starts(d, (i, j))
        i2, j2 = _adjacent(d, i), _adjacent(d, j)
        if len({i, i2, j, j2}) != 4:
            raise ValueError("R2 blocks overlap")
        oa, ob = d.endpoints[i], d.endpoints[i2]
        if move.antiparallel:
            ub, ua = d.endpoints[j], d.endpoints[j2]
        else:
            ua, ub = d.endpoints[j], d.endpoints[j2]
        if (oa.passage, ob.passage, ua.passage, ub.passage) != ("O", "O", "U", "U"):
            raise ValueError("R2 deletion passages mismatch")
        if (oa.chord, ob.chord) != (ua.chord, ub.chord):
            raise ValueError("R2 deletion chords mismatch")
        if oa.sign != -ob.sign:
            raise ValueError("R2 deletion needs opposite signs")
        return _delete_blocks(d, (i, j))

    if isinstance(move, R3Slide):
        _check_starts(d, move.sites)
        idx = [i for s in move.sites for i in (s, _adjacent(d, s))]
        if len(set(idx)) != 6:
            raise ValueError("R3 sites overlap")
        x, y, z = move.chords
        eps = move.eps
        want_l = [("U", x), ("U", y), ("O", x), ("U", z), ("O", y), ("O", z)]
        want_r = [("U", y), ("U", x), ("U", z), ("O", x), ("O", z), ("O", y)]
        want = {"L": want_l, "R": want_r}.get(move.form)
        if want is None:
            raise ValueError(f"R3 form must be 'L' or 'R', got {move.form!r}")
        got = [(d.endpoints[i].passage, d.endpoints[i].chord) for i in idx]
        if got != want:
            raise ValueError("R3 sites do not match the stated form")
        if any(d.endpoints[i].sign != eps for i in idx):
            raise ValueError("R3 needs a common sign on all three chords")
        return _swap_blocks(d, move.sites)

    raise TypeError(f"unknown move {move!r}")


def inverse_move(d: GaussDiagram, move: Move) -> Move:
    """The move that undoes ``move``, stated on ``apply_move(d, move)``.

    Applying a move and then its inverse restores the original diagram up
    to basepoint rotation and chord renumbering (deletions renumber the
    remaining chords, and blocks that straddled the basepoint are restored
    in a single gap), so round trips compare equal under
    :meth:`GaussDiagram.canonical_code`.  Raises ValueError when a block
    of a deletion or slide does not start at a passage of ``d``.
    """
    two_n = len(d.endpoints)
    if isinstance(move, R1Insert):
        return R1Delete(move.gap)

    if isinstance(move, R1Delete):
        i = move.start
        _check_starts(d, (i,))
        j = _adjacent(d, i)
        head = d.endpoints[i]
        gap = i if j > i else two_n - 2
        return R1Insert(gap, head.passage == "U", head.sign)

    if isinstance(move, R2Insert):
        if move.gap_over == move.gap_under:
            return R2Delete(move.gap_over, move.gap_over + 2, move.antiparallel)
        over = move.gap_over + (2 if move.gap_over > move.gap_under else 0)
        under = move.gap_under + (2 if move.gap_under > move.gap_over else 0)
        return R2Delete(over, under, move.antiparallel)

    if isinstance(move, R2Delete):
        i, j = move.over_start, move.under_start
        _check_starts(d, (i, j))
        removed = {i, _adjacent(d, i), j, _adjacent(d, j)}
        gap_over = i - sum(r < i for r in removed)
        gap_under = j - sum(r < j for r in removed)
        sign = d.endpoints[i].sign
        return R2Insert(gap_over, gap_under, move.antiparallel, sign)

    if isinstance(move, R3Slide):
        _check_starts(d, move.sites)
        form = {"L": "R", "R": "L"}.get(move.form)
        if form is None:
            raise ValueError(f"R3 form must be 'L' or 'R', got {move.form!r}")
        return R3Slide(move.sites, form, move.chords, move.eps)

    raise TypeError(f"unknown move {move!r}")


def enumerate_moves(d: GaussDiagram) -> list[Move]:
    """Every move instance applicable to ``d``, in a fixed order.

    First the insertions: for every gap, both R1 chiralities and both signs,
    then for every (over gap, under gap) pair both signs, antiparallel
    before parallel.  They depend only on the number of passages, so one
    tuple of them per size is built once and shared (the moves are frozen).
    Then the R1 deletions, the R2 deletions and the R3 slides, each by
    ascending first index; they are matched by lookup in one index of the
    cyclically adjacent passage pairs, without building any diagram.

    The result is a new list each call; callers may change it.
    """
    moves: list[Move] = list(_insertions(len(d.endpoints)))
    if d.endpoints:
        moves += _deletions(d.endpoints)
    return moves


# Scrambles meet a handful of sizes; at 30 chords one size holds about
# 15 000 moves.
_INSERTION_SIZES = 16


@lru_cache(maxsize=_INSERTION_SIZES)
def _insertions(two_n: int) -> tuple[Move, ...]:
    gaps = range(two_n + 1)
    r1 = [
        R1Insert(g, head_first, sign)
        for g in gaps
        for head_first in (False, True)
        for sign in (1, -1)
    ]
    r2 = [
        R2Insert(go, gu, anti, sign)
        for go in gaps
        for gu in gaps
        for sign in (1, -1)
        for anti in (True, False)
    ]
    return tuple(r1 + r2)


def _deletions(ends: tuple[Endpoint, ...]) -> list[Move]:
    """The R1Delete, R2Delete and R3Slide instances of a nonempty diagram.

    Block s is the cyclically adjacent pair (ends[s], ends[s + 1 mod 2n]).
    Each passage occurs once, so every pattern fixes its blocks: an R2 pair
    [Oa Ob] with opposite signs needs the U block [Ub Ua] (antiparallel) or
    [Ua Ub] (parallel), at most one of which exists when 2n > 2; an R3 site
    [Ux Uy] of one sign fixes its O x block and from it z.
    """
    two_n = len(ends)
    blocks = list(zip(ends, ends[1:] + ends[:1]))
    over = {e.chord: s for s, e in enumerate(ends) if e.passage == "O"}
    uu: dict[tuple[int, int], int] = {}
    oo: dict[tuple[int, int], int] = {}
    for s, (e, f) in enumerate(blocks):
        if e.passage == f.passage:
            (uu if e.passage == "U" else oo)[e.chord, f.chord] = s

    r1: list[Move] = []
    r2: list[Move] = []
    r3: list[Move] = []
    for s, (e, f) in enumerate(blocks):
        if e.chord == f.chord:
            r1.append(R1Delete(s))
        elif e.passage != f.passage:
            continue
        elif e.passage == "O":
            if e.sign == f.sign:
                continue
            a, b = e.chord, f.chord
            if (b, a) in uu:
                r2.append(R2Delete(s, uu[b, a], True))
            elif (a, b) in uu:
                r2.append(R2Delete(s, uu[a, b], False))
        elif e.sign == f.sign:
            eps = e.sign
            # left form [Ux Uy] [Ox Uz] [Oy Oz]
            x, y = e.chord, f.chord
            sb = over[x]
            z = blocks[sb][1]
            if z.passage == "U" and z.chord not in (x, y) and z.sign == eps:
                sc = oo.get((y, z.chord))
                if sc is not None:
                    r3.append(R3Slide((s, sb, sc), "L", (x, y, z.chord), eps))
            # right form [Uy Ux] [Uz Ox] [Oz Oy]
            y, x = e.chord, f.chord
            sb = (over[x] - 1) % two_n
            z = blocks[sb][0]
            if z.passage == "U" and z.chord not in (x, y) and z.sign == eps:
                sc = oo.get((z.chord, y))
                if sc is not None:
                    r3.append(R3Slide((s, sb, sc), "R", (x, y, z.chord), eps))
    return r1 + r2 + r3
