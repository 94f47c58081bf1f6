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

Passages are shared: building a well-formed :class:`Endpoint` of
chord at most ``_SHARED_LABELS`` returns the one instance of its value, so
a word is a tuple of references to at most 4 * ``_SHARED_LABELS`` objects.

Two chords of the Gauss diagram *cross* when their endpoint pairs interleave
cyclically; arrow weight sums run over exactly these pairs.  A diagram's
flat integer tables (:attr:`~GaussDiagram.compiled`) come from one walk of
its word, which also finds these pairs: a chord crosses exactly the chords
open (met once) at one of its two passages and not at the other, so the
XOR of the two masks of open chords lists them, and the pair table that
weight sums read is built from those bits alone.  The small tuples that
repeat from diagram to diagram, the (chord, position) slot references and
the (sign, kink shape) pairs, are shared, not built anew for each diagram.
The tables are not stored on the diagram: :attr:`~GaussDiagram.compiled`
reads them from a cache of the 64 most recently used diagrams, keyed by
the diagram, so equal diagrams share one set of tables and a caller that
holds many diagrams holds their words only.

Reidemeister moves are represented explicitly as :class:`R1Insert`,
:class:`R1Delete`, :class:`R2Insert`, :class:`R2Delete` and :class:`R3Slide`
instances (frozen dataclasses with slots, like the compiled tables), and
one rule places their passages.  An insertion puts each
block of new passages into a gap: gap g means "immediately before passage
g", in 0..2n (gap 0 and gap 2n are one place on the circle, kept distinct
only so that round trips restore the exact word), and the new chords are
labeled n+1 (and n+2 for R2).  A deletion removes blocks of two
cyclically adjacent passages, keeps the order of the others and renumbers
their chords 1..n in that order.  An R3 slide swaps the two passages of
each of its three blocks in place.

One rule decides which moves apply.  An insertion applies when its gaps
are ``int`` values (not bools) in 0..2n and its flag is a ``bool``.  A
deletion or slide applies exactly when :func:`enumerate_moves` lists it:
the one listing of them is :func:`_deletions`, which finds them in the
word, and :func:`apply_move` and :func:`inverse_move` apply or invert a
deletion or slide as the listed instance it equals (by ``==``).

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
trusted instead: the move engine, once it has found a move legal, and
the word transforms :meth:`~GaussDiagram.rotated`,
:meth:`~GaussDiagram.reversed`, :meth:`~GaussDiagram.mirrored` and
:meth:`~GaussDiagram._relabeled` build their results with
:func:`_trusted`, which skips the check, since each of them maps a valid
word to a valid word.  A diagram computes its hash once, from integers
only, and keeps it beside its word, which is all it holds; a pickled
diagram carries only its word and is checked again when loaded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

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


# the largest chord label whose passages are shared: at most 4 * 256
# instances, each built when first asked for (two threads asking at once
# may build two equal ones, and one of them is kept)
_SHARED_LABELS = 256
_SHARED: dict[tuple[int, str, int], Endpoint] = {}


@dataclass(frozen=True, init=False)
class Endpoint:
    """One passage through a crossing: which chord, O or U, and the sign.

    A well-formed passage (chord an ``int`` from 1 to ``_SHARED_LABELS``,
    passage "O" or "U", sign the ``int`` 1 or -1) is one shared instance
    per value; any other is built anew, so that the check of
    :class:`GaussDiagram` can name it as it was given.  A well-formed
    passage also carries the integer code the hash of a diagram reads.
    """

    chord: int
    passage: str  # "O" or "U"
    sign: int  # +1 or -1

    def __new__(cls, chord: int, passage: str, sign: int) -> Endpoint:
        if type(chord) is int and type(passage) is str and type(sign) is int:
            e = _SHARED.get((chord, passage, sign))
            if e is not None:
                return e
        e = object.__new__(cls)
        e.__dict__.update(chord=chord, passage=passage, sign=sign)
        if _well_formed(e):
            # the integer that a diagram's hash reads for this passage
            e.__dict__["_code"] = chord * 4 + (passage == "O") * 2 + (sign > 0)
            if 0 < chord <= _SHARED_LABELS:
                _SHARED[chord, passage, sign] = e
        return e

    def __reduce__(self):
        # through the constructor, so that a copy is the shared instance
        return Endpoint, (self.chord, self.passage, self.sign)

    def __str__(self) -> str:
        return f"{self.passage}{self.chord}{'+' if self.sign > 0 else '-'}"


def _well_formed(e: Endpoint) -> bool:
    """Whether a passage has an ``int`` chord, the ``str`` passage "O" or
    "U" and the ``int`` sign 1 or -1; the chord labels are checked with the
    word."""
    return (
        type(e.chord) is int
        and type(e.passage) is str
        and e.passage in ("O", "U")
        and type(e.sign) is int
        and e.sign in (1, -1)
    )


# where a crossing's arrow label sits in its slots (u_in, u_out, o_in, o_out),
# by sign: (u_in, o_out) at a positive crossing, (u_out, o_in) at a negative one
LABEL_SLOTS = {1: (0, 3), -1: (1, 2)}


# diagrams whose compiled tables (:func:`_compiled`) are kept, and, in
# homset and arrowweight, whose colorings and weight sums are.  The reuse
# these caches serve lies within one call chain: a diagram's tables, its
# colorings, then its weight sums and its quiver, for d1 and d2 of a
# scramble step.  A cached entry keeps its diagram alive, so the bound is
# what that reuse needs: at 64 entries a seed-1 perfbench scramble job
# misses 11-14 more of its about 960 coloring lookups than with no bound,
# and a weights job 5 more of its 200-260; tables are built again only for
# a diagram met again after 64 others, 10-14 of about 280 per scramble job.
_DIAGRAMS_CACHED = 64


@lru_cache(maxsize=_DIAGRAMS_CACHED)
def _compiled(d: GaussDiagram) -> CompiledDiagram:
    """The compiled tables of ``d``, keyed by its cached hash."""
    return _compile(d.endpoints)


@dataclass(frozen=True)
class GaussDiagram:
    """An oriented knot as a cyclic word of crossing passages."""

    endpoints: tuple[Endpoint, ...]

    def __post_init__(self) -> None:
        seen: dict[int, dict[str, int]] = {}
        for e in self.endpoints:
            if not _well_formed(e):
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

    compiled = property(
        _compiled,
        doc="""Flat integer tables of this diagram, from the bounded cache of
        :func:`_compiled`: equal diagrams share them, and a diagram held by a
        caller does not hold them.""",
    )

    def __hash__(self) -> int:
        # computed once, from the integer code of each (well-formed) passage,
        # so that it does not depend on PYTHONHASHSEED
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple([e._code for e in self.endpoints]))
        return h

    def __reduce__(self):
        # the word alone, checked again on load: a hash or tables cached in
        # another process (perhaps another platform) are never carried over
        return GaussDiagram, (self.endpoints,)

    # the chord readers take a label only as an ``int`` from 1 to n, as the
    # word does; any other raises KeyError
    def index_of(self, chord: int, passage: str) -> int:
        slots = self.compiled.slots
        if passage in ("U", "O") and type(chord) is int and 0 < chord <= len(slots):
            return slots[chord - 1][1 if passage == "U" else 3]
        raise KeyError((chord, passage))

    def sign_of(self, chord: int) -> int:
        kind = self.compiled.kind
        if type(chord) is int and 0 < chord <= len(kind):
            return kind[chord - 1][0]
        raise KeyError(chord)

    def crossing_pairs(self) -> list[tuple[int, int]]:
        """All unordered pairs of chords that interleave, as (p, q), p < q,
        in the order of the pair table."""
        ends, table = self.endpoints, self.compiled.pair_table
        return [tuple(sorted((ends[u1].chord, ends[u2].chord))) for *_, u1, u2 in table]

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


@dataclass(frozen=True, slots=True)
class CompiledDiagram:
    """A diagram as flat integer tables, read by coloring search and weight sums.

    Chords are numbered from 0 here: per-chord tuples hold chord label c at
    index c - 1.  A chord's four *slots* are the semiarcs around its
    crossing, at positions 0-3: ``(u_in, u_out, o_in, o_out)``, the
    semiarcs entering and leaving its under passage and its over passage,
    so u_out and o_out are also the passage indices of its U and O
    endpoints.  Two slots of one chord are the same semiarc when its
    passages are adjacent (a kink).  Coloring search reads each chord's
    crossing relation from the table of its ``kind``: its sign and kink
    shape (bit 0 set when u_in and o_out are one semiarc, bit 1 when u_out
    and o_in are).
    """

    slots: tuple[tuple[int, int, int, int], ...]
    # (sign, kink shape) of each chord, one of the eight shared ``_KINDS``
    kind: tuple[tuple[int, int], ...]
    # per semiarc, the (chord index, position) of the two slots it fills,
    # where it leaves one passage and where it enters the next (one chord
    # twice at a kink); each reference is shared by every diagram of n
    # chords (``_slot_refs``).  The lone semiarc of the empty diagram fills
    # none
    touching: tuple[tuple[tuple[int, int], ...], ...]
    # what arrow weight sums read, per pair of chord indices p < q whose
    # endpoints interleave, by p and then q: (sign product, a, b, x, y, u1,
    # u2), the first chord being the one whose under passage comes first;
    # u1 < u2 are the two under-passage indices, and the colors of semiarcs
    # (a, b) and (x, y) are the arrow labels of the first and the second
    # chord
    pair_table: tuple[tuple[int, int, int, int, int, int, int], ...]


# the (sign, kink shape) of a chord: one tuple each, shared by every diagram
_KINDS = {(sign, shape): (sign, shape) for sign in (1, -1) for shape in range(4)}

# chord counts whose slot references are kept; one tuple of 30 chords holds
# 120 references
_SLOT_REF_SIZES = 64


@lru_cache(maxsize=_SLOT_REF_SIZES)
def _slot_refs(n: int) -> tuple[tuple[int, int], ...]:
    """Every (chord index, position) of ``n`` chords; the one at index
    4c + k is (c, k)."""
    return tuple((c, k) for c in range(n) for k in range(4))


def _compile(endpoints: tuple[Endpoint, ...]) -> CompiledDiagram:
    two_n = len(endpoints)
    n = two_n // 2
    refs = _slot_refs(n)
    under = [0] * n
    over = [0] * n
    sign = [0] * n
    # per chord, the XOR of the masks of chords open (one passage met) at
    # its two passages: bit q is set exactly when chord q has one passage
    # strictly inside its span, or q is the chord itself
    crossed = [0] * n
    open_chords = 0
    # per passage, the index in ``refs`` of the slot entering it: u_in 4c or
    # o_in 4c + 2
    entering = []
    for i, e in enumerate(endpoints):
        c = e.chord - 1
        sign[c] = e.sign
        crossed[c] ^= open_chords
        open_chords ^= 1 << c
        if e.passage == "U":
            under[c] = i
            entering.append(4 * c)
        else:
            over[c] = i
            entering.append(4 * c + 2)
    # semiarc i leaves passage i at the slot after the one entering it (u_out
    # or o_out) and enters passage i + 1 (the last one enters passage 0)
    touching = [(refs[k + 1], refs[j]) for k, j in zip(entering, entering[1:] + entering[:1])]
    slots = []
    kind = []
    labels = []  # per chord, the two semiarcs of its arrow label
    for u, o, sg in zip(under, over, sign):
        sl = ((u - 1) % two_n, u, (o - 1) % two_n, o)
        slots.append(sl)
        kind.append(_KINDS[sg, (sl[0] == o) | (u == sl[2]) << 1])
        i, j = LABEL_SLOTS[sg]
        labels.append((sl[i], sl[j]))
    table = []
    for p in range(n):
        rest = crossed[p] >> p + 1  # chord q > p at bit q - p - 1
        while rest:
            low = rest & -rest
            rest ^= low
            q = p + low.bit_length()
            one, two = (q, p) if under[p] > under[q] else (p, q)
            table.append((sign[p] * sign[q], *labels[one], *labels[two], under[one], under[two]))
    return CompiledDiagram(tuple(slots), tuple(kind), tuple(touching) or ((),), tuple(table))


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


def _tokens(text: str) -> list[tuple[str, str, str]]:
    """The (passage, chord, sign) strings of a signed Gauss code, once
    whitespace and commas are removed; ValueError ``bad Gauss code near``
    where no token can be read."""
    cleaned = re.sub(r"[\s,]+", "", text)
    tokens, pos = [], 0
    while pos < len(cleaned):
        if not (m := _TOKEN.match(cleaned, pos)):
            raise ValueError(f"bad Gauss code near {cleaned[pos:pos + 8]!r}")
        tokens.append(m.groups())
        pos = m.end()
    return tokens


def parse_gauss_code(text: str) -> GaussDiagram:
    """Parse a signed Gauss code such as ``O1+O2+U1+U2+``.

    Tokens may optionally be separated by whitespace or commas.  The empty
    string is the zero-crossing unknot.
    """
    ends = (Endpoint(int(c), p, 1 if s == "+" else -1) for p, c, s in _tokens(text))
    return GaussDiagram(tuple(ends))


# ---------------------------------------------------------------------------
# Reidemeister moves, placed by the rule of the module docstring


@dataclass(frozen=True, slots=True)
class R1Insert:
    """Add a kink: the two new passages sit side by side in one gap.

    ``head_first`` False inserts [O U] (the overpass is met first), True
    inserts [U O].  Both chiralities times both signs are legal.
    """

    gap: int
    head_first: bool
    sign: int


@dataclass(frozen=True, slots=True)
class R1Delete:
    """Remove a kink whose two passages are cyclically adjacent.

    ``start`` is the index of the first of the two adjacent passages (the
    pair is (start, start+1 mod 2n)).
    """

    start: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class R2Delete:
    """Cancel two crossings forming an R2 pair.

    ``over_start`` indexes the [Oa Ob] block, ``under_start`` the U block
    ([Ua Ub] if parallel, [Ub Ua] if antiparallel).  Blocks may wrap around
    the basepoint.
    """

    over_start: int
    under_start: int
    antiparallel: bool


@dataclass(frozen=True, slots=True)
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
            if not _well_formed(e):
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
        t = (s + 1) % len(ends)
        ends[s], ends[t] = ends[t], ends[s]
        keep[s] = None
    return _trusted(tuple(ends)), keep, []


def apply_move(d: GaussDiagram, move: Move) -> GaussDiagram:
    """The diagram after performing ``move`` on ``d``.

    An insertion applies when its gaps are ``int`` values in 0..2n and its
    flag, ``head_first`` or ``antiparallel``, is a ``bool``; a deletion or
    slide applies exactly when :func:`enumerate_moves` lists it for ``d``,
    as the instance of the one listing, :func:`_deletions`, that it equals
    (by ``==``).  Any other move raises ValueError, and what is no move
    raises TypeError.
    """
    return _moved(d, move)[0]


def _is_gap(gap, two_n: int) -> bool:
    """Whether ``gap`` is an insertion gap of a word of ``two_n`` passages:
    an ``int`` (not a bool) in 0..2n."""
    return type(gap) is int and 0 <= gap <= two_n


def _moved(d: GaussDiagram, move: Move) -> Moved:
    """:func:`apply_move` with the semiarc map of the move (see the module
    docstring): per semiarc of the moved diagram, the old semiarc whose
    color it keeps, or None inside the move disk, and the pairs of old
    semiarcs that a deletion joins into one."""
    two_n = len(d.endpoints)
    if isinstance(move, R1Insert):
        if not _is_gap(move.gap, two_n):
            raise ValueError("R1 gap out of range")
        if type(move.head_first) is not bool:
            raise ValueError(f"R1 head_first must be a bool, got {move.head_first!r}")
        c = d.n + 1
        pair = [Endpoint(c, "U", move.sign), Endpoint(c, "O", move.sign)]
        if not move.head_first:
            pair.reverse()
        return _insert_blocks(d, {move.gap: pair})

    if isinstance(move, R2Insert):
        if not (_is_gap(move.gap_over, two_n) and _is_gap(move.gap_under, two_n)):
            raise ValueError("R2 gap out of range")
        if type(move.antiparallel) is not bool:
            raise ValueError(f"R2 antiparallel must be a bool, got {move.antiparallel!r}")
        a, b = d.n + 1, d.n + 2
        sa, sb = move.sign, -move.sign
        over = [Endpoint(a, "O", sa), Endpoint(b, "O", sb)]
        under = [Endpoint(a, "U", sa), Endpoint(b, "U", sb)]
        if move.antiparallel:
            under.reverse()
        if move.gap_over == move.gap_under:
            return _insert_blocks(d, {move.gap_over: over + under})
        return _insert_blocks(d, {move.gap_over: over, move.gap_under: under})

    if not isinstance(move, (R1Delete, R2Delete, R3Slide)):
        raise TypeError(f"unknown move {move!r}")
    listed = next((mv for mv in _deletions(d.endpoints) if mv == move), None)
    if listed is None:
        raise ValueError(f"{move!r} does not apply to {str(d)!r}")
    if isinstance(listed, R1Delete):
        return _delete_blocks(d, (listed.start,))
    if isinstance(listed, R2Delete):
        return _delete_blocks(d, (listed.over_start, listed.under_start))
    return _swap_blocks(d, listed.sites)


def inverse_move(d: GaussDiagram, move: Move) -> Move:
    """The move that undoes ``move``, stated on ``apply_move(d, move)``.

    Applying a move and then its inverse restores the original diagram up
    to basepoint rotation and chord renumbering (deletions renumber the
    remaining chords, and blocks that straddled the basepoint are restored
    in a single gap), so round trips compare equal under
    :meth:`GaussDiagram.canonical_code`.  It applies the move first, so it
    raises exactly when :func:`apply_move` raises, with the same error: a
    deletion or slide must be one that :func:`enumerate_moves` lists, and
    its inverse is read from that listed instance.
    """
    _moved(d, move)
    two_n = len(d.endpoints)
    if isinstance(move, R1Insert):
        return R1Delete(move.gap)

    if isinstance(move, R2Insert):
        if move.gap_over == move.gap_under:
            return R2Delete(move.gap_over, move.gap_over + 2, move.antiparallel)
        over = move.gap_over + (2 if move.gap_over > move.gap_under else 0)
        under = move.gap_under + (2 if move.gap_under > move.gap_over else 0)
        return R2Delete(over, under, move.antiparallel)

    move = next(mv for mv in _deletions(d.endpoints) if mv == move)
    if isinstance(move, R1Delete):
        head = d.endpoints[move.start]
        return R1Insert(min(move.start, two_n - 2), head.passage == "U", head.sign)

    if isinstance(move, R2Delete):
        i, j = move.over_start, move.under_start
        removed = {i, (i + 1) % two_n, j, (j + 1) % two_n}
        gap_over = i - sum(r < i for r in removed)
        gap_under = j - sum(r < j for r in removed)
        return R2Insert(gap_over, gap_under, move.antiparallel, d.endpoints[i].sign)

    form = "R" if move.form == "L" else "L"
    return R3Slide(move.sites, form, move.chords, move.eps)


def enumerate_moves(d: GaussDiagram) -> list[Move]:
    """Every move instance applicable to ``d``, in a fixed order.

    First the insertions: for every gap, both R1 chiralities and both signs,
    then for every (over gap, under gap) pair both signs, antiparallel
    before parallel.  They depend only on the number of passages, so one
    tuple of them per size is built once and shared (the moves are frozen).
    Then the R1 deletions, the R2 deletions and the R3 slides, each by
    ascending first index; they are matched by lookup in one index of the
    cyclically adjacent passage pairs, without building any diagram.  They
    come from the one listing, :func:`_deletions`, which :func:`apply_move`
    and :func:`inverse_move` also read: a deletion or slide applies to
    ``d`` exactly when it is listed here, as the listed instance it equals
    (by ``==``).

    The result is a new list each call; callers may change it.
    """
    return [*_insertions(len(d.endpoints)), *_deletions(d.endpoints)]


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
    """The R1Delete, R2Delete and R3Slide instances of a diagram's word.

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
