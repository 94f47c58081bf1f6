"""Arrow weights: crossing-pair weight sums and the search for valid ones.

An arrow weight for a biquandle X over Z_m is a tensor W indexed by two
arrow labels (four biquandle elements in total).  Given a colored diagram,
every unordered pair of crossings whose chords intersect in the Gauss
diagram contributes

    sign(p) * sign(q) * W[label(p)][label(q)]    (mod m)

where the first slot belongs to the crossing whose under-passage comes
first from the basepoint.  The total is the weight sum sigma_D of the
coloring.  Every sum reads the pair table of the diagram's compiled tables
(:attr:`~arrowquiver.gausscode.CompiledDiagram.pair_table`): per
intersecting pair, its sign product, the four semiarcs whose colors give
its tensor slot and its under-passage indices.
:func:`_sums` is the one loop that adds tensor entries into weight sums,
straight from that table; :func:`sigma_D`, :func:`weight_multiset`, the
``nontrivial`` probes of :func:`search_weights` and the validity trials all
read their sums from it.  The symbolic side, :func:`sigma_coefficients` and
the rotation rows, lists one coloring's terms with :func:`_pair_terms`,
from compiled tables that its caller reads once per diagram.
Moving the basepoint to passage k swaps the labels of exactly the pairs
it straddles, those with under-passages u1 < k <= u2
(:func:`_rotation_rows_at`).  A rotation row can change only after a U
passage (:func:`_basepoints`); the constraint generator emits the rows at
those basepoints, and the validity trials evaluate the same rows at the
tensor (:func:`_check_rotations`).
For W to define a knot invariant the multiset of weight sums over all
colorings must be unchanged by Reidemeister moves and by moving the
basepoint; both are linear conditions on the entries of W, collected by
:func:`generate_constraints` and solved over Z_m by :func:`solve_constraints`.
The conditions are integer rows that do not depend on m: they are built and
deduplicated once per biquandle, and each modulus reduces that one list.

Weight sums are cached the way colorings are: :func:`_weight_sums` keeps,
per (biquandle, tensor, diagram), the :func:`_sums` of the colorings
:mod:`arrowquiver.homset` caches, in their order and under the same bound,
so that :func:`weight_multiset` and :func:`~arrowquiver.quiver.build_quiver`
sum one diagram once between them.  A validity trial searches and sums only
its starting diagram: after each move, the transported colorings, sorted,
are the moved diagram's colorings, and their sums come along.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations, product
from math import gcd

# Nothing here uses numpy.  perfbench/worker.py reads the numpy version from
# sys.modules after importing the package, so the import stays until the
# benchmark records it only when loaded (ROADMAP items 5 and 8).
import numpy  # noqa: F401

from .biquandle import Biquandle, _int, _numbered
from .gausscode import (
    _DIAGRAMS_CACHED,
    CompiledDiagram,
    Endpoint,
    GaussDiagram,
    Move,
    R1Delete,
    R1Insert,
    R2Insert,
    R3Slide,
    _deletions,
    _insert_blocks,
    enumerate_moves,
    parse_gauss_code,
)
from .homset import _colorings, _transport, enumerate_colorings

__all__ = [
    "WeightTensor",
    "sigma_D",
    "weight_multiset",
    "ConstraintSystem",
    "SolutionSet",
    "generate_constraints",
    "solve_constraints",
    "search_weights",
    "ValidityReport",
    "is_valid_weight",
]


@dataclass(frozen=True)
class WeightTensor:
    """A map X^2 x X^2 -> Z_m, flattened row-major over (a, b, c, d)."""

    n: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        # type, not isinstance: a bool is an int, and a float entry gives float sums
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.m}")
        # a list would construct, then fail at the first hash
        if not isinstance(self.entries, tuple):
            raise ValueError(f"entries must be a tuple, got {type(self.entries).__name__}")
        if type(self.n) is not int or len(self.entries) != self.n**4:
            raise ValueError("wrong number of tensor entries")
        if self.n < 1:
            raise ValueError(f"size must be a positive integer, got {self.n}")
        if any(type(e) is not int or not 0 <= e < self.m for e in self.entries):
            raise ValueError(f"entries must lie in 0..{self.m - 1}")

    def __hash__(self) -> int:
        # computed once: every lookup in the weight-sum cache hashes it
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.n, self.m, self.entries))
        return h

    @staticmethod
    def slot(n: int, a: int, b: int, c: int, d: int) -> int:
        """The index in ``entries`` of (a, b, c, d): plain index arithmetic,
        which checks no label (:meth:`get` does)."""
        return (((a - 1) * n + (b - 1)) * n + (c - 1)) * n + (d - 1)

    def get(self, first: tuple[int, int], second: tuple[int, int]) -> int:
        """The entry of the labels ``first`` = (a, b) and ``second`` = (c, d);
        ValueError unless a, b, c and d are ints from 1 to n."""
        a, b = first
        c, d = second
        for label in (first, second):
            if not all(type(v) is int and 0 < v <= self.n for v in label):
                raise ValueError(f"label {label!r} is not a pair of ints from 1 to {self.n}")
        return self.entries[self.slot(self.n, a, b, c, d)]

    def dumps(self) -> str:
        k = self.n**2  # row (a, b) is the n^2 entries from slot(n, a, b, 1, 1) on
        rows = (" ".join(map(str, self.entries[r * k : r * k + k])) for r in range(k))
        return "\n".join([str(self.m), str(self.n), *rows]) + "\n"

    @classmethod
    def loads(cls, text: str) -> "WeightTensor":
        lines = _numbered(text)
        for i, field in enumerate(("modulus", "size")):
            k, value = lines[i] if i < len(lines) else (0, "nothing")
            if not value.isdecimal() or int(value) < 1:
                at = f" (line {k})" if k else ""
                raise ValueError(f"{field} must be a positive integer, found {value}{at}")
        m, n = int(lines[0][1]), int(lines[1][1])
        rows = lines[2:]
        if len(rows) != n * n:
            raise ValueError(f"expected {n * n} tensor rows, found {len(rows)}")
        entries: list[int] = []
        for k, ln in rows:
            vals = [_int(tok, k) % m for tok in ln.split()]
            if len(vals) != n * n:
                raise ValueError("tensor row has wrong length")
            entries.extend(vals)
        return cls(n, m, tuple(entries))

    @classmethod
    def load(cls, path: str) -> "WeightTensor":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def _pair_terms(cd: CompiledDiagram, coloring: tuple[int, ...], n: int) -> list[tuple]:
    """The terms of one coloring's weight sum, read from the pair table of
    a compiled diagram: per interleaving chord pair, in the order of
    ``crossing_pairs``,
    the sign product, the tensor slot of (label(first), label(second)), the
    slot with the labels swapped, and the under-passage indices u1 < u2 of
    the pair (the first chord's is u1)."""
    n2 = n * n
    terms = []
    for sign, a, b, x, y, u1, u2 in cd.pair_table:
        lp = (coloring[a] - 1) * n + coloring[b] - 1
        lq = (coloring[x] - 1) * n + coloring[y] - 1
        terms.append((sign, lp * n2 + lq, lq * n2 + lp, u1, u2))
    return terms


def _rotation_rows_at(terms: list[tuple], indices) -> list[dict[int, int]]:
    """Rotation rows of one coloring's pair ``terms`` at the ascending
    ``indices``, in their order.  Row k - 1 is sigma_D minus sigma_D from
    basepoint k, for 0 < k < 2n: moving the basepoint to k swaps the labels
    of the pairs with u1 < k <= u2, so row i covers those with u1 <= i < u2."""
    rows: list[dict[int, int]] = [{} for _ in indices]
    for sign, slot, swapped, u1, u2 in terms:
        for row in rows[bisect_left(indices, u1) : bisect_left(indices, u2)]:
            row[slot] = row.get(slot, 0) + sign
            row[swapped] = row.get(swapped, 0) - sign
    return rows


def _coefficients(terms: list[tuple]) -> dict[int, int]:
    """The weight sum of one coloring's pair ``terms`` as a sparse vector
    of coefficients on tensor slots."""
    coeffs: dict[int, int] = {}
    for sign, slot, *_ in terms:
        coeffs[slot] = coeffs.get(slot, 0) + sign
    return coeffs


def sigma_coefficients(
    cd: CompiledDiagram, coloring: tuple[int, ...], n: int
) -> dict[int, int]:
    """sigma_D of a coloring of the compiled diagram ``cd`` as a sparse
    vector of coefficients on tensor slots; callers read ``cd`` once per
    diagram."""
    return _coefficients(_pair_terms(cd, coloring, n))


def sigma_D(w: WeightTensor, d: GaussDiagram, coloring: tuple[int, ...]) -> int:
    """The weight sum of one coloring, reduced mod m.

    ``coloring`` must be a tuple of ``d.num_semiarcs`` ints, each from 1 to
    ``w.n`` (ValueError otherwise).  With no biquandle at hand, sigma_D
    cannot check the crossing equations: a tuple of that shape that is not
    a coloring still gets a sum."""
    if type(coloring) is not tuple or len(coloring) != d.num_semiarcs:
        raise ValueError(f"a coloring of this diagram is a tuple of {d.num_semiarcs} colors")
    for v in coloring:
        if type(v) is not int or not 0 < v <= w.n:
            raise ValueError(f"color {v!r} is not an int from 1 to {w.n}")
    return _sums(w, d, (coloring,))[0]


def weight_multiset(b: Biquandle, w: WeightTensor, d: GaussDiagram) -> tuple[int, ...]:
    """Sorted weight sums over all colorings: the multiset-valued invariant."""
    return tuple(sorted(_weight_sums(b, w, d)))


@lru_cache(maxsize=_DIAGRAMS_CACHED)
def _weight_sums(b: Biquandle, w: WeightTensor, d: GaussDiagram) -> tuple[int, ...]:
    """The weight sum of each coloring of ``d`` by ``b``, in the order of
    :func:`~arrowquiver.homset.enumerate_colorings`."""
    if w.n != b.n:
        raise ValueError(f"tensor is over {w.n} elements but the biquandle has {b.n}")
    return _sums(w, d, _colorings(b, d))


def _sums(w: WeightTensor, d: GaussDiagram, colorings) -> tuple[int, ...]:
    """The weight sum of each of ``colorings`` of ``d``, in their order.  Each
    is read straight from the diagram's pair table: the sum over its rows
    (sign, i, j, k, l, u1, u2) of sign * W[c[i], c[j], c[k], c[l]], reduced
    mod m, where the slot of those four colors (each from 1) is
    c[i] n^3 + c[j] n^2 + c[k] n + c[l] - (n^3 + n^2 + n + 1)."""
    e, m, n = w.entries, w.m, w.n
    n2 = n * n
    n3 = n2 * n
    offset = n3 + n2 + n + 1
    table = d.compiled.pair_table
    sums = []
    for c in colorings:
        total = 0
        for sign, i, j, k, l, _, _ in table:
            total += sign * e[c[i] * n3 + c[j] * n2 + c[k] * n + c[l] - offset]
        sums.append(total % m)
    return tuple(sums)


def _at(row: dict[int, int], values, m: int) -> int:
    """The sparse ``row``, a map from index to coefficient, evaluated at the
    sequence ``values`` and reduced mod m."""
    return sum(c * values[k] for k, c in row.items()) % m


def _basepoints(cd: CompiledDiagram) -> list[int]:
    """The indices of the rotation rows of the compiled diagram ``cd`` (see
    :func:`_rotation_rows_at`) that can differ from the row before: row 0,
    and row i for each U passage i with 0 < i < 2n - 1.

    Row i covers the pair terms with u1 <= i < u2, where u1 and u2 are
    under-passage indices, so it differs from row i - 1 only in the terms
    with u1 or u2 equal to i.  If passage i is an O passage, no term has
    either, and row i repeats row i - 1.  So each row left out repeats the
    listed row before it: the listed rows are every distinct rotation row,
    and the first of them that is nonzero at a tensor is the first rotation
    row that is.  A diagram of at most one chord has no pair, so its one
    listed row, row 0, is empty."""
    last = 2 * len(cd.slots) - 1
    return [0, *sorted(u for _, u, _, _ in cd.slots if 0 < u < last)]


def _check_rotations(w: WeightTensor, cd: CompiledDiagram, coloring: tuple[int, ...]) -> int:
    """The first basepoint k, 0 < k < 2n, from which the weight sum of
    ``coloring`` of the compiled diagram ``cd`` differs, or 0 when none
    does, as for a valid arrow weight.  It evaluates the rotation rows at
    :func:`_basepoints` at w: row k - 1 is sigma_D minus sigma_D from
    basepoint k."""
    indices = _basepoints(cd)
    for i, row in zip(indices, _rotation_rows_at(_pair_terms(cd, coloring, w.n), indices)):
        if _at(row, w.entries, w.m):
            return i + 1
    return 0


# ---------------------------------------------------------------------------
# invariance constraints


def _r3_template_hosts(spectators: int) -> list[GaussDiagram]:
    """Diagrams containing a slide site, with extra chords woven through.

    The three slide blocks are placed around the circle in both cyclic
    arrangements, for both common signs; each spectator chord puts its O
    passage in one inter-block gap g1 and its U passage in another gap
    g2 != g1, in every way, each once.  So one spectator of either sign
    gives 12 words on each of the 4 bare hosts, 48 hosts in all, and in
    none of them is it a kink: a block lies between its passages both ways
    round the circle.  The move engine builds them: its block insertion,
    :func:`~arrowquiver.gausscode._insert_blocks`, which places every
    inserted passage, puts one single-passage block into each of the two
    gaps of the bare host.

    A spectator with both passages in one gap would be a kink, and such a
    host adds no constraint row.  Deleting the kink is an R1 move onto the
    bare slide host of the same sign and arrangement, which comes earlier,
    and by the R1 lemma it keeps every other color and every intersecting
    pair with its labels and its order.  The kink takes no part in a
    slide, whose chords all interleave, so each slide row of the kinked
    host is a slide row of the bare host.  Moving the basepoint across the
    kink swaps no labels, so each rotation row is a rotation row of the
    bare host or zero.
    """
    hosts: list[GaussDiagram] = []
    for eps in (1, -1):
        site_a = [Endpoint(1, "U", eps), Endpoint(2, "U", eps)]
        site_b = [Endpoint(1, "O", eps), Endpoint(3, "U", eps)]
        site_c = [Endpoint(2, "O", eps), Endpoint(3, "O", eps)]
        for blocks in ((site_a, site_b, site_c), (site_a, site_c, site_b)):
            bare = GaussDiagram(tuple(blocks[0] + blocks[1] + blocks[2]))
            if spectators == 0:
                hosts.append(bare)
                continue
            for s_sign in (1, -1):
                o, u = [Endpoint(4, "O", s_sign)], [Endpoint(4, "U", s_sign)]
                # the gap after block g sits before passage 2g + 2
                for g1, g2 in permutations(range(3), 2):
                    hosts.append(_insert_blocks(bare, {2 * g1 + 2: o, 2 * g2 + 2: u})[0])
    return hosts


def _small_hosts() -> list[GaussDiagram]:
    """The empty diagram and every 1- and 2-chord diagram, up to rotation."""
    hosts = [GaussDiagram(())]
    seen: set[str] = set()
    for s in "+-":
        hosts.append(parse_gauss_code(f"O1{s}U1{s}"))
    for rest in permutations(["U1", "O2", "U2"]):
        for s1, s2 in product("+-", repeat=2):
            code = "".join(
                tok + (s1 if tok[1] == "1" else s2) for tok in ("O1", *rest)
            )
            d = parse_gauss_code(code)
            key = d.canonical_code()
            if key not in seen:
                seen.add(key)
                hosts.append(d)
    return hosts


class ConstraintSystem:
    """Homogeneous linear conditions on tensor slots over Z_m."""

    def __init__(self, n: int, m: int, rows: list[dict[int, int]]):
        # type, not isinstance: a bool is an int, and 16.0 == 16
        if type(m) is not int or m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m}")
        self.n = n
        self.m = m
        unique: dict[tuple[tuple[int, int], ...], None] = {}
        for row in rows:
            reduced = {s: c % m for s, c in row.items() if c % m}
            if reduced:
                unique[tuple(sorted(reduced.items()))] = None
        self.rows: list[dict[int, int]] = [dict(key) for key in unique]

    def violated(self, w: WeightTensor) -> tuple[int, ...]:
        """The indices of the rows that ``w`` does not satisfy."""
        if (w.n, w.m) != (self.n, self.m):
            raise ValueError("tensor shape does not match the system")
        return tuple(i for i, row in enumerate(self.rows) if _at(row, w.entries, self.m))


def _difference_row(before: dict[int, int], after: dict[int, int]) -> dict[int, int]:
    row = dict(before)
    for s, c in after.items():
        row[s] = row.get(s, 0) - c
    return row


@lru_cache(maxsize=16, typed=True)
def generate_constraints(b: Biquandle, m: int) -> ConstraintSystem:
    """Every invariance condition on arrow weights for ``b`` over Z_m.

    Rows come from three sources: each Reidemeister move applicable to a
    family of small host diagrams (weight sums of a coloring and of its
    transport must agree), slide moves on dedicated three- and four-chord
    hosts, and basepoint rotation on every host.  Each host is walked
    once: its colorings are looked up once and each coloring's pair terms
    are listed once; the move rows, then the rotation rows, are read from
    those terms, and only a transported coloring lists terms of its own.
    The rows have integer coefficients that do not depend on m, so they
    are built once per biquandle (:func:`_integer_rows`) and only reduced
    mod m here; the first row to reduce to a given row mod m is always the
    first occurrence of its integer row, so the order is that of the rows
    as generated.

    R1 moves give no rows and are not carried out.  A kink's two passages
    are adjacent, so its chord interleaves no other; transport keeps every
    other color and the order of the other passages, so every intersecting
    pair keeps its labels and its order, and the weight sum is unchanged.
    Every R1 row is zero, and zero rows are dropped anyway.

    R2 inserts are carried only where they can add a row.  The new chords
    a and b carry one arrow label L and opposite signs, and both their
    U passages and their O passages are adjacent.  Let x and y be the
    colors of the old semiarcs at the over and the under gap.  With two
    gaps, every old chord interleaves both new chords or neither, with its
    under passage on the same side of both, so its two terms cancel; an
    antiparallel pair is nested, so the row is zero, and a parallel pair
    interleaves, so the row is +1 at W[L, L], where L is fixed by the sign
    and (x, y) through a's equations (axiom B2 makes the solution unique).
    With one gap the four new passages form one block that no old chord
    interleaves: antiparallel, the row is zero; parallel, it is minus the
    term of (a, b), whose colors x alone fixes.  So antiparallel inserts
    are skipped, and a parallel insert carries only the colorings whose
    key (one gap or two, sign, x, y) no earlier insert has carried; a
    repeated key only repeats a row.  The empty host comes first and
    covers every one-gap key.  Only later duplicates are dropped, so the
    rows and their order are unchanged.

    No slide host has a kinked spectator chord: such a host only repeats
    rows of a bare host (see :func:`_r3_template_hosts`).  The one-chord
    small hosts are kinks, but their R2 inserts give rows.

    Rotation rows are added only at :func:`_basepoints`, where they can
    change; each row skipped repeats the row just before it, so the rows
    and their order are unchanged.
    """
    return ConstraintSystem(b.n, m, _integer_rows(b))


def _rowless(move: Move) -> bool:
    """Whether every row of ``move`` is zero: R1 and antiparallel R2 moves."""
    return isinstance(move, (R1Insert, R1Delete)) or (
        isinstance(move, R2Insert) and move.antiparallel
    )


def _r2_key(move: R2Insert, coloring: tuple[int, ...]) -> tuple[bool, int, int, int]:
    """What the row of a parallel R2 insert depends on: whether its gaps
    coincide, its sign, and the colors of the old semiarcs at its gaps.
    A block inserted at gap g lies inside semiarc g - 1, cyclically; on the
    empty diagram that is semiarc 0, the only one."""
    x, y = coloring[move.gap_over - 1], coloring[move.gap_under - 1]
    return move.gap_over == move.gap_under, move.sign, x, y


@lru_cache(maxsize=16)
def _integer_rows(b: Biquandle) -> list[dict[int, int]]:
    """The distinct nonzero integer constraint rows for ``b``, in order of
    first occurrence.  One walk per host reads its colorings once and lists
    each coloring's pair terms once; its move rows come first, then its
    rotation rows."""
    n = b.n
    unique: dict[tuple[tuple[int, int], ...], None] = {}
    r2_keys: set[tuple[bool, int, int, int]] = set()  # carried so far
    hosts = [(d, [mv for mv in enumerate_moves(d) if not _rowless(mv)]) for d in _small_hosts()]
    for d in _r3_template_hosts(0) + _r3_template_hosts(1):
        hosts.append((d, [mv for mv in _deletions(d.endpoints) if isinstance(mv, R3Slide)]))
    for d, moves in hosts:
        colorings = enumerate_colorings(b, d)
        cd = d.compiled
        terms = [_pair_terms(cd, c, n) for c in colorings]
        bases = [_coefficients(t) for t in terms]
        rows: list[dict[int, int]] = []
        for move in moves:
            carried = range(len(colorings))
            if isinstance(move, R2Insert):
                # a later coloring with a known key only repeats an earlier row
                carried = []
                for i, c in enumerate(colorings):
                    key = _r2_key(move, c)
                    if key not in r2_keys:
                        r2_keys.add(key)
                        carried.append(i)
                if not carried:
                    continue
            d2, images = _transport(b, d, move, [colorings[i] for i in carried])
            cd2 = d2.compiled
            for i, c2 in zip(carried, images):
                rows.append(_difference_row(bases[i], sigma_coefficients(cd2, c2, n)))
        basepoints = _basepoints(cd)
        for t in terms:
            rows += _rotation_rows_at(t, basepoints)
        for row in rows:
            key = tuple(sorted((s, c) for s, c in row.items() if c))
            if key:
                unique[key] = None
    return [dict(key) for key in unique]


# ---------------------------------------------------------------------------
# solving over Z_m


def _combine(
    p: int, x: dict[int, int], q: int, y: dict[int, int], m: int
) -> dict[int, int]:
    """The sparse row p*x + q*y mod m, without zero entries."""
    out = {k: p * v for k, v in x.items()}
    for k, v in y.items():
        out[k] = out.get(k, 0) + q * v
    return {k: v % m for k, v in out.items() if v % m}


def _unit_part(a: int, m: int) -> tuple[int, int]:
    """g = gcd(a, m) and the inverse of a // g mod m // g, which is a unit
    there: a*v == r (mod m) is solvable exactly when g divides r, by
    v == r // g * inverse (mod m // g)."""
    g = gcd(a, m)
    return g, pow(a // g, -1, m // g)


class SolutionSet:
    """The solutions of a homogeneous system over Z_m, in echelon form.

    Rows are sparse maps from column to entry, reduced mod m, and are kept in
    buckets by their last nonzero column.  Elimination pivots on the *last*
    variable first, so every echelon row relates one variable to strictly
    earlier ones; solutions can then be enumerated in lexicographic order by
    assigning variables left to right.  At each column the pivot is the live
    row whose entry has the least gcd with m (ties: the fewest nonzeros).
    Every other entry that this gcd divides is cleared with one row
    operation; one it does not divide (possible only when m is not a prime
    power) is merged into the pivot by a Bezout pair s*a + t*b == gcd(a, b),
    s the inverse of a/gcd mod b/gcd from ``pow``.  Annihilator rows (m/gcd
    times a pivot row) are folded back in, as in a Howell form, which keeps
    the per-column solution counts exact.  Entries are Python ints, so every
    positive modulus is exact.

    ``pivot`` maps each pivot column to one record (row, g, inverse): for
    the row's entry a at that column, g = gcd(a, m) and the inverse of
    a // g mod m // g (:func:`_unit_part`).  The record is computed where
    the pivot is chosen and again after each Bezout merge, and nowhere
    else: the divisible branch clears b with b // g times the inverse,
    :meth:`count` multiplies the g values (and m per free column), and the
    walk reads both.  The walk keeps one list of ``ncols`` values; before
    solving a pivot column it sets that column to 0, so :func:`_at` of the
    pivot row sums only the earlier columns, r, and a*v == -r (mod m) has
    the g solutions v == (-r) // g * inverse mod m // g, stepped by m // g,
    or none unless g divides r.

    The caller's rows are never changed.  Each one is copied, reduced mod m,
    into the buckets, so every bucketed row is private to the elimination
    and a row cleared by the pivot is reduced in place over the pivot's
    entries.  A column count that is not a non-negative int, a modulus that
    is not a positive int (a bool is refused for either) and a row that
    names a column other than an int in 0..ncols - 1 raise ValueError.
    """

    def __init__(self, ncols: int, m: int, rows: list[dict[int, int]]):
        if type(ncols) is not int or ncols < 0:
            raise ValueError(f"ncols must be a non-negative integer, got {ncols}")
        if type(m) is not int or m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m}")
        self.ncols = ncols
        self.m = m
        self.pivot: dict[int, tuple[dict[int, int], int, int]] = {}
        buckets: dict[int, list[dict[int, int]]] = {}

        def put(row: dict[int, int]) -> None:
            if row:
                buckets.setdefault(max(row), []).append(row)

        for row in rows:
            bad = next((s for s in row if type(s) is not int or not 0 <= s < ncols), None)
            if bad is not None:
                raise ValueError(f"row names column {bad}, outside 0..{ncols - 1}")
            put({s: c % m for s, c in row.items() if c % m})
        for col in range(ncols - 1, -1, -1):
            if not (live := buckets.pop(col, None)):
                continue
            i = min(range(len(live)), key=lambda k: (gcd(live[k][col], m), len(live[k])))
            piv = live.pop(i)
            g, inv = _unit_part(piv[col], m)
            for other in live:
                a, b = piv[col], other[col]
                if b % g == 0:
                    # c * a == b (mod m); a // g is a unit mod m // g
                    c = b // g * inv
                    for k, v in piv.items():
                        x = (other.get(k, 0) - c * v) % m
                        if x:
                            other[k] = x
                        else:
                            other.pop(k, None)
                    put(other)
                    continue
                h = gcd(a, b)
                s = pow(a // h, -1, b // h)
                t = (h - s * a) // b
                put(_combine(b // h, piv, -(a // h), other, m))
                piv = _combine(s, piv, t, other, m)
                g, inv = _unit_part(piv[col], m)
            ann = m // g
            if ann != m:
                put({s: ann * c % m for s, c in piv.items() if ann * c % m})
            self.pivot[col] = (piv, g, inv)

    def count(self) -> int:
        total = self.m ** (self.ncols - len(self.pivot))
        for _, g, _ in self.pivot.values():
            total *= g
        return total

    def contains(self, values: tuple[int, ...]) -> bool:
        if len(values) != self.ncols:
            raise ValueError(f"expected {self.ncols} values, got {len(values)}")
        return not any(_at(row, values, self.m) for row, _, _ in self.pivot.values())

    def __iter__(self):
        # an explicit stack of per-column value iterators, so the depth is
        # not bounded by the recursion limit (n^4 columns)
        m = self.m
        values = [0] * self.ncols
        stack = []
        while True:
            col = len(stack)
            if col == self.ncols:
                yield tuple(values)
            elif col not in self.pivot:
                stack.append(iter(range(m)))
            else:
                row, g, inv = self.pivot[col]
                values[col] = 0
                r = -_at(row, values, m) % m
                step = m // g
                stack.append(iter(range(r // g * inv % step, m, step) if r % g == 0 else ()))
            while stack and (v := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return
            values[len(stack) - 1] = v


def solve_constraints(system: ConstraintSystem) -> SolutionSet:
    return SolutionSet(system.n**4, system.m, system.rows)


_PROBE_CODES = (
    "O1+O2+U1+U2+",
    "O1-O2-U1-U2-",
    "O1+U2+O3+U1+O2+U3+",
    "O1-U2-O3-U1-O2-U3-",
)


def search_weights(
    b: Biquandle, m: int, limit: int | None = None, nontrivial: bool = False
):
    """Yield valid arrow weight tensors for ``b`` over Z_m in lex order,
    at most ``limit`` of them.

    With ``nontrivial``, tensors whose weight sums vanish on every coloring
    of a small probe family of diagrams are skipped (this drops the zero
    tensor in particular).  A ``limit`` that is not a non-negative int
    (a bool is refused too) raises ValueError.
    """
    if limit is not None and (type(limit) is not int or limit < 0):
        raise ValueError(f"limit must be a non-negative integer, got {limit}")
    probes = [parse_gauss_code(code) for code in _PROBE_CODES] if nontrivial else []
    colorings = [(d, enumerate_colorings(b, d)) for d in probes]
    sols = solve_constraints(generate_constraints(b, m))
    tensors = (WeightTensor(b.n, m, values) for values in sols)
    if nontrivial:
        tensors = (w for w in tensors if any(any(_sums(w, d, cs)) for d, cs in colorings))
    yield from islice(tensors, limit)


def _random_diagram_of_size(rng: random.Random, chords: int) -> GaussDiagram:
    """A random signed diagram; virtual, so any order of passages occurs."""
    word = []
    for c in range(1, chords + 1):
        s = rng.choice((1, -1))
        word.append(Endpoint(c, "O", s))
        word.append(Endpoint(c, "U", s))
    rng.shuffle(word)
    return GaussDiagram(tuple(word))


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of an arrow weight validity check.

    ``violated_rows`` holds indices into the generated constraint system;
    ``failed_trial`` describes the first randomized trial (if any) whose
    weight sum changed under a move or rotation.
    """

    valid: bool
    violated_rows: tuple[int, ...] = ()
    failed_trial: dict | None = None

    def __bool__(self) -> bool:
        return self.valid

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violated_rows": list(self.violated_rows),
            "failed_trial": self.failed_trial,
        }


# the largest random diagram a validity trial starts from
_TRIAL_MAX_CHORDS = 4


def is_valid_weight(
    b: Biquandle,
    w: WeightTensor,
    trials: int = 40,
    seed: int = 0,
) -> ValidityReport:
    """Whether ``w`` is a valid arrow weight for ``b``.

    Checks membership in the generated constraint system, then runs seeded
    randomized trials: random diagrams of at most four chords, random
    applicable moves (deletions and slides only, once a diagram has six
    chords), and for every coloring the weight sum must survive
    transport and basepoint rotation exactly.  The report is truthy
    exactly when ``w`` passes.
    A ``trials`` that is not a non-negative int (a bool is refused too)
    raises ValueError.
    """
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials}")
    if w.n != b.n:
        return ValidityReport(False, failed_trial={"error": "dimension mismatch"})
    bad = generate_constraints(b, w.m).violated(w)
    if bad:
        return ValidityReport(False, violated_rows=bad)
    rng = random.Random(seed)
    for trial in range(trials):
        d = _random_diagram_of_size(rng, rng.randint(0, _TRIAL_MAX_CHORDS))
        colorings, sums = enumerate_colorings(b, d), _weight_sums(b, w, d)
        for _ in range(rng.randint(1, 3)):
            moves = enumerate_moves(d) if d.n < 6 else _deletions(d.endpoints)
            if not moves:
                break
            move = rng.choice(moves)
            d2, images = _transport(b, d, move, colorings)
            moved_sums = _sums(w, d2, images)
            cd = d.compiled
            for c, before, after in zip(colorings, sums, moved_sums):
                if k := _check_rotations(w, cd, c):
                    detail = {"error": f"weight sum depends on the basepoint (rotation {k})"}
                elif before != after:
                    detail = {"before": before, "after": after}
                else:
                    continue
                return ValidityReport(
                    False,
                    failed_trial={
                        "trial": trial,
                        "seed": seed,
                        "diagram": str(d),
                        "move": repr(move),
                        "coloring": list(c),
                        **detail,
                    },
                )
            # transport is a bijection onto the colorings of d2, so the
            # images, sorted, are what enumerate_colorings(b, d2) returns,
            # and their sums come along as its weight sums
            moved = sorted(zip(images, moved_sums))
            d, colorings, sums = d2, [c for c, _ in moved], [t for _, t in moved]
    return ValidityReport(True)
