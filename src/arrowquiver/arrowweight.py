"""Arrow weights: crossing-pair weight sums and the search for valid ones.

An arrow weight for a biquandle X over Z_m is a tensor W indexed by two
arrow labels (four biquandle elements in total).  Given a colored diagram,
every unordered pair of crossings whose chords intersect in the Gauss
diagram contributes

    sign(p) * sign(q) * W[label(p)][label(q)]    (mod m)

where the first slot belongs to the crossing whose under-passage comes
first from the basepoint.  The total is the weight sum sigma_D of the
coloring.  Every sum reads one table per diagram, built once beside its
compiled tables: per intersecting pair, its sign product, the four
semiarcs whose colors give its tensor slot and its under-passage indices.
:func:`_weight_sums` sums each coloring straight from it, and
:func:`_pair_terms`, which serves :func:`sigma_D`, :func:`sigma_coefficients`,
the rotation rows and the validity trials, lists one coloring's terms from it.
Moving the basepoint to passage k swaps the labels of exactly the pairs
it straddles, those with under-passages u1 < k <= u2.  For W to define a
knot invariant the multiset of weight sums over all colorings must be
unchanged by Reidemeister moves and by moving the basepoint; both are
linear conditions on the entries of W, collected by
:func:`generate_constraints` and solved over Z_m by :func:`solve_constraints`.
The conditions are integer rows that do not depend on m: they are built and
deduplicated once per biquandle, and each modulus reduces that one list.

Weight sums are cached the way colorings are: :func:`_weight_sums` keeps,
per (biquandle, tensor, diagram), the sums of the colorings
:mod:`arrowquiver.homset` caches, in their order, so that
:func:`weight_multiset` and :func:`~arrowquiver.quiver.build_quiver` sum
one diagram once between them.
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
# benchmark records it only when loaded (ROADMAP item 1).
import numpy  # noqa: F401

from .biquandle import Biquandle
from .gausscode import (
    Endpoint,
    GaussDiagram,
    Move,
    R1Delete,
    R1Insert,
    R2Insert,
    R3Slide,
    _deletions,
    _insertions,
    enumerate_moves,
    parse_gauss_code,
)
from .homset import _COLORINGS_CACHED, _colorings, _transport, enumerate_colorings

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
        if self.m < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.m}")
        if len(self.entries) != self.n**4:
            raise ValueError("wrong number of tensor entries")
        if any(not 0 <= e < self.m for e in self.entries):
            raise ValueError(f"entries must lie in 0..{self.m - 1}")

    def __hash__(self) -> int:
        # computed once: every lookup in the weight-sum cache hashes it
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.n, self.m, self.entries))
        return h

    @staticmethod
    def slot(n: int, a: int, b: int, c: int, d: int) -> int:
        return (((a - 1) * n + (b - 1)) * n + (c - 1)) * n + (d - 1)

    def get(self, first: tuple[int, int], second: tuple[int, int]) -> int:
        a, b = first
        c, d = second
        return self.entries[self.slot(self.n, a, b, c, d)]

    def dumps(self) -> str:
        n = self.n
        lines = [str(self.m), str(n)]
        for a, b in product(range(1, n + 1), repeat=2):
            row = [
                self.entries[self.slot(n, a, b, c, d)]
                for c, d in product(range(1, n + 1), repeat=2)
            ]
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "WeightTensor":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        for i, field in enumerate(("modulus", "size")):
            value = lines[i] if i < len(lines) else "nothing"
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"{field} must be a positive integer, found {value}")
        m, n = int(lines[0]), int(lines[1])
        rows = lines[2:]
        if len(rows) != n * n:
            raise ValueError(f"expected {n * n} tensor rows, found {len(rows)}")
        entries: list[int] = []
        for ln in rows:
            vals = [int(tok) % m for tok in ln.split()]
            if len(vals) != n * n:
                raise ValueError("tensor row has wrong length")
            entries.extend(vals)
        return cls(n, m, tuple(entries))

    @classmethod
    def load(cls, path: str) -> "WeightTensor":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())


def _pair_terms(d: GaussDiagram, coloring: tuple[int, ...], n: int) -> list[tuple]:
    """The terms of one coloring's weight sum, read from the diagram's pair
    table: per interleaving chord pair, in the order of ``crossing_pairs``,
    the sign product, the tensor slot of (label(first), label(second)), the
    slot with the labels swapped, and the under-passage indices u1 < u2 of
    the pair (the first chord's is u1)."""
    n2 = n * n
    terms = []
    for sign, a, b, x, y, u1, u2 in d._pair_table:
        lp = (coloring[a] - 1) * n + coloring[b] - 1
        lq = (coloring[x] - 1) * n + coloring[y] - 1
        terms.append((sign, lp * n2 + lq, lq * n2 + lp, u1, u2))
    return terms


def _rotation_rows(terms: list[tuple], two_n: int) -> list[dict[int, int]]:
    """Row k - 1 is sigma_D minus sigma_D from basepoint k, for 0 < k < 2n:
    moving the basepoint to k swaps the labels of the pairs with u1 < k <= u2."""
    return _rotation_rows_at(terms, range(two_n - 1))


def _rotation_rows_at(terms: list[tuple], indices) -> list[dict[int, int]]:
    """The rows of :func:`_rotation_rows` at the ascending ``indices``, in
    their order: row i covers the pairs with u1 <= i < u2."""
    rows: list[dict[int, int]] = [{} for _ in indices]
    for sign, slot, swapped, u1, u2 in terms:
        for row in rows[bisect_left(indices, u1) : bisect_left(indices, u2)]:
            row[slot] = row.get(slot, 0) + sign
            row[swapped] = row.get(swapped, 0) - sign
    return rows


def sigma_coefficients(
    d: GaussDiagram, coloring: tuple[int, ...], n: int
) -> dict[int, int]:
    """sigma_D as a sparse vector of coefficients on tensor slots."""
    coeffs: dict[int, int] = {}
    for sign, slot, *_ in _pair_terms(d, coloring, n):
        coeffs[slot] = coeffs.get(slot, 0) + sign
    return coeffs


def sigma_D(
    w: WeightTensor,
    d: GaussDiagram,
    coloring: tuple[int, ...],
    check_rotations: bool = False,
) -> int:
    """The weight sum of one coloring, reduced mod m.

    With ``check_rotations`` the sum from every other basepoint must agree,
    which holds for every valid arrow weight; see :func:`_rotation_rows`.
    The first rotation k at which it differs raises ValueError.
    """
    return _sum_terms(w, _pair_terms(d, coloring, w.n), len(d.endpoints), check_rotations)


def _sum_terms(w: WeightTensor, terms: list[tuple], two_n: int, check_rotations: bool) -> int:
    """:func:`sigma_D` of the pair terms of a coloring of a diagram with
    ``two_n`` passages."""
    e, m = w.entries, w.m
    if check_rotations:
        # row k - 1 of _rotation_rows, evaluated at w, is the sum of
        # sign * (W[slot] - W[swapped]) over the pairs with u1 < k <= u2:
        # a prefix sum of +x at u1 + 1 and -x at u2 + 1
        steps = [0] * (two_n + 1)
        for sign, slot, swapped, u1, u2 in terms:
            x = sign * (e[slot] - e[swapped])
            steps[u1 + 1] += x
            steps[u2 + 1] -= x
        value = 0
        for k in range(1, two_n):
            value += steps[k]
            if value % m:
                raise ValueError(f"weight sum depends on the basepoint (rotation {k})")
    return sum(t[0] * e[t[1]] for t in terms) % m


def weight_multiset(
    b: Biquandle, w: WeightTensor, d: GaussDiagram, check_rotations: bool = False
) -> tuple[int, ...]:
    """Sorted weight sums over all colorings: the multiset-valued invariant."""
    colorings = enumerate_colorings(b, d)
    if check_rotations:
        return tuple(sorted(sigma_D(w, d, c, True) for c in colorings))
    return tuple(sorted(_weight_sums(b, w, d)))


@lru_cache(maxsize=_COLORINGS_CACHED)
def _weight_sums(b: Biquandle, w: WeightTensor, d: GaussDiagram) -> tuple[int, ...]:
    """The weight sum of each coloring of ``d`` by ``b``, in the order of
    :func:`~arrowquiver.homset.enumerate_colorings`.  Each is read straight
    from the diagram's pair table: the sum over its rows (sign, i, j, k, l,
    u1, u2) of sign * W[c[i], c[j], c[k], c[l]], reduced mod m, where the
    slot of those four colors (each from 1) is
    c[i] n^3 + c[j] n^2 + c[k] n + c[l] - (n^3 + n^2 + n + 1)."""
    e, m, n = w.entries, w.m, w.n
    n2 = n * n
    n3 = n2 * n
    offset = n3 + n2 + n + 1
    table = d._pair_table
    sums = []
    for c in _colorings(b, d):
        total = 0
        for sign, i, j, k, l, _, _ in table:
            total += sign * e[c[i] * n3 + c[j] * n2 + c[k] * n + c[l] - offset]
        sums.append(total % m)
    return tuple(sums)


# ---------------------------------------------------------------------------
# invariance constraints


def _r3_template_hosts(spectators: int) -> list[GaussDiagram]:
    """Diagrams containing a slide site, with extra chords woven through.

    The three slide blocks are placed around the circle in both cyclic
    arrangements, for both common signs; each spectator chord drops its two
    passages into the inter-block gaps in every distinct way, each once: O
    in gap g1 and U in gap g2 for every (g1, g2), then [U O] in each gap
    (U in g1 and O in g2 != g1 is the word of O in g2 and U in g1).  So
    one spectator of either sign gives 12 words on each of the 4 bare
    hosts, 96 hosts in all, and in 48 of them it is a kink.
    """
    hosts: list[GaussDiagram] = []
    for eps in (1, -1):
        site_a = [Endpoint(1, "U", eps), Endpoint(2, "U", eps)]
        site_b = [Endpoint(1, "O", eps), Endpoint(3, "U", eps)]
        site_c = [Endpoint(2, "O", eps), Endpoint(3, "O", eps)]
        for blocks in ((site_a, site_b, site_c), (site_a, site_c, site_b)):
            placements: list[list[list[Endpoint]]] = []
            if spectators == 0:
                placements.append([[], [], []])
            else:
                for s_sign in (1, -1):
                    o, u = Endpoint(4, "O", s_sign), Endpoint(4, "U", s_sign)
                    drops = [((o, g1), (u, g2)) for g1, g2 in product(range(3), repeat=2)]
                    drops += [((u, g), (o, g)) for g in range(3)]
                    for (e1, g1), (e2, g2) in drops:
                        gaps: list[list[Endpoint]] = [[], [], []]
                        gaps[g1].append(e1)
                        gaps[g2].append(e2)
                        placements.append(gaps)
            for gaps in placements:
                word: list[Endpoint] = []
                for block, gap in zip(blocks, gaps):
                    word.extend(block)
                    word.extend(gap)
                hosts.append(GaussDiagram(tuple(word)))
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
        if m < 1:
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
        m, e = self.m, w.entries
        return tuple(
            i for i, row in enumerate(self.rows) if sum(c * e[s] for s, c in row.items()) % m
        )


def _difference_row(before: dict[int, int], after: dict[int, int]) -> dict[int, int]:
    row = dict(before)
    for s, c in after.items():
        row[s] = row.get(s, 0) - c
    return row


@lru_cache(maxsize=16)
def generate_constraints(b: Biquandle, m: int) -> ConstraintSystem:
    """Every invariance condition on arrow weights for ``b`` over Z_m.

    Rows come from three sources: each Reidemeister move applicable to a
    family of small host diagrams (weight sums of a coloring and of its
    transport must agree), slide moves on dedicated three- and four-chord
    hosts, and basepoint rotation on every host.  The rows have integer
    coefficients that do not depend on m, so they are built once per
    biquandle (:func:`_integer_rows`) and only reduced mod m here; the
    first row to reduce to a given row mod m is always the first occurrence
    of its integer row, so the order is that of the rows as generated.

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

    Slide hosts whose spectator chord is a kink are skipped.  Deleting the
    kink is an R1 move onto the bare slide host of the same sign and
    arrangement, which comes earlier, and by the R1 lemma it keeps every
    other color and every intersecting pair with its labels and its order.
    The kink takes no part in a slide, whose chords all interleave, so each
    slide row of the kinked host is a slide row of the bare host.  Moving
    the basepoint across the kink swaps no labels, so each rotation row is
    a rotation row of the bare host or zero.  The skip drops only repeated
    rows, so the rows and their order are unchanged.  The one-chord small
    hosts are kinks too, but they are not skipped: their R2 inserts give
    rows.

    Rotation rows are added only where they can change.  Rotation row k
    covers the pair terms with u1 < k <= u2, where u1 and u2 are
    under-passage indices.  If passage k is an O passage, no term has u1
    or u2 equal to k, so row k + 1 equals row k.  So only row 1 and the
    rows k whose passage k - 1 is a U passage are added; each row skipped
    repeats the row just before it, so the rows and their order are
    unchanged.
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
    first occurrence."""
    n = b.n
    unique: dict[tuple[tuple[int, int], ...], None] = {}

    def add(row: dict[int, int]) -> None:
        key = tuple(sorted((s, c) for s, c in row.items() if c))
        if key:
            unique[key] = None

    r2_keys: set[tuple[bool, int, int, int]] = set()  # carried so far

    def move_rows(d: GaussDiagram, moves) -> None:
        colorings = enumerate_colorings(b, d)
        bases = [sigma_coefficients(d, c, n) for c in colorings]
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
            for i, c2 in zip(carried, images):
                add(_difference_row(bases[i], sigma_coefficients(d2, c2, n)))

    def rotation_rows(d: GaussDiagram) -> None:
        two_n = len(d.endpoints)
        if two_n < 4:
            return
        # row k + 1 repeats row k when passage k is an O passage, so only
        # row 1 (index 0) and the rows after a U passage are built and added
        changed = [0] + [k for k in range(1, two_n - 1) if d.endpoints[k].passage == "U"]
        for c in enumerate_colorings(b, d):
            for row in _rotation_rows_at(_pair_terms(d, c, n), changed):
                add(row)

    for d in _small_hosts():
        move_rows(d, [mv for mv in enumerate_moves(d) if not _rowless(mv)])
        rotation_rows(d)
    for spectators in (0, 1):
        for d in _r3_template_hosts(spectators):
            if spectators and d.compiled.kind[3][1]:  # chord 4 is a kink
                continue
            move_rows(d, [mv for mv in _deletions(d.endpoints) if isinstance(mv, R3Slide)])
            rotation_rows(d)
    return [dict(key) for key in unique]


# ---------------------------------------------------------------------------
# solving over Z_m


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _combine(
    p: int, x: dict[int, int], q: int, y: dict[int, int], m: int
) -> dict[int, int]:
    """The sparse row p*x + q*y mod m, without zero entries."""
    out = {k: p * v for k, v in x.items()}
    for k, v in y.items():
        out[k] = out.get(k, 0) + q * v
    return {k: v % m for k, v in out.items() if v % m}


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
    power) is merged into the pivot by an xgcd pair.  Annihilator rows
    (m/gcd times a pivot row) are folded back in, as in a Howell form, which
    keeps the per-column solution counts exact.  Entries are Python ints, so
    every positive modulus is exact.

    The caller's rows are never changed.  Each one is copied, reduced mod m,
    into the buckets, so every bucketed row is private to the elimination
    and a row cleared by the pivot is reduced in place over the pivot's
    entries.  A row that names a column outside 0..ncols - 1 raises
    ValueError.
    """

    def __init__(self, ncols: int, m: int, rows: list[dict[int, int]]):
        if m < 1:
            raise ValueError(f"modulus must be a positive integer, got {m}")
        self.ncols = ncols
        self.m = m
        self.pivot: dict[int, dict[int, int]] = {}
        buckets: dict[int, list[dict[int, int]]] = {}

        def put(row: dict[int, int]) -> None:
            if row:
                buckets.setdefault(max(row), []).append(row)

        for row in rows:
            bad = next((s for s in row if not 0 <= s < ncols), None)
            if bad is not None:
                raise ValueError(f"row names column {bad}, outside 0..{ncols - 1}")
            put({s: c % m for s, c in row.items() if c % m})
        for col in range(ncols - 1, -1, -1):
            live = buckets.pop(col, None)
            if not live:
                continue
            first = piv = min(live, key=lambda r: (gcd(r[col], m), len(r)))
            g = gcd(piv[col], m)
            for other in live:
                if other is first:
                    continue
                a, b = piv[col], other[col]
                if b % g == 0:
                    # c * a == b (mod m); a // g is a unit mod m // g
                    c = b // g * pow(a // g, -1, m // g)
                    for k, v in piv.items():
                        x = (other.get(k, 0) - c * v) % m
                        if x:
                            other[k] = x
                        else:
                            other.pop(k, None)
                    put(other)
                    continue
                h, s, t = _xgcd(a, b)
                put(_combine(b // h, piv, -(a // h), other, m))
                piv = _combine(s, piv, t, other, m)
                g = gcd(piv[col], m)
            ann = m // g
            if ann != m:
                put({s: ann * c % m for s, c in piv.items() if ann * c % m})
            self.pivot[col] = piv

    def count(self) -> int:
        total = 1
        for col in range(self.ncols):
            if col in self.pivot:
                total *= gcd(self.pivot[col][col], self.m)
            else:
                total *= self.m
        return total

    def contains(self, values: tuple[int, ...]) -> bool:
        if len(values) != self.ncols:
            raise ValueError(f"expected {self.ncols} values, got {len(values)}")
        m = self.m
        return all(
            sum(c * values[k] for k, c in row.items()) % m == 0
            for row in self.pivot.values()
        )

    def _values(self, prefix: list[int]) -> range:
        """The values of column ``len(prefix)`` that extend ``prefix``."""
        m = self.m
        col = len(prefix)
        if col not in self.pivot:
            return range(m)
        row = self.pivot[col]
        g = row[col]
        r = sum(c * prefix[k] for k, c in row.items() if k != col) % m
        d = gcd(g, m)
        rr = (-r) % m
        if rr % d:
            return range(0)
        # g * v == rr (mod m) has the d solutions v0 + t*(m // d)
        md = m // d
        v0 = (rr // d * pow(g // d, -1, md)) % md if md > 1 else 0
        return range(v0, v0 + m, md)

    def __iter__(self):
        # an explicit stack of per-column value iterators, so the depth is
        # not bounded by the recursion limit (n^4 columns)
        prefix: list[int] = []
        stack = []
        while True:
            if len(prefix) == self.ncols:
                yield tuple(prefix)
            else:
                stack.append(iter(self._values(prefix)))
            while stack and (v := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return
            del prefix[len(stack) - 1 :]
            prefix.append(v)


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
    tensor in particular).  A negative ``limit`` raises ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be a non-negative integer, got {limit}")
    probes = [parse_gauss_code(code) for code in _PROBE_CODES] if nontrivial else []
    colorings = [(d, enumerate_colorings(b, d)) for d in probes]
    sols = solve_constraints(generate_constraints(b, m))
    tensors = (WeightTensor(b.n, m, values) for values in sols)
    if nontrivial:
        tensors = (
            w for w in tensors if any(sigma_D(w, d, c) for d, cs in colorings for c in cs)
        )
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


def _random_move(rng: random.Random, d: GaussDiagram) -> Move | None:
    """One scramble step's move: ``rng.choice`` over ``enumerate_moves(d)``,
    without the insertions once ``d`` has 6 chords, or None if no move is left.

    That list is the insertions (none from 6 chords up) followed by the
    deletions, so one index is drawn with ``rng.randrange`` over its length
    and read from the right part, without building the list.  ``choice(seq)``
    and ``randrange(len(seq))`` both draw ``_randbelow(len(seq))``, so the move
    and the state the RNG is left in are the same."""
    ins = _insertions(len(d.endpoints)) if d.n < 6 else ()
    dels = _deletions(d.endpoints) if d.endpoints else []
    if not ins and not dels:
        return None
    i = rng.randrange(len(ins) + len(dels))
    return ins[i] if i < len(ins) else dels[i - len(ins)]


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
    applicable moves, and for every coloring the weight sum must survive
    transport and basepoint rotation exactly.  The report is truthy
    exactly when ``w`` passes.
    A negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials}")
    if w.n != b.n:
        return ValidityReport(False, failed_trial={"error": "dimension mismatch"})
    bad = generate_constraints(b, w.m).violated(w)
    if bad:
        return ValidityReport(False, violated_rows=bad)
    rng = random.Random(seed)
    # each step's colorings of the moved diagram are the next step's
    # colorings, so their pair terms are computed once
    known: dict[tuple[GaussDiagram, tuple[int, ...]], list[tuple]] = {}

    def weight_sum(d: GaussDiagram, c: tuple[int, ...], check_rotations: bool) -> int:
        terms = known.get((d, c))
        if terms is None:
            terms = known[d, c] = _pair_terms(d, c, w.n)
        return _sum_terms(w, terms, len(d.endpoints), check_rotations)

    for trial in range(trials):
        d = _random_diagram_of_size(rng, rng.randint(0, _TRIAL_MAX_CHORDS))
        for _ in range(rng.randint(1, 3)):
            move = _random_move(rng, d)
            if move is None:
                break
            colorings = enumerate_colorings(b, d)
            d2, images = _transport(b, d, move, colorings)
            for c, c2 in zip(colorings, images):
                try:
                    before = weight_sum(d, c, True)
                    after = weight_sum(d2, c2, False)
                    mismatch = before != after
                    detail = {"before": before, "after": after}
                except ValueError as err:
                    mismatch = True
                    detail = {"error": str(err)}
                if mismatch:
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
            d = d2
    return ValidityReport(True)
