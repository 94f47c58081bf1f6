"""Arrow weights: crossing-pair weight sums and the search for valid ones.

An arrow weight for a biquandle X over Z_m is a tensor W indexed by two
arrow labels (four biquandle elements in total).  Given a colored diagram,
every unordered pair of crossings whose chords intersect in the Gauss
diagram contributes

    sign(p) * sign(q) * W[label(p)][label(q)]    (mod m)

where the first slot belongs to the crossing whose under-passage comes
first from the basepoint.  The total is the weight sum sigma_D of the
coloring; every sum is read from one per-pair table (:func:`_pair_terms`).
Moving the basepoint to passage k swaps the labels of exactly the pairs
it straddles, those with under-passages u1 < k <= u2.  For W to define a
knot invariant the multiset of weight sums over all colorings must be
unchanged by Reidemeister moves and by moving the basepoint; both are
linear conditions on the entries of W, collected by
:func:`generate_constraints` and solved over Z_m by :func:`solve_constraints`.
The conditions are integer rows that do not depend on m: they are built and
deduplicated once per biquandle, and each modulus reduces that one list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations, product
from math import gcd, isqrt

# Nothing here uses numpy.  perfbench/worker.py reads the numpy version from
# sys.modules after importing the package, so the import stays until the
# benchmark records it only when loaded (ROADMAP item 1).
import numpy  # noqa: F401

from .biquandle import Biquandle
from .gausscode import (
    Endpoint,
    GaussDiagram,
    Move,
    R1Insert,
    R2Insert,
    R3Slide,
    enumerate_moves,
    parse_gauss_code,
)
from .homset import LABEL_SLOTS, enumerate_colorings, transport_colorings

__all__ = [
    "WeightTensor",
    "sigma_terms",
    "sigma_D",
    "weight_multiset",
    "ConstraintSystem",
    "SolutionSet",
    "max_modulus",
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

    @staticmethod
    def slot(n: int, a: int, b: int, c: int, d: int) -> int:
        return (((a - 1) * n + (b - 1)) * n + (c - 1)) * n + (d - 1)

    def get(self, first: tuple[int, int], second: tuple[int, int]) -> int:
        a, b = first
        c, d = second
        return self.entries[self.slot(self.n, a, b, c, d)]

    def is_zero(self) -> bool:
        return not any(self.entries)

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
    """The weight-sum evaluator: per intersecting chord pair, in the order of
    ``crossing_pairs``, the sign product, the tensor slot of (label(first),
    label(second)), the slot with the labels swapped, and the under-passage
    indices u1 < u2 of the pair (the first chord's is u1)."""
    cd = d.compiled
    labels = [
        (coloring[s[i]] - 1) * n + coloring[s[j]] - 1
        for s, (i, j) in zip(cd.slots, map(LABEL_SLOTS.get, cd.sign))
    ]
    terms = []
    for p, q in cd.pairs:
        if cd.under[p] > cd.under[q]:
            p, q = q, p
        lp, lq = labels[p], labels[q]
        sign = cd.sign[p] * cd.sign[q]
        terms.append((sign, lp * n * n + lq, lq * n * n + lp, cd.under[p], cd.under[q]))
    return terms


def _rotation_rows(terms: list[tuple], two_n: int) -> list[dict[int, int]]:
    """Row k - 1 is sigma_D minus sigma_D from basepoint k, for 0 < k < 2n:
    moving the basepoint to k swaps the labels of the pairs with u1 < k <= u2."""
    rows: list[dict[int, int]] = [{} for _ in range(1, two_n)]
    for sign, slot, swapped, u1, u2 in terms:
        for row in rows[u1:u2]:
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


def sigma_terms(
    w: WeightTensor, d: GaussDiagram, coloring: tuple[int, ...]
) -> list[tuple[tuple[int, int], int]]:
    """The ((p, q), term) contributions of each intersecting chord pair."""
    terms = _pair_terms(d, coloring, w.n)
    pairs = [(p + 1, q + 1) for p, q in d.compiled.pairs]
    return [(pq, t[0] * w.entries[t[1]] % w.m) for pq, t in zip(pairs, terms)]


def sigma_D(
    w: WeightTensor,
    d: GaussDiagram,
    coloring: tuple[int, ...],
    check_rotations: bool = False,
) -> int:
    """The weight sum of one coloring, reduced mod m.

    With ``check_rotations`` the sum from every other basepoint must agree,
    which holds for every valid arrow weight; see :func:`_rotation_rows`.
    """
    terms = _pair_terms(d, coloring, w.n)
    if check_rotations:
        rows = _rotation_rows(terms, len(d.endpoints))
        for k, row in enumerate(rows, start=1):
            if sum(c * w.entries[s] for s, c in row.items()) % w.m:
                raise ValueError(f"weight sum depends on the basepoint (rotation {k})")
    return sum(t[0] * w.entries[t[1]] for t in terms) % w.m


def weight_multiset(
    b: Biquandle, w: WeightTensor, d: GaussDiagram, check_rotations: bool = False
) -> tuple[int, ...]:
    """Sorted weight sums over all colorings: the multiset-valued invariant."""
    colorings = enumerate_colorings(b, d)
    return tuple(sorted(sigma_D(w, d, c, check_rotations) for c in colorings))


# ---------------------------------------------------------------------------
# invariance constraints


def _r3_template_hosts(spectators: int) -> list[GaussDiagram]:
    """Diagrams containing a slide site, with extra chords woven through.

    The three slide blocks are placed around the circle in both cyclic
    arrangements, for both common signs; each spectator chord drops its two
    passages into the inter-block gaps in every distinct way.
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
                    ends = [Endpoint(4, "O", s_sign), Endpoint(4, "U", s_sign)]
                    for e1, e2 in (tuple(ends), tuple(reversed(ends))):
                        for g1, g2 in product(range(3), repeat=2):
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

    def holds_for(self, w: WeightTensor) -> bool:
        return not self.violated(w)


def _difference_row(before: dict[int, int], after: dict[int, int]) -> dict[int, int]:
    row = dict(before)
    for s, c in after.items():
        row[s] = row.get(s, 0) - c
    return row


@lru_cache(maxsize=None)
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
    """
    return ConstraintSystem(b.n, m, _integer_rows(b))


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

    def move_rows(d: GaussDiagram, moves) -> None:
        colorings = enumerate_colorings(b, d)
        bases = [sigma_coefficients(d, c, n) for c in colorings]
        for move in moves:
            d2, images = transport_colorings(b, d, move, colorings)
            for base, c2 in zip(bases, images):
                add(_difference_row(base, sigma_coefficients(d2, c2, n)))

    def rotation_rows(d: GaussDiagram) -> None:
        two_n = len(d.endpoints)
        if two_n < 4:
            return
        for c in enumerate_colorings(b, d):
            for row in _rotation_rows(_pair_terms(d, c, n), two_n):
                add(row)

    for d in _small_hosts():
        move_rows(d, enumerate_moves(d))
        rotation_rows(d)
    for spectators in (0, 1):
        for d in _r3_template_hosts(spectators):
            move_rows(d, [mv for mv in enumerate_moves(d) if isinstance(mv, R3Slide)])
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


def max_modulus(ncols: int) -> int:
    """The largest modulus accepted for ``ncols`` columns: the largest m with
    max(2, ncols) * (m - 1)^2 < 2^63.

    The elimination of :class:`SolutionSet` works on Python ints and is exact
    at every m; this is the range the solver and the CLI accept, not a bound
    of the arithmetic.
    """
    return isqrt((2**63 - 1) // max(2, ncols)) + 1


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
    keeps the per-column solution counts exact.
    """

    def __init__(self, ncols: int, m: int, rows: list[dict[int, int]]):
        if m > max_modulus(ncols):
            raise ValueError(f"modulus {m} is above the limit {max_modulus(ncols)}")
        self.ncols = ncols
        self.m = m
        self.pivot: dict[int, dict[int, int]] = {}
        buckets: dict[int, list[dict[int, int]]] = {}

        def put(row: dict[int, int]) -> None:
            if row:
                buckets.setdefault(max(row), []).append(row)

        for row in rows:
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
                    put(_combine(1, other, -c, piv, m))
                    continue
                h, s, t = _xgcd(a, b)
                put(_combine(b // h, piv, -(a // h), other, m))
                piv = _combine(s, piv, t, other, m)
                g = gcd(piv[col], m)
            ann = m // g
            put({s: ann * c % m for s, c in piv.items() if ann * c % m})
            self.pivot[col] = piv
        assert not buckets, "rows left over after full elimination"

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
    without the insertions once ``d`` has 6 chords, or None if no move is left."""
    moves = enumerate_moves(d)
    if d.n >= 6:
        moves = [mv for mv in moves if not isinstance(mv, (R1Insert, R2Insert))]
    return rng.choice(moves) if moves else None


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


def is_valid_weight(
    b: Biquandle,
    w: WeightTensor,
    trials: int = 40,
    seed: int = 0,
    max_chords: int = 4,
) -> ValidityReport:
    """Whether ``w`` is a valid arrow weight for ``b``.

    Checks membership in the generated constraint system, then runs seeded
    randomized trials: random diagrams, random applicable moves, and for
    every coloring the weight sum must survive transport and basepoint
    rotation exactly.  The report is truthy exactly when ``w`` passes.
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
    for trial in range(trials):
        d = _random_diagram_of_size(rng, rng.randint(0, max_chords))
        for _ in range(rng.randint(1, 3)):
            move = _random_move(rng, d)
            if move is None:
                break
            colorings = enumerate_colorings(b, d)
            d2, images = transport_colorings(b, d, move, colorings)
            for c, c2 in zip(colorings, images):
                try:
                    before = sigma_D(w, d, c, check_rotations=True)
                    after = sigma_D(w, d2, c2)
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
