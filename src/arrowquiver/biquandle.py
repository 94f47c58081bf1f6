"""Finite biquandles.

A biquandle is a set X with two binary operations, here called ``under``
(often written x >_ y) and ``over`` (x >~ y), satisfying axioms that make
colorings of oriented knot diagrams invariant under Reidemeister moves.

The crossing convention lives here.  At a crossing the understrand enters
colored u_in and leaves colored u_out, and the overstrand enters colored
o_in and leaves colored o_out.  At a positive crossing

    u_out = under(u_in, o_out)        o_in = over(o_out, u_in)

so the understrand colored x, passing under an overstrand that leaves
colored y, leaves as under(x, y), and the overstrand *enters* as over(y, x).
A negative crossing is the formal inverse: the same two equations hold with
in and out exchanged on both strands.  :attr:`Biquandle.crossings` lists
the positive crossings as tuples (u_in, u_out, o_in, o_out); the axiom
check below and the coloring relation of :mod:`arrowquiver.homset` read
that list.

Elements are the integers 1..n throughout, matching the usual presentation of
operation tables in the literature.

Axioms checked by :func:`validate_tables`:

* B1 (kink rule): under(x, x) == over(x, x) for all x.
* B2 (invertibility): for each y the maps x -> under(x, y) and
  x -> over(x, y) are bijections of X, and the combined map
  S(x, y) = (over(y, x), under(x, y)) is a bijection of X x X: the
  crossings take n^2 distinct values of (o_in, u_out).
* B3 (triple point rule): the crossing gate P(u_in, o_in) = (o_out, u_out),
  which the column bijections of B2 make a map on X x X, satisfies the
  set-theoretic Yang-Baxter equation P12 P23 P12 == P23 P12 P23 on X^3.

The gate formulation of B3 is the one that actually expresses invariance of
colorings under the slide move for the coloring convention used in this
package; it is equivalent to the usual exchange identities after the
appropriate change of variables.

Maps X -> X that respect both operations come from one search,
:meth:`Biquandle._maps`.  It closes each partial map under both operations
and branches on the least unassigned element, so it yields maps in
lexicographic order.  :meth:`Biquandle.endomorphisms` lists all it yields;
the coloring search (:mod:`arrowquiver.homset`) asks it for the first
bijective map with one image fixed, to find the orbits of Aut(X).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import product

__all__ = [
    "Biquandle",
    "BiquandleError",
    "Violation",
    "loads",
    "load",
    "parse_endos",
    "validate_tables",
]


class BiquandleError(ValueError):
    """Raised when operation tables fail to define a biquandle."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = [str(v) for v in violations]
        super().__init__("not a biquandle:\n" + "\n".join(lines))


@dataclass(frozen=True)
class Violation:
    """A single failed axiom instance, with a witness tuple of elements."""

    axiom: str
    witness: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}: {self.message}"


@dataclass(frozen=True)
class Biquandle:
    """A finite biquandle on elements 1..n given by two operation tables.

    ``under[x-1][y-1]`` is under(x, y) and ``over[x-1][y-1]`` is over(x, y).
    Construct via :func:`loads`, :func:`load` or directly from validated
    tables; use :func:`validate_tables` to check axioms first.
    """

    under: tuple[tuple[int, ...], ...]
    over: tuple[tuple[int, ...], ...]

    def __hash__(self) -> int:
        # computed once: every lookup in the coloring and weight-sum caches hashes it
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.under, self.over))
        return h

    @property
    def n(self) -> int:
        return len(self.under)

    @property
    def elements(self) -> range:
        return range(1, self.n + 1)

    def under_of(self, x: int, y: int) -> int:
        return self.under[x - 1][y - 1]

    def over_of(self, x: int, y: int) -> int:
        return self.over[x - 1][y - 1]

    @cached_property
    def crossings(self) -> tuple[tuple[int, int, int, int], ...]:
        """Every positive crossing (u_in, u_out, o_in, o_out), one per
        (u_in, o_out) in lexicographic order."""
        return tuple(
            (a, self.under[a - 1][t - 1], self.over[t - 1][a - 1], t)
            for a, t in product(self.elements, repeat=2)
        )

    def is_endomorphism(self, f: tuple[int, ...]) -> bool:
        """Whether the map x -> f[x-1] respects both operations: whether
        :meth:`_maps`, with every image fixed, finds it."""
        if len(f) != self.n or set(f) - set(self.elements):
            return False
        return next(self._maps(tuple(enumerate(f, 1)), injective=False), None) is not None

    def endomorphisms(self) -> list[tuple[int, ...]]:
        """All set maps X -> X respecting both operations, sorted: what
        :meth:`_maps` yields with no image fixed and non-bijective maps
        allowed."""
        return [g[1:] for g in self._maps((), injective=False)]

    def _maps(
        self,
        fixed: tuple[tuple[int, int], ...],
        injective: bool,
        budget: list[int] | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Every map g respecting both operations with g(x) == v for each
        (x, v) in ``fixed``, bijective ones only when ``injective`` is set,
        as tuples (0, g(1), ..., g(n)) in lexicographic order.

        Setting one image closes the assigned set under both operations:
        for assigned x and y, g(x op y) must be g(x) op g(y).  The search
        branches on the least unassigned element, trying its images in
        ascending order (only the unused ones when ``injective``), and keeps
        its branch points on an explicit stack.  Each image tried spends one
        unit of ``budget[0]``, if given, and the search stops once it is
        spent.
        """
        n = self.n
        tables = (self.under, self.over)
        g = [0] * (n + 1)  # 0 where unassigned
        used = [0] * (n + 1)  # per value, how many elements map to it
        domain: list[int] = []  # the assigned elements, in order of assignment

        def assign(x: int, v: int) -> bool:
            queue = [(x, v)]
            while queue:
                x, v = queue.pop()
                if g[x]:
                    if g[x] != v:
                        return False
                    continue
                if injective and used[v]:
                    return False
                g[x] = v
                used[v] += 1
                domain.append(x)
                for y in domain:
                    for t in tables:
                        queue.append((t[x - 1][y - 1], t[v - 1][g[y] - 1]))
                        queue.append((t[y - 1][x - 1], t[g[y] - 1][v - 1]))
            return True

        if not all(assign(x, v) for x, v in fixed):
            return
        # branch points: [element, least image still to try, domain size before]
        stack: list[list[int]] = []
        while True:
            x = next((y for y in range(1, n + 1) if not g[y]), 0)
            if x:
                stack.append([x, 1, len(domain)])
            else:
                yield tuple(g)
            while True:
                if not stack or budget is not None and budget[0] <= 0:
                    return
                top = stack[-1]
                x, v, size = top
                while len(domain) > size:
                    y = domain.pop()
                    used[g[y]] -= 1
                    g[y] = 0
                if injective:
                    v = next((w for w in range(v, n + 1) if not used[w]), n + 1)
                if v > n:
                    stack.pop()
                    continue
                top[1] = v + 1
                if budget is not None:
                    budget[0] -= 1
                if assign(x, v):
                    break


def validate_tables(
    under: tuple[tuple[int, ...], ...], over: tuple[tuple[int, ...], ...]
) -> list[Violation]:
    """All axiom violations of the candidate tables (empty list if valid)."""
    n = len(under)
    violations: list[Violation] = []
    elements = range(1, n + 1)

    for name, table in (("under", under), ("over", over)):
        if len(table) != n:
            violations.append(
                Violation("shape", (len(table),), f"{name} table must have {n} rows")
            )
            return violations
        for i, row in enumerate(table):
            if len(row) != n:
                violations.append(
                    Violation("shape", (i + 1,), f"{name} row {i + 1} has wrong length")
                )
                return violations
            bad = [v for v in row if not (1 <= v <= n)]
            if bad:
                violations.append(
                    Violation(
                        "range",
                        (i + 1, bad[0]),
                        f"{name} row {i + 1} contains {bad[0]}, outside 1..{n}",
                    )
                )
                return violations

    # B2: column maps must be bijections
    for name, table in (("under", under), ("over", over)):
        for y in elements:
            column = tuple(table[x - 1][y - 1] for x in elements)
            if len(set(column)) != n:
                violations.append(
                    Violation(
                        "B2",
                        (y,),
                        f"{name} column y={y} is {column}, not a bijection",
                    )
                )
    if violations:
        return violations

    # B1
    for x in elements:
        if under[x - 1][x - 1] != over[x - 1][x - 1]:
            violations.append(
                Violation(
                    "B1",
                    (x,),
                    f"under({x},{x})={under[x - 1][x - 1]} != over({x},{x})={over[x - 1][x - 1]}",
                )
            )

    # B2: the map S(x, y) = (over(y, x), under(x, y)) must be a bijection
    b = Biquandle(under, over)
    if len({(o_in, u_out) for _, u_out, o_in, _ in b.crossings}) != n * n:
        violations.append(
            Violation("B2", (), "S(x,y) = (over(y,x), under(x,y)) is not a bijection")
        )

    if violations:
        return violations

    # B3 as the Yang-Baxter equation for the crossing gate
    gate = {(u_in, o_in): (o_out, u_out) for u_in, u_out, o_in, o_out in b.crossings}

    def p12(x: int, y: int, z: int) -> tuple[int, int, int]:
        return (*gate[x, y], z)

    def p23(x: int, y: int, z: int) -> tuple[int, int, int]:
        return (x, *gate[y, z])

    for x, y, z in product(elements, repeat=3):
        lhs = p12(*p23(*p12(x, y, z)))
        rhs = p23(*p12(*p23(x, y, z)))
        if lhs != rhs:
            violations.append(
                Violation(
                    "B3",
                    (x, y, z),
                    f"Yang-Baxter fails: {lhs} != {rhs}",
                )
            )

    return violations


def loads(text: str) -> Biquandle:
    """Parse a biquandle from its text form.

    The format is the element count (at least 1) on the first line, then
    the ``under`` table one row per line, a blank line, and the ``over``
    table.  Entries are whitespace-separated integers in 1..n.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if not ln.startswith("#")]
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise ValueError("empty biquandle description")
    n = int(lines[0])
    if n < 1:
        raise ValueError(f"size must be a positive integer, found {n}")
    rows = [ln for ln in lines[1:] if ln]
    if len(rows) != 2 * n:
        raise ValueError(f"expected {2 * n} table rows, found {len(rows)}")

    def parse_table(chunk: list[str]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(tok) for tok in ln.split()) for ln in chunk)

    under = parse_table(rows[:n])
    over = parse_table(rows[n:])
    violations = validate_tables(under, over)
    if violations:
        raise BiquandleError(violations)
    return Biquandle(under, over)


def load(path: str) -> Biquandle:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def parse_endos(
    text: str, b: Biquandle, source: str = "<string>"
) -> list[tuple[int, ...]]:
    """Parse a set of endomorphisms of ``b``, one image vector per line.

    Each line lists f(1) .. f(n), separated by blanks or commas; ``#``
    starts a comment.  Every map must be an endomorphism and none may
    repeat, since the maps form a set.
    """
    out: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            f = tuple(int(tok) for tok in line.replace(",", " ").split())
        except ValueError:
            raise ValueError(f"{source}:{lineno}: not an image vector") from None
        if len(f) != b.n or any(not 1 <= x <= b.n for x in f):
            raise ValueError(f"{source}:{lineno}: expected {b.n} images in 1..{b.n}")
        if not b.is_endomorphism(f):
            raise ValueError(
                f"{source}:{lineno}: {list(f)} is not an endomorphism of the biquandle"
            )
        if f in out:
            raise ValueError(f"{source}:{lineno}: {list(f)} repeats line {out[f]}")
        out[f] = lineno
    if not out:
        raise ValueError(f"{source}: no endomorphisms found")
    return list(out)
