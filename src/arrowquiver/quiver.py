"""Weighted coloring quivers and their weight quotients.

Fixing a set S of biquandle endomorphisms, the coloring quiver of a diagram
has one vertex per coloring and, for every coloring c and every f in S, an
edge from c to the coloring obtained by applying f color by color.  Each
vertex carries the weight sum of its coloring, making the quiver a
diagram-independent invariant of the knot (for valid arrow weights).

The quotient quiver merges vertices of equal weight, keeping every edge
with multiplicity; the polynomial invariants of
:mod:`arrowquiver.invariants` read either object.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .arrowweight import WeightTensor, _weight_sums
from .biquandle import Biquandle
from .gausscode import GaussDiagram
from .homset import enumerate_colorings

__all__ = [
    "Quiver",
    "QuotientQuiver",
    "build_quiver",
    "quotient_quiver",
    "quiver_isomorphic",
]


@dataclass(frozen=True)
class Quiver:
    """A weighted coloring quiver; edges are (src, dst, endo) index triples."""

    vertices: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]
    endos: tuple[tuple[int, ...], ...]
    modulus: int

    def indegrees(self) -> tuple[int, ...]:
        acc = [0] * len(self.vertices)
        for _, dst, _ in self.edges:
            acc[dst] += 1
        return tuple(acc)

    def to_dot(self) -> str:
        lines = ["digraph quiver {"]
        for i, (v, w) in enumerate(zip(self.vertices, self.weights)):
            label = "".join(str(c) for c in v)
            lines.append(f'  v{i} [label="{label} | {w}"];')
        for src, dst, k in self.edges:
            lines.append(f"  v{src} -> v{dst} [label=\"f{k}\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class QuotientQuiver:
    """Vertices are weight values; edges keep multiplicity."""

    weights: tuple[int, ...]
    sizes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (src_idx, dst_idx, multiplicity)
    modulus: int

    def to_dot(self) -> str:
        lines = ["digraph quotient {"]
        for i, (w, s) in enumerate(zip(self.weights, self.sizes)):
            lines.append(f'  w{i} [label="{w} (x{s})"];')
        for src, dst, mult in self.edges:
            lines.append(f'  w{src} -> w{dst} [label="{mult}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_quiver(
    b: Biquandle,
    w: WeightTensor,
    d: GaussDiagram,
    endos: list[tuple[int, ...]] | None = None,
) -> Quiver:
    """The coloring quiver of ``d`` weighted by ``w``, under the set ``endos``.

    ``endos`` defaults to every endomorphism of ``b``; each must map
    colorings to colorings, which holds for any biquandle endomorphism, and
    none may repeat, since the maps form a set.
    """
    endos = b.endomorphisms() if endos is None else [tuple(f) for f in endos]
    colorings = enumerate_colorings(b, d)
    # itemgetter(*c) applied to fx = (0, *f) gives the image of coloring c
    # under f.  For a coloring of one semiarc it gives a bare color, not a
    # tuple, so the keys of index are what it picks from the identity map.
    picks = [itemgetter(*c) for c in colorings]
    identity = tuple(range(b.n + 1))
    index = {pick(identity): i for i, pick in enumerate(picks)}
    weights = _weight_sums(b, w, d)
    edges = []
    seen = set()
    for k, f in enumerate(endos):
        if f in seen:
            raise ValueError(f"map {f} is listed twice")
        seen.add(f)
        fx = (0, *f)
        for i, pick in enumerate(picks):
            j = index.get(pick(fx))
            if j is None:
                raise ValueError(f"map {f} does not preserve colorings")
            edges.append((i, j, k))
    return Quiver(tuple(colorings), weights, tuple(edges), tuple(endos), w.m)


def quotient_quiver(q: Quiver) -> QuotientQuiver:
    """Merge vertices of equal weight, preserving edge multiplicities."""
    weights = tuple(sorted(set(q.weights)))
    index = {w: i for i, w in enumerate(weights)}
    sizes = [0] * len(weights)
    for w in q.weights:
        sizes[index[w]] += 1
    mult: dict[tuple[int, int], int] = {}
    for src, dst, _ in q.edges:
        key = (index[q.weights[src]], index[q.weights[dst]])
        mult[key] = mult.get(key, 0) + 1
    edges = tuple((s, t, m) for (s, t), m in sorted(mult.items()))
    return QuotientQuiver(weights, tuple(sizes), edges, q.modulus)


def _refine(succ: list[list[int]], colors: list[int]) -> list[int]:
    """Split color classes by successor colors and sorted (map, color) lists
    of predecessors until stable (Paige & Tarjan, SIAM J. Comput. 1987)."""
    classes = len(set(colors))
    while True:
        preds: list[list[tuple[int, int]]] = [[] for _ in colors]
        for k, s in enumerate(succ):
            for v, t in enumerate(s):
                preds[t].append((k, colors[v]))
        images = [[colors[t] for t in s] for s in succ]
        keys = list(zip(colors, *images, (tuple(sorted(p)) for p in preds)))
        relabel = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [relabel[k] for k in keys]
        if len(relabel) == classes:
            return colors
        classes = len(relabel)


def quiver_isomorphic(q1: Quiver, q2: Quiver, ignore_weights: bool = False) -> bool:
    """Whether two quivers over the same endomorphism set are isomorphic.

    An isomorphism is a vertex bijection commuting with the action of each
    endomorphism (matched by position in the endo list) and, unless
    ``ignore_weights``, preserving vertex weights.

    Both quivers are refined as one disjoint union; pairing two vertices
    pairs their forward orbits, and only unreached vertices are branched on.
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.endos) != len(q2.endos):
        return False
    if not ignore_weights and q1.modulus != q2.modulus:
        return False
    n = len(q1.vertices)
    succ = [[0] * n + [n] * n for _ in q1.endos]
    for offset, q in ((0, q1), (n, q2)):
        for src, dst, k in q.edges:
            succ[k][offset + src] = offset + dst
    seed = [0] * 2 * n if ignore_weights else [*q1.weights, *q2.weights]
    colors = _refine(succ, seed)
    if sorted(colors[:n]) != sorted(colors[n:]):
        return False
    partner = [-1] * (2 * n)

    def pair(v: int, w: int, trail: list[int]) -> bool:
        # the coloring is stable, so every forced pair is equally colored
        todo = [(v, w)]
        while todo:
            a, b = todo.pop()
            if partner[a] == b:
                continue
            if partner[a] != -1 or partner[b] != -1:
                return False
            partner[a], partner[b] = b, a
            trail.append(a)
            todo.extend((s[a], s[b]) for s in succ)
        return True

    def unpair(trail: list[int]) -> None:
        for a in trail:
            partner[partner[a]] = -1
            partner[a] = -1

    # an explicit stack of branch points, so the depth is not bounded by the
    # recursion limit: (vertex, its next candidate partner, trail of the
    # pairing tried)
    stack: list[tuple[int, int, list[int]]] = []
    v, w = 0, n
    while v < n:
        w = next(
            (x for x in range(w, 2 * n) if partner[x] == -1 and colors[x] == colors[v]),
            2 * n,
        )
        if w == 2 * n:
            if not stack:
                return False
            v, w, trail = stack.pop()
            unpair(trail)
            continue
        trail = []
        if pair(v, w, trail):
            stack.append((v, w + 1, trail))
            v = next((u for u in range(v + 1, n) if partner[u] == -1), n)
            w = n
        else:
            unpair(trail)
            w += 1
    return True
