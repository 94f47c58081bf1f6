"""Weighted coloring quivers and their weight quotients.

Fixing a set S of biquandle endomorphisms, the coloring quiver of a diagram
has one vertex per coloring and, for every coloring c and every f in S, an
edge from c to the coloring obtained by applying f color by color.  Each
vertex carries the weight sum of its coloring, making the quiver a
diagram-independent invariant of the knot (for valid arrow weights).

Each f thus acts as a total function on the vertices, and a :class:`Quiver`
holds it as one tuple of vertex indices, the image of each vertex: one
int per edge, where a (src, dst, endo) triple would cost a tuple of three.
The polynomials, the weight quotient and the isomorphism test read these
tuples; the triples are listed from them on demand, for rendering.

The quotient quiver merges vertices of equal weight, keeping every edge
with multiplicity.  The polynomial invariants of
:mod:`arrowquiver.invariants` read a :class:`Quiver`, not its
quotient; ``phi_quotient_loop`` counts the quotient's loops as the edges
of the quiver between equal weights.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from .arrowweight import WeightTensor, _weight_sums
from .biquandle import Biquandle
from .gausscode import GaussDiagram
from .homset import _colorings

__all__ = [
    "Quiver",
    "QuotientQuiver",
    "build_quiver",
    "quotient_quiver",
    "quiver_isomorphic",
]


@dataclass(frozen=True)
class Quiver:
    """A weighted coloring quiver.  Each endomorphism acts as a total
    function on the vertices: ``targets[k][i]`` is the index of the image of
    vertex i under ``endos[k]``."""

    vertices: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    targets: tuple[tuple[int, ...], ...]
    endos: tuple[tuple[int, ...], ...]
    modulus: int

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The (src, dst, endo) index triples, map by map, then vertex by vertex."""
        return tuple((i, j, k) for k, t in enumerate(self.targets) for i, j in enumerate(t))

    def indegrees(self) -> tuple[int, ...]:
        acc = [0] * len(self.vertices)
        for t in self.targets:
            for j in t:
                acc[j] += 1
        return tuple(acc)

    def to_dot(self) -> str:
        labels = [f"{''.join(map(str, v))} | {w}" for v, w in zip(self.vertices, self.weights)]
        return _dot("quiver", "v", labels, [(i, j, f"f{k}") for i, j, k in self.edges])


@dataclass(frozen=True)
class QuotientQuiver:
    """Vertices are weight values; edges keep multiplicity."""

    weights: tuple[int, ...]
    sizes: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (src_idx, dst_idx, multiplicity)
    modulus: int

    def to_dot(self) -> str:
        labels = [f"{w} (x{s})" for w, s in zip(self.weights, self.sizes)]
        return _dot("quotient", "w", labels, self.edges)


def _dot(name: str, prefix: str, labels: list[str], edges) -> str:
    """A DOT digraph with nodes ``prefix``0, 1, ... labeled by ``labels``
    and one labeled edge per (src, dst, label) triple of ``edges``."""
    nodes = [f'  {prefix}{i} [label="{label}"];' for i, label in enumerate(labels)]
    arrows = [f'  {prefix}{s} -> {prefix}{t} [label="{label}"];' for s, t, label in edges]
    return "\n".join([f"digraph {name} {{", *nodes, *arrows, "}"]) + "\n"


def build_quiver(
    b: Biquandle,
    w: WeightTensor,
    d: GaussDiagram,
    endos: list[tuple[int, ...]] | None = None,
) -> Quiver:
    """The coloring quiver of ``d`` weighted by ``w``, under the set ``endos``.

    ``endos`` defaults to every endomorphism of ``b``; each must give one
    image per element of ``b`` and map colorings to colorings, which holds
    for any biquandle endomorphism, and none may repeat, since the maps form
    a set.
    """
    endos = b.endomorphisms() if endos is None else [tuple(f) for f in endos]
    colorings = _colorings(b, d)
    # itemgetter(*c) applied to fx = (0, *f) gives the image of coloring c
    # under f.  For the one semiarc of the empty diagram it gives a bare
    # color, not a tuple, so index is keyed by the cached colorings, or
    # there by their bare colors.
    picks = [itemgetter(*c) for c in colorings]
    index = {c if d.endpoints else c[0]: i for i, c in enumerate(colorings)}
    weights = _weight_sums(b, w, d)
    targets = []
    seen = set()
    for f in endos:
        if len(f) != b.n:
            raise ValueError(f"map {f} has {len(f)} entries but the biquandle has {b.n} elements")
        if f in seen:
            raise ValueError(f"map {f} is listed twice")
        seen.add(f)
        fx = (0, *f)
        images = []
        for pick in picks:
            j = index.get(pick(fx))
            if j is None:
                raise ValueError(f"map {f} does not preserve colorings")
            images.append(j)
        targets.append(tuple(images))
    return Quiver(colorings, weights, tuple(targets), tuple(endos), w.m)


def quotient_quiver(q: Quiver) -> QuotientQuiver:
    """Merge vertices of equal weight, preserving edge multiplicities."""
    sizes = Counter(q.weights)
    weights = tuple(sorted(sizes))
    index = {w: i for i, w in enumerate(weights)}
    classes = [index[w] for w in q.weights]
    mult = Counter((classes[i], classes[j]) for t in q.targets for i, j in enumerate(t))
    edges = tuple((s, t, m) for (s, t), m in sorted(mult.items()))
    return QuotientQuiver(weights, tuple(sizes[w] for w in weights), edges, q.modulus)


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
    A vertex of ``q1`` takes its partner from the side-2 vertices of its
    refined color, listed once per color in ascending order, trying only
    those still unpaired.
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.endos) != len(q2.endos):
        return False
    if not ignore_weights and q1.modulus != q2.modulus:
        return False
    n = len(q1.vertices)
    succ = [[*t1, *(j + n for j in t2)] for t1, t2 in zip(q1.targets, q2.targets)]
    seed = [0] * 2 * n if ignore_weights else [*q1.weights, *q2.weights]
    colors = _refine(succ, seed)
    if sorted(colors[:n]) != sorted(colors[n:]):
        return False
    partner = [-1] * (2 * n)
    members: dict[int, list[int]] = {}
    for x in range(n, 2 * n):
        members.setdefault(colors[x], []).append(x)
    # an explicit stack of branch points, so the depth is not bounded by the
    # recursion limit: (vertex, the unpaired members of its color not yet
    # tried, trail of the pairing tried)
    stack: list[tuple[int, Iterator[int], list[int]]] = []
    v = -1
    while (v := next((u for u in range(v + 1, n) if partner[u] == -1), n)) < n:
        tries = (x for x in members[colors[v]] if partner[x] == -1)
        trail: list[int] = []
        while True:
            # undo the pairing tried last, which failed or was backtracked
            for a in trail:
                partner[partner[a]] = -1
                partner[a] = -1
            w = next(tries, -1)
            if w == -1:
                if not stack:
                    return False
                v, tries, trail = stack.pop()
                continue
            # pairing v with w pairs their forward orbits; the coloring is
            # stable, so every forced pair is equally colored
            trail, todo = [], [(v, w)]
            while todo:
                a, b = todo.pop()
                if partner[a] == b:
                    continue
                if partner[a] != -1 or partner[b] != -1:
                    break
                partner[a], partner[b] = b, a
                trail.append(a)
                todo.extend((s[a], s[b]) for s in succ)
            else:  # no forced pair clashed: keep the pairing, go deeper
                stack.append((v, tries, trail))
                break
    return True
