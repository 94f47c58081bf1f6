"""Polynomial readings of the weighted coloring quiver.

Each invariant collapses the quiver to a polynomial with nonnegative integer
exponents (weight values are residues mod m) and positive integer
coefficients (vertex or edge counts):

* ``phi_weight``        sum over vertices of u^weight,
* ``phi_indegree``      sum over vertices of u^weight * w^indegree,
* ``phi_twovar``        sum over edges of s^weight(src) * t^weight(dst),
* ``phi_quotient_loop`` sum over loop edges of the weight quotient of
  x^weight, counted with multiplicity.

Polynomials compare structurally; rendering is canonical (terms ascending
by exponents, zero exponents dropped, unit coefficients dropped next to a
nonempty monomial), e.g. ``2u^8``, ``9st``, ``4 + 4x^2``, ``10 + x^3``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from .arrowweight import WeightTensor, weight_multiset
from .biquandle import Biquandle
from .gausscode import GaussDiagram
from .quiver import Quiver

__all__ = [
    "ExpPoly",
    "weight_polynomial",
    "phi_weight",
    "phi_indegree",
    "phi_twovar",
    "phi_quotient_loop",
]


@dataclass(frozen=True)
class ExpPoly:
    """A polynomial in named variables, as a map exponents -> coefficient."""

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @classmethod
    def from_dict(
        cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], int]
    ) -> "ExpPoly":
        cleaned = {e: c for e, c in terms.items() if c}
        return cls(variables, tuple(sorted(cleaned.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            monomial = ""
            for var, e in zip(self.variables, exps):
                if e == 0:
                    continue
                monomial += var if e == 1 else f"{var}^{e}"
            if not monomial:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(monomial)
            else:
                parts.append(f"{coeff}{monomial}")
        return " + ".join(parts)

    def to_json(self) -> list[dict]:
        return [
            {"exponents": list(exps), "coeff": coeff} for exps, coeff in self.terms
        ]


def _histogram(variables: tuple[str, ...], keys: Iterable[tuple[int, ...]]) -> ExpPoly:
    """The polynomial with one unit term per exponent tuple in ``keys``."""
    return ExpPoly.from_dict(variables, Counter(keys))


def weight_polynomial(
    b: Biquandle, w: WeightTensor, d: GaussDiagram
) -> ExpPoly:
    """Histogram of weight sums over all colorings, in the variable u."""
    return _histogram(("u",), ((s,) for s in weight_multiset(b, w, d)))


def phi_weight(q: Quiver) -> ExpPoly:
    return _histogram(("u",), ((w,) for w in q.weights))


def phi_indegree(q: Quiver) -> ExpPoly:
    return _histogram(("u", "w"), zip(q.weights, q.indegrees()))


def phi_twovar(q: Quiver) -> ExpPoly:
    wt = q.weights
    return _histogram(("s", "t"), ((wt[i], wt[j]) for t in q.targets for i, j in enumerate(t)))


def phi_quotient_loop(q: Quiver) -> ExpPoly:
    """Loops of the weight quotient are the edges between equal weights."""
    wt = q.weights
    return _histogram(
        ("x",), ((wt[i],) for t in q.targets for i, j in enumerate(t) if wt[i] == wt[j])
    )
