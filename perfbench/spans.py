"""Layer spans recorded from outside the package.

``install`` replaces public functions of the package by wrappers that open
a span, and returns the wrapped functions for the benchmark's own calls.  A
span marks a call from one layer into another.  Most modules are one layer,
so calls inside them (``enumerate_moves`` trying ``apply_move`` on every
index pair, say) are not spans; ``arrowweight`` holds three layers (weight
sums, constraints and their solution, validity), so calls inside it are.

For each span name the tracer keeps the number of calls and the self time,
that is the span's duration minus the time of spans opened inside it, plus
exact work counts taken from the returned values.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name, count name, count of the returned value)
SPANS = (
    ("gausscode", "enumerate_moves", "gausscode.enumerate_moves", "gausscode.moves_listed", len),
    ("gausscode", "apply_move", "gausscode.apply_move", None, None),
    ("homset", "enumerate_colorings", "homset.enumerate_colorings", "homset.colorings_found", len),
    ("homset", "transport_coloring", "homset.transport_coloring", None, None),
    ("arrowweight", "sigma_D", "arrowweight.sigma", None, None),
    ("arrowweight", "sigma_coefficients", "arrowweight.sigma", None, None),
    ("arrowweight", "weight_multiset", "arrowweight.sigma", None, None),
    ("arrowweight", "generate_constraints", "arrowweight.generate_constraints", None, None),
    ("arrowweight", "solve_constraints", "arrowweight.solve_constraints", None, None),
    ("arrowweight", "is_valid_weight", "arrowweight.is_valid_weight", None, None),
    ("quiver", "build_quiver", "quiver.build_quiver", "quiver.vertices", lambda q: len(q.vertices)),
    ("quiver", "quiver_isomorphic", "quiver.quiver_isomorphic", None, None),
    ("invariants", "phi_weight", "invariants.phi", None, None),
    ("invariants", "phi_indegree", "invariants.phi", None, None),
    ("invariants", "phi_twovar", "invariants.phi", None, None),
    ("invariants", "phi_quotient_loop", "invariants.phi", None, None),
    ("biquandle", "load", "biquandle.load", None, None),
    ("knotdata", "load_table", "knotdata.load_table", None, None),
)

# modules whose own calls to their public functions cross a layer boundary
MULTI_LAYER = ("arrowweight",)

# span names set by the benchmark itself rather than by a wrapped function
OWN_SPANS = ("import", "biquandle.endomorphisms", "arrowweight.enumerate", "bench.check")
COUNTS = (
    "gausscode.moves_listed",
    "homset.colorings_found",
    "quiver.vertices",
    "arrowweight.rows_in",
    "arrowweight.rows_kept",
    "arrowweight.solution_log2",
)


class Tracer:
    """Span self times, call counts and work counts, kept in memory."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.top_s = 0.0  # time covered by outermost spans
        self._stack: list[list[float]] = []  # child time of each open span

    def _close(self, name: str, elapsed: float, child: float) -> None:
        self.self_s[name] += elapsed - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top_s += elapsed

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - t0
            self._stack.pop()
            self._close(name, elapsed, frame[0])

    def add(self, name: str, elapsed: float) -> None:
        """Record a span measured by the caller, with no spans inside it."""
        self._close(name, elapsed, 0.0)

    def wrap(self, fn, name, count_name=None, count=None):
        # span() inlined: a context manager per call costs about 3x as much
        stack = self._stack
        close = self._close
        counts = self.counts

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                close(name, elapsed, frame[0])
            if count_name:
                counts[count_name] += count(out)
            return out

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        names = {name for _, _, name, _, _ in SPANS} | set(OWN_SPANS)
        for name in sorted(names):
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        return out


def install(tracer: Tracer | None) -> dict:
    """Wrap the layer functions; return the callables the benchmark uses.

    With no tracer the package is left untouched and the plain functions
    are returned.
    """
    pkg = sys.modules["arrowquiver"]
    mods = [
        mod
        for name, mod in sys.modules.items()
        if name == "arrowquiver" or name.startswith("arrowquiver.")
    ]
    api = {}
    for modname, fname, name, count_name, count in SPANS:
        home = getattr(pkg, modname)
        fn = getattr(home, fname)
        if tracer is None:
            api[fname] = fn
            continue
        api[fname] = tracer.wrap(fn, name, count_name, count)
        for mod in mods:
            if mod.__dict__.get(fname) is fn and (mod is not home or modname in MULTI_LAYER):
                setattr(mod, fname, api[fname])
    if tracer is not None:
        _count_rows(pkg.arrowweight, tracer)
    return api


def _count_rows(arrowweight, tracer: Tracer) -> None:
    """Count constraint rows before and after deduplication."""
    base = arrowweight.ConstraintSystem

    class CountedSystem(base):
        def __init__(self, n, m, rows):
            super().__init__(n, m, rows)
            tracer.counts["arrowweight.rows_in"] += len(rows)
            tracer.counts["arrowweight.rows_kept"] += len(self.rows)

    arrowweight.ConstraintSystem = CountedSystem
