"""Time coloring search on seeded random diagrams of growing size.

Every list below is a series of *points*, and one runner,
:func:`run_series`, runs each: a point runs under one ``SIGALRM`` timeout
of ``TIMEOUT_S`` seconds and gets ``"status"`` ``"ok"`` or ``"timeout"``,
and every later point of its series is recorded as ``"skipped"`` without
running.  A point's measure writes its fields as it goes, so a point that
times out keeps what it finished.  A *best-of* time (:func:`best_of`) is
the least of ``REPEATS`` runs, each after an optional reset such as a cache
clear, so it is the run least disturbed by the rest of the machine.

The ``"points"`` list: for each bundled biquandle and each crossing count
in ``SIZES``, draw ``SAMPLES`` random signed Gauss diagrams (virtual, so
every shuffle of the passages is allowed) from ``SEED`` and time
``enumerate_colorings`` on each.  A diagram's time is its best-of time,
each run after the coloring cache is cleared, so every run searches from
scratch; the biquandle's relation tables are built once, untimed.
``max_ms`` and ``median_ms`` are taken over these per-diagram times, and
``done`` counts them.  One point is one (biquandle, crossings) pair; each
biquandle's sizes are one series.

The ``"isomorphism"`` series times quiver isomorphism on the quivers that
``tests/test_acceptance.py`` compares across an R3 slide: for each count
in ``COPIES``, connected copies of 4.99 followed by the slide host
``U1+U2+O1+U3+O2+O3+``, renumbered past them, under quad4 with every
endomorphism and the bundled Z_6 weight.  A point records the vertex count
(16 per copy), the time of ``build_quiver`` on the host from empty caches,
and the time of one ``quiver_isomorphic`` call of the host's quiver
against the quiver of its one listed slide.

The ``"relation"`` series times the build of the coloring solver's crossing
tables, ``homset._relation``, which is the cold cost of the first
coloring search by a biquandle.  For the bundled biquandles, the dihedral
quandles R_n for n in ``DIHEDRAL`` (under(x, y) = 2y - x mod n, over(x, y)
= x) and the Alexander biquandles (n, t, s) in ``ALEXANDER`` (on Z_n,
under(x, y) = t x + (s - t) y and over(x, y) = s x, the biquandles of
``tests/test_coloring_oracle.py``), it records the number of keys of each
crossing kind's table and the best-of time of the build, each run from an
empty cache.

The ``"moves"`` series times the move engine.  For each count in
``MOVE_SIZES``, it draws ``SAMPLES`` random diagrams of that many chords
from ``SEED`` and records the best of ``REPEATS`` mean per-call times of
the compile of a word into its tables (``gausscode._compile``), of
``enumerate_moves`` and of ``apply_move`` over each listed deletion and
slide, with the number of those moves applied.

The ``"solver"`` series times the Z_m solver on each bundled (biquandle,
m) pair in ``PAIRS``.  A point records the number of constraint rows, the
number of pivots and log2 of the solution count, and the best-of times of
the ``SolutionSet`` build from those rows, of the walk to the first
``WALK`` tensors and of a cold ``_integer_rows``, each run of which starts
with that cache and the coloring cache cleared (the relation tables stay
built).  The result is one JSON object on stdout.

Run from the repository root (uses only the standard library and the
package in ``src``):

    python3 tools/scaling.py
"""

from __future__ import annotations

import json
import platform
import random
import signal
import sys
import time
from functools import partial
from itertools import islice
from math import log2
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arrowquiver.arrowweight import (  # noqa: E402
    SolutionSet,
    WeightTensor,
    _integer_rows,
    _random_diagram_of_size,
    _weight_sums,
    generate_constraints,
)
from arrowquiver.biquandle import Biquandle  # noqa: E402
from arrowquiver.biquandle import load as load_biquandle  # noqa: E402
from arrowquiver.gausscode import (  # noqa: E402
    Endpoint,
    GaussDiagram,
    R3Slide,
    _compile,
    _deletions,
    apply_move,
    enumerate_moves,
    parse_gauss_code,
)
from arrowquiver.homset import _colorings, _relation, enumerate_colorings  # noqa: E402
from arrowquiver.knotdata import bundled_path, bundled_table  # noqa: E402
from arrowquiver.quiver import build_quiver, quiver_isomorphic  # noqa: E402

BIQUANDLES = ("flip2", "cyc3", "quad4", "shift4")
SIZES = (8, 10, 12, 14, 16, 20, 24, 30)
SAMPLES = 5
REPEATS = 5
SEED = 1
TIMEOUT_S = 10.0
COPIES = (1, 2, 3, 4)
DIHEDRAL = (7, 9, 11)
ALEXANDER = ((4, 3, 1), (5, 2, 3), (7, 3, 2), (8, 3, 5), (9, 2, 4))
MOVE_SIZES = (4, 8, 16, 30)
PAIRS = (("flip2", 16), ("cyc3", 8), ("cyc3", 3), ("quad4", 6), ("shift4", 4))
WALK = 64


class PointTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise PointTimeout


def run_series(points: list[dict], measure) -> list[dict]:
    """Call ``measure(point)`` on each of ``points`` in order, each under one
    ``SIGALRM`` timeout of ``TIMEOUT_S`` seconds, and record its ``"status"``
    as ``"ok"`` or ``"timeout"``.  Every point after a timeout is marked
    ``"skipped"`` without running.  A measure writes its fields into the
    point as it goes, so a point that times out keeps what it recorded.
    The caller installs :func:`_alarm` as the ``SIGALRM`` handler."""
    timed_out = False
    for point in points:
        if timed_out:
            point["status"] = "skipped"
            continue
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            measure(point)
            point["status"] = "ok"
        except PointTimeout:
            point["status"] = "timeout"
            timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return points


def best_of(run, reset=None) -> float:
    """The least time in seconds of ``REPEATS`` calls of ``run``, each after a
    call of ``reset``, if given."""
    best = float("inf")
    for _ in range(REPEATS):
        if reset is not None:
            reset()
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def coloring_point(b, point: dict) -> None:
    rng = random.Random(f"{SEED}:{point['biquandle']}:{point['crossings']}")
    diagrams = [_random_diagram_of_size(rng, point["crossings"]) for _ in range(SAMPLES)]
    times_ms: list[float] = []
    point.update(done=0, max_ms=None, median_ms=None, colorings=[])
    for d in diagrams:
        times_ms.append(best_of(partial(enumerate_colorings, b, d), _colorings.cache_clear) * 1e3)
        point["colorings"].append(len(enumerate_colorings(b, d)))  # a cache hit
        point.update(
            done=len(times_ms),
            max_ms=round(max(times_ms), 3),
            median_ms=round(sorted(times_ms)[len(times_ms) // 2], 3),
        )


def slide_pair(copies: int) -> tuple[GaussDiagram, GaussDiagram]:
    """``copies`` connected copies of 4.99 followed by the slide host, and
    the diagram after the host's one listed slide."""
    knot = bundled_table().get("4.99")
    parts = [knot] * copies + [parse_gauss_code("U1+U2+O1+U3+O2+O3+")]
    d1 = GaussDiagram(
        tuple(
            Endpoint(e.chord + i * knot.n, e.passage, e.sign)
            for i, part in enumerate(parts)
            for e in part.endpoints
        )
    )
    (slide,) = (mv for mv in enumerate_moves(d1) if isinstance(mv, R3Slide))
    return d1, apply_move(d1, slide)


def isomorphism_point(b, w: WeightTensor, endos, point: dict) -> None:
    d1, d2 = slide_pair(point["copies"])
    point.update(vertices=None, build_ms=None, isomorphic=None, isomorphic_ms=None)
    _colorings.cache_clear()
    _weight_sums.cache_clear()
    t0 = time.perf_counter()
    q1 = build_quiver(b, w, d1, endos)
    point["build_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    point["vertices"] = len(q1.vertices)
    q2 = build_quiver(b, w, d2, endos)
    t0 = time.perf_counter()
    point["isomorphic"] = quiver_isomorphic(q1, q2)
    point["isomorphic_ms"] = round((time.perf_counter() - t0) * 1e3, 3)


def relation_point(biquandles: dict[str, Biquandle], point: dict) -> None:
    b = biquandles[point["biquandle"]]
    point["n"] = b.n
    build_s = best_of(partial(_relation, b), _relation.cache_clear)
    point["keys"] = {f"{sign:+d},{shape}": len(t) for (sign, shape), t in _relation(b).items()}
    point["build_ms"] = round(build_s * 1e3, 3)


def relation_biquandles() -> dict[str, Biquandle]:
    biquandles = {
        name: load_biquandle(str(bundled_path(f"biquandle_{name}.txt"))) for name in BIQUANDLES
    }
    for n in DIHEDRAL:
        x = range(n)
        under = tuple(tuple((2 * j - i) % n + 1 for j in x) for i in x)
        biquandles[f"R_{n}"] = Biquandle(under, tuple((i + 1,) * n for i in x))
    for n, t, s in ALEXANDER:
        x = range(n)
        under = tuple(tuple((t * i + (s - t) * j) % n + 1 for j in x) for i in x)
        over = tuple((s * i % n + 1,) * n for i in x)
        biquandles[f"alexander({n},{t},{s})"] = Biquandle(under, over)
    return biquandles


def best_mean_us(calls: list) -> float | None:
    """The best of ``REPEATS`` mean times of the zero-argument ``calls``, in
    microseconds per call; None when there are no calls."""
    if not calls:
        return None
    return round(best_of(lambda: [call() for call in calls]) / len(calls) * 1e6, 3)


def moves_point(point: dict) -> None:
    rng = random.Random(f"{SEED}:moves:{point['crossings']}")
    diagrams = [_random_diagram_of_size(rng, point["crossings"]) for _ in range(SAMPLES)]
    applied = [(d, mv) for d in diagrams for mv in _deletions(d.endpoints)]
    point["compile_us"] = best_mean_us([partial(_compile, d.endpoints) for d in diagrams])
    point["enumerate_moves_us"] = best_mean_us([partial(enumerate_moves, d) for d in diagrams])
    point["apply_move_us"] = best_mean_us([partial(apply_move, d, mv) for d, mv in applied])
    point["applied"] = len(applied)


def _cold_rows() -> None:
    _integer_rows.cache_clear()
    _colorings.cache_clear()


def solver_point(point: dict) -> None:
    b = load_biquandle(str(bundled_path(f"biquandle_{point['biquandle']}.txt")))
    ncols, m = b.n**4, point["m"]
    rows = generate_constraints(b, m).rows
    sols = SolutionSet(ncols, m, rows)
    point.update(rows=len(rows), pivots=len(sols.pivot), count_log2=round(log2(sols.count()), 4))
    point["build_ms"] = round(best_of(partial(SolutionSet, ncols, m, rows)) * 1e3, 3)
    point["walk_ms"] = round(best_of(lambda: list(islice(sols, WALK))) * 1e3, 3)
    point["integer_rows_ms"] = round(best_of(partial(_integer_rows, b), _cold_rows) * 1e3, 3)


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    points = []
    for name in BIQUANDLES:
        b = load_biquandle(str(bundled_path(f"biquandle_{name}.txt")))
        enumerate_colorings(b, GaussDiagram(()))  # per-biquandle set-up, untimed
        series = [{"biquandle": name, "crossings": chords} for chords in SIZES]
        points += run_series(series, partial(coloring_point, b))
    quad4 = load_biquandle(str(bundled_path("biquandle_quad4.txt")))
    w = WeightTensor.load(str(bundled_path("weight_quad4_z6.txt")))
    relations = relation_biquandles()
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "seed": SEED,
                "samples": SAMPLES,
                "repeats": REPEATS,
                "timeout_s": TIMEOUT_S,
                "points": points,
                "isomorphism": run_series(
                    [{"copies": copies} for copies in COPIES],
                    partial(isomorphism_point, quad4, w, quad4.endomorphisms()),
                ),
                "relation": run_series(
                    [{"biquandle": name} for name in relations],
                    partial(relation_point, relations),
                ),
                "moves": run_series([{"crossings": c} for c in MOVE_SIZES], moves_point),
                "solver": run_series(
                    [{"biquandle": name, "m": m} for name, m in PAIRS], solver_point
                ),
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
