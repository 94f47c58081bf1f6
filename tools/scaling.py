"""Time coloring search on seeded random diagrams of growing size.

For each bundled biquandle and each crossing count in ``SIZES``, draw
``SAMPLES`` random signed Gauss diagrams (virtual, so every shuffle of the
passages is allowed) from ``SEED`` and time ``enumerate_colorings`` on
each.  A diagram's time is the best of ``REPEATS`` runs, each after the
coloring cache is cleared, so every run searches from scratch and the
least time is the one least disturbed by the rest of the machine; the
biquandle's relation tables are built once, untimed.  ``max_ms`` and
``median_ms`` are taken over these per-diagram times.  One *point* is one
(biquandle, crossings) pair; all its samples and repeats run under one
``SIGALRM`` timeout of ``TIMEOUT_S`` seconds.  A point that times
out is recorded with status ``"timeout"``, and the larger points of that
biquandle are recorded as ``"skipped"`` without running.

The ``"isomorphism"`` series times quiver isomorphism on the quivers that
``tests/test_acceptance.py`` compares across an R3 slide: for each count
in ``COPIES``, connected copies of 4.99 followed by the slide host
``U1+U2+O1+U3+O2+O3+``, renumbered past them, under quad4 with every
endomorphism and the bundled Z_6 weight.  A point records the vertex count
(16 per copy), the time of ``build_quiver`` on the host from empty caches,
and the time of one ``quiver_isomorphic`` call of the host's quiver
against the quiver of its one listed slide.  The two builds and the call
run under one timeout of ``TIMEOUT_S`` seconds, and the larger counts are
skipped after a timeout, as above.

The ``"relation"`` list times the build of the coloring solver's crossing
tables, ``homset._relation``, which is the cold cost of the first
coloring search by a biquandle.  For the bundled biquandles, the dihedral
quandles R_n for n in ``DIHEDRAL`` (under(x, y) = 2y - x mod n, over(x, y)
= x) and the Alexander biquandles (n, t, s) in ``ALEXANDER`` (on Z_n,
under(x, y) = t x + (s - t) y and over(x, y) = s x, the biquandles of
``tests/test_coloring_oracle.py``), it records the number of keys of each
crossing kind's table and the best of ``REPEATS`` builds, each from an
empty cache.

The ``"moves"`` list times the move engine.  For each count in
``MOVE_SIZES``, it draws ``SAMPLES`` random diagrams of that many chords
from ``SEED`` and records the best of ``REPEATS`` mean per-call times of
the compile of a word into its tables (``gausscode._compile``), of
``enumerate_moves`` and of ``apply_move`` over each listed deletion and
slide, with the number of those moves applied.  The result is one JSON
object on stdout.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from arrowquiver.arrowweight import (  # noqa: E402
    WeightTensor,
    _random_diagram_of_size,
    _weight_sums,
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


class PointTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise PointTimeout


def run_point(b, name: str, chords: int) -> dict:
    rng = random.Random(f"{SEED}:{name}:{chords}")
    diagrams = [_random_diagram_of_size(rng, chords) for _ in range(SAMPLES)]
    times_ms: list[float] = []
    counts: list[int] = []
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        for d in diagrams:
            best = float("inf")
            for _ in range(REPEATS):
                _colorings.cache_clear()
                t0 = time.perf_counter()
                count = len(enumerate_colorings(b, d))
                best = min(best, time.perf_counter() - t0)
            counts.append(count)
            times_ms.append(best * 1e3)
        status = "ok"
    except PointTimeout:
        status = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "biquandle": name,
        "crossings": chords,
        "status": status,
        "done": len(times_ms),
        "max_ms": round(max(times_ms), 3) if times_ms else None,
        "median_ms": round(sorted(times_ms)[len(times_ms) // 2], 3) if times_ms else None,
        "colorings": counts,
    }


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


def run_isomorphism_point(b, w: WeightTensor, endos, copies: int) -> dict:
    d1, d2 = slide_pair(copies)
    point: dict = {
        "copies": copies,
        "vertices": None,
        "build_ms": None,
        "isomorphic": None,
        "isomorphic_ms": None,
    }
    _colorings.cache_clear()
    _weight_sums.cache_clear()
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        t0 = time.perf_counter()
        q1 = build_quiver(b, w, d1, endos)
        point["build_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
        point["vertices"] = len(q1.vertices)
        q2 = build_quiver(b, w, d2, endos)
        t0 = time.perf_counter()
        point["isomorphic"] = quiver_isomorphic(q1, q2)
        point["isomorphic_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
        point["status"] = "ok"
    except PointTimeout:
        point["status"] = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return point


def isomorphism_series() -> list[dict]:
    b = load_biquandle(str(bundled_path("biquandle_quad4.txt")))
    w = WeightTensor.load(str(bundled_path("weight_quad4_z6.txt")))
    endos = b.endomorphisms()
    series = []
    timed_out = False
    for copies in COPIES:
        if timed_out:
            series.append({"copies": copies, "status": "skipped"})
            continue
        point = run_isomorphism_point(b, w, endos, copies)
        timed_out = point["status"] == "timeout"
        series.append(point)
    return series


def relation_point(name: str, b: Biquandle) -> dict:
    best = float("inf")
    for _ in range(REPEATS):
        _relation.cache_clear()
        t0 = time.perf_counter()
        tables = _relation(b)
        best = min(best, time.perf_counter() - t0)
    return {
        "biquandle": name,
        "n": b.n,
        "keys": {f"{sign:+d},{shape}": len(t) for (sign, shape), t in tables.items()},
        "build_ms": round(best * 1e3, 3),
    }


def relation_series() -> list[dict]:
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
    return [relation_point(name, b) for name, b in biquandles.items()]


def best_mean_us(calls: list) -> float | None:
    """The best of ``REPEATS`` mean times of the zero-argument ``calls``, in
    microseconds per call; None when there are no calls."""
    if not calls:
        return None
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for call in calls:
            call()
        best = min(best, time.perf_counter() - t0)
    return round(best / len(calls) * 1e6, 3)


def moves_point(chords: int) -> dict:
    rng = random.Random(f"{SEED}:moves:{chords}")
    diagrams = [_random_diagram_of_size(rng, chords) for _ in range(SAMPLES)]
    applied = [(d, mv) for d in diagrams for mv in _deletions(d.endpoints)]
    return {
        "crossings": chords,
        "compile_us": best_mean_us([partial(_compile, d.endpoints) for d in diagrams]),
        "enumerate_moves_us": best_mean_us([partial(enumerate_moves, d) for d in diagrams]),
        "apply_move_us": best_mean_us([partial(apply_move, d, mv) for d, mv in applied]),
        "applied": len(applied),
    }


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    points = []
    for name in BIQUANDLES:
        b = load_biquandle(str(bundled_path(f"biquandle_{name}.txt")))
        enumerate_colorings(b, GaussDiagram(()))  # per-biquandle set-up, untimed
        timed_out = False
        for chords in SIZES:
            if timed_out:
                points.append({"biquandle": name, "crossings": chords, "status": "skipped"})
                continue
            point = run_point(b, name, chords)
            timed_out = point["status"] == "timeout"
            points.append(point)
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
                "isomorphism": isomorphism_series(),
                "relation": relation_series(),
                "moves": [moves_point(chords) for chords in MOVE_SIZES],
            },
            indent=1,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
