"""Run one job in this (fresh) interpreter and print its result as JSON.

Usage: ``python3 perfbench/worker.py SPEC`` from the root of a checkout,
with ``src`` on ``PYTHONPATH``.  SPEC is a JSON object with the keys of a
job from ``workloads.jobs`` plus ``trace`` (bool) and ``spawned`` (the
parent's ``time.monotonic()`` just before it started this process; the
monotonic clock is shared by all processes, so set-up time counts
interpreter start-up).

The job loads its inputs, then runs its items one after another, each under
the per-item timeout, timing each and checking its output.  An item fails
if it raises, times out or fails its check.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json
import random
import resource
import signal
import sys
from contextlib import nullcontext
from itertools import islice
from math import log2
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import workloads as wl
from spans import Tracer, install


# ``table --type`` value -> invariant function
PHI = {"indeg": "phi_indegree", "twovar": "phi_twovar", "qloop": "phi_quotient_loop"}


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"item exceeded {wl.ITEM_TIMEOUT_S} s")


class Job:
    """Inputs of one job and the package functions it calls."""

    def __init__(self, spec: dict, tracer: Tracer | None, reference: dict):
        self.spec = spec
        self.seed = spec["seed"]
        self.tracer = tracer
        self.ref = reference
        t0 = time.perf_counter()
        from arrowquiver.arrowweight import WeightTensor
        from arrowquiver.gausscode import Endpoint, GaussDiagram
        from arrowquiver.homset import is_coloring
        from arrowquiver.knotdata import bundled_path, orientation_variants

        if tracer is not None:
            tracer.add("import", time.perf_counter() - t0)
        self.numpy_version = sys.modules["numpy"].__version__
        self.api = install(tracer)
        self.WeightTensor = WeightTensor
        self.Endpoint, self.GaussDiagram = Endpoint, GaussDiagram
        self.is_coloring = is_coloring
        self.orientation_variants = orientation_variants
        self.path = bundled_path
        self.items: list = []
        getattr(self, "setup_" + spec["workload"])(spec["job"])

    # -- helpers ----------------------------------------------------------

    def span(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def load_fixture(self, name: str):
        bq, tensor, endos_file, kind = wl.FIXTURES[name]
        b = self.api["load"](str(self.path(bq)))
        w = self.WeightTensor.load(str(self.path(tensor)))
        with self.span("biquandle.endomorphisms"):
            every = self.every_endo = b.endomorphisms()
        if endos_file is None:
            return b, w, every, kind
        endos = []
        for line in self.path(endos_file).read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                endos.append(tuple(int(tok) for tok in line.split()))
        missing = [f for f in endos if f not in every]
        if missing:
            raise ValueError(f"{endos_file}: {missing} are not endomorphisms")
        return b, w, endos, kind

    def diagram(self, word) -> object:
        return self.GaussDiagram(tuple(self.Endpoint(c, p, s) for c, p, s in word))

    # -- table ------------------------------------------------------------

    def setup_table(self, fixture: str) -> None:
        self.b, self.w, self.endos, self.kind = self.load_fixture(fixture)
        table = self.api["load_table"](str(self.path("knots_upto4.tsv")))
        self.names = table.names()
        self.rows = {name: [None] * 4 for name in self.names}
        self.expected = {}
        for line in self.ref["table"][fixture].splitlines():
            name, *cells = line.split("\t")
            self.expected[name] = cells
        for entry in table:
            for o, v in enumerate(self.orientation_variants(entry.diagram)):
                self.items.append((entry.name, o, v))
        self.fixture = fixture

    def item_table(self, item):
        name, o, d = item
        # what the ``table`` subcommand prints for this diagram
        phi = self.api[PHI[self.kind]]
        text = str(phi(self.api["build_quiver"](self.b, self.w, d, self.endos)))
        with self.span("bench.check"):
            self.rows[name][o] = text
            ok = text == self.expected[name][o]
        return ok, [name, o, str(d)]

    def finish_table(self) -> list[str]:
        lines = "".join(
            "\t".join([name, *self.rows[name]]) + "\n" for name in self.names
        )
        if lines != self.ref["table"][self.fixture]:
            return ["rendered table differs from the recorded output"]
        return []

    # -- weights ----------------------------------------------------------

    def setup_weights(self, job: str) -> None:
        for fixture in wl.WEIGHT_JOBS[job]:
            b, w, _, _ = self.load_fixture(fixture)
            bad = self.WeightTensor(
                b.n, w.m, wl.invalid_tensor(self.seed, fixture, b.n, w.m)
            )
            self.items.append((fixture, b, w, bad))

    def item_weights(self, item):
        fixture, b, w, bad = item
        api = self.api
        system = api["generate_constraints"](b, w.m)
        solutions = api["solve_constraints"](system)
        with self.span("arrowweight.enumerate"):
            first = [list(t) for t in islice(solutions, wl.FIRST_K)]
        count = solutions.count()
        good = api["is_valid_weight"](b, w, trials=wl.VALIDITY_TRIALS, seed=wl.VALIDITY_SEED)
        rejected = api["is_valid_weight"](b, bad, trials=wl.VALIDITY_TRIALS, seed=wl.VALIDITY_SEED)
        with self.span("bench.check"):
            if self.tracer is not None:
                self.tracer.counts["arrowweight.solution_log2"] += log2(count)
            ref = self.ref["weights"][fixture]
            ok = (
                count == ref["count"]
                and wl.digest(first) == ref["first_digest"]
                and good.valid
                and not rejected.valid
                and bool(rejected.violated_rows)
            )
        return ok, [fixture, list(bad.entries)]

    # -- scramble ---------------------------------------------------------

    def setup_scramble(self, fixture: str) -> None:
        from arrowquiver.gausscode import R1Insert, R2Insert

        self.insertions = (R1Insert, R2Insert)
        # every endomorphism, as in the acceptance suite's criterion 8
        self.b, self.w, _, _ = self.load_fixture(fixture)
        self.endos = self.every_endo
        for trial in wl.scramble_trials(self.seed, fixture):
            self.items.append(
                (self.diagram(trial["word"]), trial["moves"], trial["rng"])
            )

    def item_scramble(self, item):
        d1, steps, seed = item
        api, b, w, endos = self.api, self.b, self.w, self.endos
        rng = random.Random(seed)
        d2, chosen = d1, []
        for _ in range(steps):
            moves = api["enumerate_moves"](d2)
            if d2.n >= 6:
                moves = [m for m in moves if not isinstance(m, self.insertions)]
            if not moves:
                break
            move = moves[rng.randrange(len(moves))]
            chosen.append(repr(move))
            d2 = api["apply_move"](d2, move)
        c1 = api["enumerate_colorings"](b, d1)
        c2 = api["enumerate_colorings"](b, d2)
        m1 = api["weight_multiset"](b, w, d1)
        m2 = api["weight_multiset"](b, w, d2)
        q1 = api["build_quiver"](b, w, d1, endos)
        q2 = api["build_quiver"](b, w, d2, endos)
        polys = [
            (str(api[phi](q1)), str(api[phi](q2)))
            for phi in ("phi_weight", "phi_indegree", "phi_twovar", "phi_quotient_loop")
        ]
        iso = api["quiver_isomorphic"](q1, q2)
        with self.span("bench.check"):
            ok = (
                len(c1) == len(c2)
                and m1 == m2
                and all(p1 == p2 for p1, p2 in polys)
                and iso
            )
        return ok, [str(d1), chosen, str(d2)]

    # -- large ------------------------------------------------------------

    def setup_large(self, fixture: str) -> None:
        self.b, self.w, self.endos, _ = self.load_fixture(fixture)
        self.expected = self.ref["large"]["items"][fixture]
        if wl.digest(wl.large_pool()) != self.ref["large"]["pool_digest"]:
            raise ValueError("the large pool differs from the recorded pool")
        for item in wl.large_items(self.seed, fixture):
            self.items.append((item["pool"], self.diagram(item["word"])))

    def item_large(self, item):
        pool, d = item
        api, b, w = self.api, self.b, self.w
        colorings = api["enumerate_colorings"](b, d)
        weights = api["weight_multiset"](b, w, d)
        poly = str(api["phi_indegree"](api["build_quiver"](b, w, d, self.endos)))
        with self.span("bench.check"):
            ok = all(self.is_coloring(b, d, c) for c in colorings) and [
                len(colorings), list(weights), poly
            ] == self.expected[pool]
        return ok, [pool, str(d)]

    # -- the loop ---------------------------------------------------------

    def run(self) -> dict:
        run_item = getattr(self, "item_" + self.spec["workload"])
        times, keys, errors = [], [], []
        failed = 0
        signal.signal(signal.SIGALRM, _alarm)
        t0 = time.perf_counter()
        for i, item in enumerate(self.items):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, wl.ITEM_TIMEOUT_S)
            try:
                ok, key = run_item(item)
                if not ok:
                    errors.append(f"item {i} failed its check")
            except Exception as err:  # a failing item is a result, not a crash
                ok, key = False, ["error"]
                errors.append(f"item {i}: {type(err).__name__}: {err}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append((time.perf_counter() - start) * 1e3)
            keys.append(key)
            failed += not ok
        timed_s = time.perf_counter() - t0
        finish = getattr(self, "finish_" + self.spec["workload"], None)
        if finish is not None and not failed:
            errors += finish()
        return {
            "items_ms": times,
            "failed": failed,
            "errors": errors[:5] + ([f"... {len(errors) - 5} more"] if len(errors) > 5 else []),
            "timed_s": timed_s,
            "digest": wl.digest(keys),
        }


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec["trace"] else None
    job = Job(spec, tracer, wl.load_reference())
    setup_s = time.monotonic() - spec["spawned"]
    result = job.run()
    if result["errors"] and not result["failed"]:
        result["failed"] = len(job.items)  # a whole-job check failed
    result.update(
        setup_s=setup_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=job.numpy_version,
    )
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["trace_wall_s"] = time.perf_counter() - _START
        result["trace_top_s"] = tracer.top_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
