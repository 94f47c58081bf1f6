"""Record the reference outputs and input digests the benchmark checks.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record.py

It writes ``perfbench/reference/``: the ``table --all-orientations`` output
of every fixture, the solution counts and first tensors of every
(biquandle, m) pair, the coloring counts, weight multisets and indegree
polynomials of the ``large`` pool, and the input digest of one round of
every workload for each seed in RECORDED_SEEDS.  Re-recording changes what
the benchmark accepts, so it belongs in a change of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import run
import workloads as wl

# seeds whose input digests are recorded; the last is the hold-out seed for
# checking a claim on inputs not used while the change was written
RECORDED_SEEDS = (*range(1, 11), 1001)


def record_tables() -> None:
    from arrowquiver.cli import main
    from arrowquiver.knotdata import bundled_path

    for fixture, (bq, tensor, endos, kind) in wl.FIXTURES.items():
        argv = ["table", "--all-orientations", "--type", kind,
                "--biquandle", str(bundled_path(bq)),
                "--tensor", str(bundled_path(tensor))]
        argv += ["--full-endos"] if endos is None else ["--endos", str(bundled_path(endos))]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if main(argv) != 0:
                raise SystemExit(f"table failed for {fixture}")
        (wl.REFERENCE / f"table_{fixture}.tsv").write_text(out.getvalue(), encoding="utf-8")


def load(fixture: str):
    from arrowquiver.arrowweight import WeightTensor
    from arrowquiver.biquandle import load as load_biquandle
    from arrowquiver.knotdata import bundled_path

    bq, tensor, endos, _ = wl.FIXTURES[fixture]
    b = load_biquandle(str(bundled_path(bq)))
    w = WeightTensor.load(str(bundled_path(tensor)))
    if endos is None:
        return b, w, b.endomorphisms()
    lines = bundled_path(endos).read_text(encoding="utf-8").splitlines()
    kept = (ln.split("#", 1)[0].split() for ln in lines)
    return b, w, [tuple(int(t) for t in toks) for toks in kept if toks]


def record_weights() -> None:
    from arrowquiver.arrowweight import generate_constraints, solve_constraints

    out = {}
    for fixture in (f for job in wl.WEIGHT_JOBS.values() for f in job):
        b, w, _ = load(fixture)
        solutions = solve_constraints(generate_constraints(b, w.m))
        first = [list(t) for t in islice(solutions, wl.FIRST_K)]
        out[fixture] = {"count": solutions.count(), "first_digest": wl.digest(first)}
    (wl.REFERENCE / "weights.json").write_text(json.dumps(out, indent=1) + "\n")


def record_large() -> None:
    from arrowquiver.arrowweight import weight_multiset
    from arrowquiver.gausscode import Endpoint, GaussDiagram
    from arrowquiver.homset import enumerate_colorings
    from arrowquiver.invariants import phi_indegree
    from arrowquiver.quiver import build_quiver

    pool = wl.large_pool()
    items = {}
    for fixture in wl.LARGE_FIXTURES:
        b, w, endos = load(fixture)
        rows = []
        for word in pool:
            d = GaussDiagram(tuple(Endpoint(*e) for e in word))
            rows.append([
                len(enumerate_colorings(b, d)),
                list(weight_multiset(b, w, d)),
                str(phi_indegree(build_quiver(b, w, d, endos))),
            ])
        items[fixture] = rows
    out = {"pool_digest": wl.digest(pool), "items": items}
    (wl.REFERENCE / "large.json").write_text(json.dumps(out) + "\n")


def record_digests(root: Path) -> None:
    ref = wl.load_reference()
    ref["digests"] = {}
    out = {}
    for workload in wl.JOBS:
        out[workload] = {}
        for seed in RECORDED_SEEDS:
            deadline = time.monotonic() + run.RUN_LIMIT_S
            s = run.summarize([run.run_round(root, wl.jobs(workload, seed), False, deadline)])
            if s["failed"] or s["errors"]:
                raise SystemExit(f"{workload} seed {seed} failed: {s['errors']}")
            out[workload][str(seed)] = run.input_check(workload, seed, s["digests"], ref)[0]
            print(workload, seed, out[workload][str(seed)], flush=True)
    (wl.REFERENCE / "digests.json").write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    wl.REFERENCE.mkdir(exist_ok=True)
    record_tables()
    record_weights()
    record_large()
    if not (wl.REFERENCE / "digests.json").exists():
        (wl.REFERENCE / "digests.json").write_text("{}\n")
    record_digests(Path.cwd())


if __name__ == "__main__":
    main()
