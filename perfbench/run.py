"""Benchmark of the arrowquiver package: four cold-start workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # summary table

Load comes from one closed loop: one job at a time, each in a fresh
interpreter (``worker.py``), until the next round of jobs would end after
``--seconds``.  Every round runs the same jobs on the same inputs, so a run
always measures whole rounds, and at least one.  Each item's output is
checked; any failure makes the command exit with code 1.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer
metrics of one traced round, compared with one untraced round.  The line
before it is a JSON record of the details behind the numbers: host,
versions, seed, per-item timeout, sample counts, the median item time, the
90th percentile where a run has at least 100 items, the failed fraction and
the input digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import workloads as wl

RUN_LIMIT_S = 170.0  # the whole command ends within this, whatever happens
P90_MIN_ITEMS = 100
END_TO_END = ("setup_s", "items_per_s", "peak_rss_mb")


def run_job(root: Path, job: dict, trace: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = dict(job, trace=trace)
    spec["spawned"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("worker.py")), json.dumps(spec)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _crashed(job, "job did not finish before the run limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _crashed(job, (err.strip().splitlines() or [f"exit {proc.returncode}"])[-1])
    return dict(json.loads(lines[-1]), job=job["job"])


def _crashed(job: dict, why: str) -> dict:
    return {"job": job["job"], "items_ms": [], "failed": 1, "errors": [why],
            "timed_s": 0.0, "digest": None, "setup_s": None, "rss_mb": None}


def run_round(root, jobs, trace, deadline) -> list[dict]:
    return [run_job(root, job, trace, deadline) for job in jobs]


def run_rounds(root, jobs, seconds, deadline) -> list[list[dict]]:
    """Whole untraced rounds until the next one would end after ``seconds``."""
    rounds = []
    start = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append(run_round(root, jobs, False, deadline))
        took = time.monotonic() - r0
        if time.monotonic() - start + took > seconds or time.monotonic() + took > deadline:
            return rounds


def summarize(rounds: list[list[dict]]) -> dict:
    results = [r for rnd in rounds for r in rnd]
    times = [t for r in results for t in r["items_ms"]]
    failed = sum(r["failed"] for r in results)
    attempted = max(1, sum(max(len(r["items_ms"]), r["failed"]) for r in results))
    passed = sum(max(0, len(r["items_ms"]) - r["failed"]) for r in results)
    timed = sum(r["timed_s"] for r in results)
    setups = [r["setup_s"] for r in results if r["setup_s"] is not None]
    out = {
        "attempted": attempted,
        "failed": failed,
        "items": len(times),
        "items_per_s": passed / timed if timed else 0.0,
        "item_p50_ms": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "setups": len(setups),
        "peak_rss_mb": max((r["rss_mb"] for r in results if r["rss_mb"]), default=0.0),
        "errors": [f"{r['job']}: {e}" for r in results for e in r["errors"]][:10],
        "digests": [[[r["job"], r["digest"]] for r in rnd] for rnd in rounds],
    }
    if len(times) >= P90_MIN_ITEMS:
        out["item_p90_ms"] = statistics.quantiles(times, n=10)[-1]
    return out


def input_check(workload: str, seed: int, digests: list[list], ref: dict) -> tuple[str, list[str]]:
    """The run's input digest and any drift from the recorded one."""
    problems = []
    run_digest = wl.digest(digests[0])
    if any(d != digests[0] for d in digests[1:]):
        problems.append("rounds saw different inputs")
    recorded = ref["digests"].get(workload, {}).get(str(seed))
    if recorded is not None and recorded != run_digest:
        problems.append(f"input drift: digest {run_digest}, recorded {recorded} for seed {seed}")
    return run_digest, problems


def reference_problems(root: Path, ref: dict) -> list[str]:
    """The recorded table must agree with the test suite's frozen rows."""
    problems = []
    for fixture, rel in wl.TEST_ROWS.items():
        frozen = (root / rel).read_text(encoding="utf-8").splitlines()
        recorded = [
            "\t".join(line.split("\t")[:2])
            for line in ref["table"][fixture].splitlines()
        ]
        if frozen != recorded:
            problems.append(f"recorded {fixture} table disagrees with {rel}")
    return problems


def provenance(root: Path, seed: int, results: list[dict]) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((root / "src" / "arrowquiver").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in results if r.get("numpy")), None),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
        "item_timeout_s": wl.ITEM_TIMEOUT_S,
        "workers": 1,
    }


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, ref: dict):
    """Return (metrics, detail record, summary) for one workload."""
    deadline = time.monotonic() + RUN_LIMIT_S
    jobs = wl.jobs(workload, seed)
    problems = reference_problems(root, ref)
    if not trace:
        rounds = run_rounds(root, jobs, seconds, deadline)
        s = summarize(rounds)
        metrics = {k: s[k] for k in END_TO_END}
    else:
        # one untraced and one traced round of the same jobs
        plain = [run_round(root, jobs, False, deadline)]
        rounds = [run_round(root, jobs, True, deadline)]
        s, base = summarize(rounds), summarize(plain)
        metrics = traced_metrics(rounds[0])
        metrics["trace.overhead_frac"] = (
            base["items_per_s"] / s["items_per_s"] - 1 if s["items_per_s"] else 0.0
        )
        s["attempted"] += base["attempted"]
        s["failed"] += base["failed"]
        s["errors"] += base["errors"]
        s["digests"] = base["digests"] + s["digests"]
        rounds = plain + rounds
    digest, drift = input_check(workload, seed, s["digests"], ref)
    problems += drift + s["errors"]
    results = [r for rnd in rounds for r in rnd]
    detail = {
        "workload": workload,
        "rounds": len(rounds),
        "items": s["items"],
        "setups": s["setups"],
        "failed_frac": s["failed"] / s["attempted"],
        "item_p50_ms": s["item_p50_ms"],
        "input_digest": digest,
        "provenance": provenance(root, seed, results),
    }
    if "item_p90_ms" in s:
        detail["item_p90_ms"] = s["item_p90_ms"]
    detail["problems"] = problems
    return metrics, detail, s


def traced_metrics(results: list[dict]) -> dict:
    metrics: dict[str, float] = {}
    for r in results:
        for name, value in r.get("trace", {}).items():
            metrics[name] = metrics.get(name, 0) + value
    wall = sum(r.get("trace_wall_s", 0.0) for r in results)
    top = sum(r.get("trace_top_s", 0.0) for r in results)
    metrics["trace.wall_s"] = wall
    metrics["bench.self_s"] = wall - top  # time in no layer span
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.JOBS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "arrowquiver" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from the root of an arrowquiver checkout "
              "(src/arrowquiver and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ref = wl.load_reference()

    if args.workload == "all":
        return report_all(root, args, spec, ref)

    metrics, detail, s = measure(root, args.workload, args.seed, args.seconds,
                                 bool(args.trace), ref)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not detail["problems"] and s["failed"] == 0
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    if not correct:
        for problem in detail["problems"]:
            print(f"run.py: {problem}", file=sys.stderr)
        return 1
    return 0


def report_all(root: Path, args, spec: dict, ref: dict) -> int:
    """Every end-to-end metric of every workload, one per line."""
    status = 0
    print(f"{'workload':10} {'metric':14} {'value':>14}  unit")
    for workload in wl.JOBS:
        metrics, detail, s = measure(root, workload, args.seed, args.seconds, False, ref)
        rows = [(m["name"], metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]]
        rows.append(("item_p50_ms", detail["item_p50_ms"], f"ms (n={s['items']})"))
        if "item_p90_ms" in detail:
            rows.append(("item_p90_ms", detail["item_p90_ms"], f"ms (n={s['items']})"))
        rows.append(("failed_frac", detail["failed_frac"], f"fraction (n={s['attempted']})"))
        for name, value, unit in rows:
            print(f"{workload:10} {name:14} {value:14.6g}  {unit}")
        for problem in detail["problems"]:
            print(f"{workload:10} problem: {problem}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
