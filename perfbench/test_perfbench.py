"""Tests of the benchmark itself: its gates, its counters and its inputs.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run
import workloads as wl
from spans import COUNTS, Tracer
from worker import Job

# the cheapest job of each workload
CHEAP_JOBS = {
    "table": "flip2_z16",
    "weights": "flip2",
    "scramble": "flip2_z16",
    "large": "cyc3_z8",
}


def traced_counts(workload: str, job: str) -> dict:
    result = run.run_job(
        ROOT, {"workload": workload, "job": job, "seed": 1}, True,
        time.monotonic() + 120,
    )
    assert result["failed"] == 0, result["errors"]
    return {
        name: value
        for name, value in result["trace"].items()
        if name.endswith(".calls") or name in COUNTS
    }


@pytest.mark.parametrize("workload", sorted(CHEAP_JOBS))
def test_trace_counts_repeat_exactly(workload):
    first = traced_counts(workload, CHEAP_JOBS[workload])
    second = traced_counts(workload, CHEAP_JOBS[workload])
    assert first == second
    assert any(first.values())


def run_in_process(workload: str, job: str, ref: dict) -> dict:
    spec = {"workload": workload, "job": job, "seed": 1}
    return Job(spec, None, ref).run()


def test_correct_references_pass():
    ref = wl.load_reference()
    for workload in ("table", "weights", "large"):
        result = run_in_process(workload, CHEAP_JOBS[workload], ref)
        assert result["failed"] == 0, (workload, result["errors"])


def test_wrong_table_cell_fails_the_item():
    ref = wl.load_reference()
    lines = ref["table"]["flip2_z16"].splitlines(keepends=True)
    name, *cells = lines[3].rstrip("\n").split("\t")
    cells[2] += " + 1"
    lines[3] = "\t".join([name, *cells]) + "\n"
    ref["table"]["flip2_z16"] = "".join(lines)
    result = run_in_process("table", "flip2_z16", ref)
    assert result["failed"] == 1


def test_wrong_solution_count_fails_the_item():
    ref = wl.load_reference()
    ref["weights"]["flip2_z16"]["count"] += 1
    assert run_in_process("weights", "flip2", ref)["failed"] == 1


def test_wrong_coloring_count_fails_the_item():
    ref = wl.load_reference()
    ref["large"]["items"]["cyc3_z8"][0][0] += 1
    assert run_in_process("large", "cyc3_z8", ref)["failed"] == 1


def test_input_drift_is_reported():
    ref = wl.load_reference()
    seed = 1
    recorded = ref["digests"]["scramble"][str(seed)]
    digests = [[[job["job"], "0" * 16] for job in wl.jobs("scramble", seed)]]
    _, problems = run.input_check("scramble", seed, digests, ref)
    assert problems and recorded in problems[0]


def test_recorded_seeds_include_a_hold_out_seed():
    ref = wl.load_reference()
    for workload in wl.JOBS:
        assert len(ref["digests"][workload]) >= 2


def test_recorded_tables_match_the_frozen_test_rows():
    assert run.reference_problems(ROOT, wl.load_reference()) == []


def test_wrong_reference_makes_the_command_fail(tmp_path):
    for name in ("src", "perfbench", "tests/data"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    table = tmp_path / "perfbench/reference/table_quad4_z6.tsv"
    table.write_text(table.read_text().replace("10 + x^3", "10 + x^4", 1))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.JOBS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    layer = set(Tracer().metrics()) | {"trace.overhead_frac", "trace.wall_s", "bench.self_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
