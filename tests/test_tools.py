"""Every script under ``tools/`` imports without running: each one guards
its ``main``, so a broken import or a top-level error shows here, not only
when the script is run.  The bounded runner of ``tools/scaling.py`` is
tested on stand-in measures, and its solver series on the bundled pairs."""

import importlib.util
import math
import signal
import time
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_the_tools_are_found():
    assert {"code_lines", "record_cli_digests"} <= {path.stem for path in TOOLS}


@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_tool_imports(path):
    spec = importlib.util.spec_from_file_location(f"tools_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


@pytest.fixture
def scaling(monkeypatch):
    """The scaling tool with a 50 ms timeout and its alarm handler installed;
    the old handler is restored afterwards."""
    path = next(path for path in TOOLS if path.stem == "scaling")
    spec = importlib.util.spec_from_file_location("tools_scaling", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "TIMEOUT_S", 0.05)
    old = signal.signal(signal.SIGALRM, module._alarm)
    try:
        yield module
    finally:
        signal.signal(signal.SIGALRM, old)


def test_scaling_runner_times_out_and_skips_the_rest(scaling):
    measured = []

    def measure(point):
        measured.append(point["i"])
        point["started"] = True
        if point["i"] == 1:
            # spin until the alarm; a deadline keeps a missing alarm from hanging
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                pass
        point["finished"] = True

    points = scaling.run_series([{"i": i} for i in range(3)], measure)
    assert [p["status"] for p in points] == ["ok", "timeout", "skipped"]
    assert points[0] == {"i": 0, "started": True, "finished": True, "status": "ok"}
    assert points[1] == {"i": 1, "started": True, "status": "timeout"}
    assert points[2] == {"i": 2, "status": "skipped"}
    assert measured == [0, 1]


def test_scaling_best_of_resets_before_each_run(scaling):
    events = []
    best = scaling.best_of(lambda: events.append("run"), lambda: events.append("reset"))
    assert events == ["reset", "run"] * scaling.REPEATS
    assert 0 <= best < 1
    events.clear()
    scaling.best_of(lambda: events.append("run"))
    assert events == ["run"] * scaling.REPEATS


def test_scaling_solver_series_records_every_bundled_pair(scaling, monkeypatch):
    monkeypatch.setattr(scaling, "TIMEOUT_S", 60.0)
    monkeypatch.setattr(scaling, "REPEATS", 1)
    points = scaling.run_series(
        [{"biquandle": name, "m": m} for name, m in scaling.PAIRS], scaling.solver_point
    )
    assert len(points) == 5
    for point in points:
        assert point["status"] == "ok"
        assert point["rows"] > 0
        assert 0 < point["pivots"] <= 256
        assert point["count_log2"] > 0
        for field in ("build_ms", "walk_ms", "integer_rows_ms"):
            assert 0 <= point[field] < 60_000
    flip2 = points[0]
    assert (flip2["biquandle"], flip2["m"]) == ("flip2", 16)
    assert math.isclose(flip2["count_log2"], 5.0)  # 32 tensors
