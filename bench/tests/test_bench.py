"""Tests of the benchmark itself: counters, tracing, failure accounting."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import compare
import tracer
from hilb2gw import fixtures
from workloads import EXPECTED_COUNTS, EXPECTED_INVARIANTS, MAX_DEGREE

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTERS = (".calls", ".count", ".specs", ".entries", ".max_depth", "_ratio")


def child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_expected_values_are_the_frozen_tables():
    for (l, d), row in EXPECTED_INVARIANTS.items():
        assert row == tuple(fixtures.INVARIANT_TABLES[l][(d, g)] for g in range(d - 1))
    for (l, d), row in EXPECTED_COUNTS.items():
        assert row == tuple(fixtures.COUNT_TABLES[l][(d, g)] for g in range(d - 1))
    cells = sum(len(row) for row in EXPECTED_INVARIANTS.values())
    assert 2 * cells == 90 and max(d for _, d in EXPECTED_COUNTS) == MAX_DEGREE


@pytest.mark.parametrize(
    "workload,params",
    [("tables-d6", {"max_degree": 4}), ("qcoh-wide", {"n1": 6}),
     ("cache-roundtrip", {"max_degree": 4})],
)
def test_counters_repeat_for_a_seed(tmp_path, workload, params):
    spec = {"mode": "rep", "workload": workload, "params": params, "seed": 7,
            "trace": True, "ctx": {}}
    if workload == "cache-roundtrip":
        cache = str(tmp_path / "memo.json")
        child({"mode": "prep", "workload": workload, "params": params, "path": cache})
        spec["ctx"] = {"cache": cache, "output": str(tmp_path / "out.json"), "cycles": 2}
    first, second = child(spec), child(spec)
    assert first["failed"] == 0 and first["attempted"] > 0
    counters = [name for name in tracer.METRICS
                if name.endswith(COUNTERS) and name != "trace.overhead_ratio"]
    assert counters
    for name in counters:
        assert first["layers"][name]["value"] == second["layers"][name]["value"], name
    assert first["layers"]["engine.memo.entries"]["value"] > 0
    assert first["absent"] == []


def test_a_missing_layer_is_reported_absent(monkeypatch):
    import hilb2gw

    spans = tracer.SPANS + (("hilb2gw.engine", "Engine", "_no_such_phase", "engine.build"),)
    monkeypatch.setattr(tracer, "SPANS", spans)
    original = hilb2gw.invert_counts
    t = tracer.Tracer().install()
    try:
        hilb2gw.invert_counts(hilb2gw.Engine(), 3, 1)
    finally:
        t.uninstall()
    assert t.absent == ["hilb2gw.engine.Engine._no_such_phase"]
    assert hilb2gw.invert_counts is original
    metrics = t.metrics()
    assert set(metrics) == set(tracer.METRICS)
    assert metrics["hyperelliptic.invert.calls"]["value"] == 1
    assert metrics["engine.build.calls"]["value"] > 0


def test_an_exception_fails_every_check():
    out = child({"mode": "rep", "workload": "qcoh-wide", "params": {"n1": -1},
                 "seed": 1, "trace": False})
    assert out["error"].startswith("ValueError")
    assert out["attempted"] == out["failed"] == 11


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables-d6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    def record(backend):
        return {"workload": "qcoh-wide", "trace": 0, "env": {"backend": backend},
                "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}

    paths = []
    for backend in ("fractions", "gmpy2"):
        path = tmp_path / f"{backend}.jsonl"
        path.write_text(json.dumps(record(backend)) + "\n")
        paths.append(str(path))
    assert compare.main(paths) == 2
