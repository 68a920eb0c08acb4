"""The benchmark's contract with the package.

``bench/tracer.py`` wraps package functions by name and records a name that
no longer resolves as an absent layer instead of failing, so a refactor
that drops a wrapped name would only thin out the benchmark's per-layer
metrics.  This test fails instead.  ``bench/workloads.py`` keeps its own
copy of the frozen d <= 6 tables, so a drift from ``hilb2gw.fixtures`` is
caught here too.  Both files are loaded read-only from their paths; nothing
is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _bench_module("tracer")


@pytest.mark.parametrize(
    "module, owner, name, layer",
    _TRACER.SPANS + _TRACER.COUNTS,
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_every_traced_name_resolves(module, owner, name, layer):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert callable(getattr(target, name, None)), (module, owner, name, layer)


def test_stage_state_counts_queued_specs(monkeypatch):
    """The tracer's ``engine.harvest.specs`` is the growth of ``st.seen``,
    the third argument of ``Engine._harvest_closure``, over each call; over
    one stage visit, ``Engine._solve_for`` with the stage ``(cls, n)`` in
    its second and third arguments, that growth equals the keys of the
    stage the visit solves into the memo.  The wrappers read the arguments
    at the positions the tracer's hooks read them."""
    from hilb2gw import Engine

    eng = Engine()
    memo = eng.memo
    visits = []  # [cls, n, stage codes before, specs queued], innermost last
    checked = []

    def stage_codes(cls, n):
        return {
            c for c in memo.class_values(cls) if len(memo.decode(c)) == n
        }

    solve_for = Engine._solve_for
    harvest = Engine._harvest_closure

    def traced_solve_for(*args):
        cls, n = args[1], args[2]
        visits.append([cls, n, stage_codes(cls, n), 0])
        solve_for(*args)
        cls, n, before, specs = visits.pop()
        solved = stage_codes(cls, n) - before
        assert specs == len(solved) >= 1, (cls, n)
        checked.append((cls, n))

    def traced_harvest(*args):
        mark = _TRACER._harvest_before(None, args)
        harvest(*args)
        visits[-1][3] += len(args[2].seen) - mark

    monkeypatch.setattr(Engine, "_solve_for", traced_solve_for)
    monkeypatch.setattr(Engine, "_harvest_closure", traced_harvest)
    eng.value_of(((1, 2), (4,) * 7))
    assert len(checked) >= 10 and checked[-1] == ((1, 2), 7)


def test_traced_tables_do_the_pinned_work():
    """The traced seed-7 ``tables-d6`` workload does exactly this work.

    ``bench/tracer.py`` is installed around one pass of the workload's
    queries on a cold engine.  Each counter is deterministic, so any change
    to the engine's harvest, solve or memo traffic shows up here as a
    changed number rather than as benchmark drift."""
    from hilb2gw import Engine

    workloads = _bench_module("workloads")
    tracer = _TRACER.Tracer().install()
    try:
        workloads.query_tables(Engine(), workloads.table_queries(7))
    finally:
        tracer.uninstall()
    got = {name: m["value"] for name, m in tracer.metrics().items()}
    assert tracer.absent == []
    assert {
        name: got[name]
        for name in (
            "engine.build.calls",
            "engine.solve.calls",
            "engine.harvest.specs",
            "engine.stage.visits",
            "engine.stage.count",
            "engine.stage.max_depth",
            "engine.memo.entries",
            "engine.memo.set_calls",
            "engine.memo.value_of_calls",
            "engine.canon.calls",
        )
    } == {
        "engine.build.calls": 581,
        "engine.solve.calls": 581,
        "engine.harvest.specs": 581,
        "engine.stage.visits": 372,
        "engine.stage.count": 125,
        "engine.stage.max_depth": 9,
        "engine.memo.entries": 713,
        "engine.memo.set_calls": 713,
        "engine.memo.value_of_calls": 0,
        "engine.canon.calls": 60,
    }


def test_workload_tables_match_the_fixtures():
    """The tables the benchmark grades against equal the frozen fixtures
    for every (l, d) with d <= 6."""
    from hilb2gw import fixtures

    workloads = _bench_module("workloads")
    assert workloads.MAX_DEGREE == 6
    for expected, columns in (
        (workloads.EXPECTED_INVARIANTS, fixtures.INVARIANT_TABLES),
        (workloads.EXPECTED_COUNTS, fixtures.COUNT_TABLES),
    ):
        assert expected == {
            (l, d): tuple(columns[l][(d, g)] for g in range(d - 1))
            for l in (0, 1, 2)
            for d in range(2, 7)
        }
