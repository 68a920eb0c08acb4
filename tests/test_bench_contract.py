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


def test_stage_state_counts_queued_specs():
    """The tracer's ``engine.harvest.specs`` is the growth of ``st.seen``,
    the third argument of ``Engine._harvest_closure``, over each call."""
    from hilb2gw import Engine
    from hilb2gw.engine import _StageState

    eng = Engine()
    st = _StageState()
    key = ((1, 2), (4,) * 7)
    eng._harvest_closure(key[0], st, [key])
    assert len(st.seen) >= 1


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
