"""The benchmark tracer's contract with the package.

``bench/tracer.py`` wraps package functions by name and records a name that
no longer resolves as an absent layer instead of failing, so a refactor
that drops a wrapped name would only thin out the benchmark's per-layer
metrics.  This test fails instead.  The tracer is loaded read-only from its
path; nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _tracer()


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
