"""Outside-in tracing of the hilb2gw layers.

The tracer replaces layer functions with timing wrappers from the outside:
no source file of the package is edited.  Each wrapped call is a span; a
layer's self time is the sum of its spans' durations minus the time covered
by child spans, so the deep recursion value_of -> _solve_for -> _build ->
value_of is counted once.  A wrapped attribute that no longer exists is
recorded as an absent layer instead of failing the run.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# (module, owner attribute or None, function name, layer)
SPANS = (
    ("hilb2gw.engine", "Engine", "_build", "engine.build"),
    ("hilb2gw.engine", "ExactLinearSolver", "add", "engine.solve"),
    ("hilb2gw.engine", "Engine", "_harvest_closure", "engine.harvest"),
    ("hilb2gw.engine", "Engine", "_solve_for", "engine.stage"),
    ("hilb2gw.engine", "MemoStore", "set", "engine.memo.set"),
    ("hilb2gw.engine", "Engine", "normalize", "engine.canon"),
    ("hilb2gw.engine", "Engine", "_canon", "engine.canon"),
    ("hilb2gw.engine", "Engine", "load_cache", "engine.cache.load"),
    ("hilb2gw.engine", "Engine", "save_cache", "engine.cache.save"),
    ("hilb2gw.hyperelliptic", None, "invert_counts", "hyperelliptic.invert"),
    ("hilb2gw.quantum", None, "verify_product_table", "quantum"),
    ("hilb2gw.quantum", None, "verify_relations", "quantum"),
    ("hilb2gw.quantum", None, "small_product", "quantum"),
    ("hilb2gw.quantum", None, "star", "quantum"),
    ("hilb2gw.chow", None, "hilb_datum", "chow.datum"),
)

# counted without a span: their bodies stay in the caller's self time
COUNTS = (
    ("hilb2gw.engine", "Engine", "value_of", "engine.memo.value_of"),
    ("hilb2gw.engine", "Engine", "invariant", "engine.invariant"),
)

# layers whose self time is an engine phase
ENGINE_PHASES = (
    "engine.build", "engine.solve", "engine.harvest", "engine.stage",
    "engine.memo.set", "engine.canon",
)

# per-layer metric name -> unit, in report order
METRICS = {
    "engine.build.calls": "count",
    "engine.build.self_s": "s",
    "engine.build.useful_ratio": "ratio",
    "engine.solve.calls": "count",
    "engine.solve.self_s": "s",
    "engine.harvest.calls": "count",
    "engine.harvest.specs": "count",
    "engine.harvest.self_s": "s",
    "engine.stage.visits": "count",
    "engine.stage.count": "count",
    "engine.stage.max_depth": "count",
    "engine.stage.self_s": "s",
    "engine.memo.entries": "count",
    "engine.memo.set_calls": "count",
    "engine.memo.set_self_s": "s",
    "engine.memo.set_useful_ratio": "ratio",
    "engine.memo.value_of_calls": "count",
    "engine.canon.calls": "count",
    "engine.canon.self_s": "s",
    "engine.cache.load_s": "s",
    "engine.cache.save_s": "s",
    "engine.cache.bytes": "B",
    "hyperelliptic.invert.calls": "count",
    "hyperelliptic.invert.self_s": "s",
    "quantum.invariant_calls": "count",
    "quantum.self_s": "s",
    "chow.datum_build_s": "s",
    "proc.minor_faults": "count",
    "proc.sys_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span wrappers around the layer functions of an imported hilb2gw."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # outermost spans of each layer
        self.depth = Counter()
        self.max_depth = Counter()
        self.stages = set()
        self.specs = 0
        self.entries = 0
        self.saved_bytes = 0
        self.quantum_invariants = 0
        self.absent = []
        self._frames = []                    # child time of each open span
        self._undo = []

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        for module, owner, name, layer in SPANS:
            self._wrap(module, owner, name, layer, self._span)
        for module, owner, name, layer in COUNTS:
            self._wrap(module, owner, name, layer, self._count)
        return self

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def _wrap(self, module, owner, name, layer, make) -> None:
        mod = sys.modules.get(module)
        target = getattr(mod, owner, None) if owner else mod
        original = getattr(target, name, None) if target is not None else None
        if original is None:
            where = f"{module}.{owner}.{name}" if owner else f"{module}.{name}"
            self.absent.append(where)
            return
        wrapper = make(layer, original)
        self._set(target, name, original, wrapper)
        if owner is None:
            # the package re-exports its functions and modules import each
            # other's: rebind every hilb2gw name that holds the original
            for mname, other in list(sys.modules.items()):
                if other is mod or not mname.startswith("hilb2gw"):
                    continue
                for attr, val in list(vars(other).items()):
                    if val is original:
                        self._set(other, attr, original, wrapper)

    def _set(self, target, name, original, wrapper) -> None:
        self._undo.append((target, name, original))
        setattr(target, name, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span(self, layer, fn):
        frames = self._frames
        before, after = _HOOKS.get(layer, (None, None))
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer.depth[layer] += 1
            if tracer.depth[layer] > tracer.max_depth[layer]:
                tracer.max_depth[layer] = tracer.depth[layer]
            mark = before(tracer, args) if before else None
            frame = [0.0]
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                tracer.self_s[layer] += dt - frame[0]
                tracer.depth[layer] -= 1
                if not tracer.depth[layer]:
                    tracer.total_s[layer] += dt
                if after:
                    after(tracer, args, mark)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            if layer == "engine.invariant" and tracer.depth["quantum"]:
                tracer.quantum_invariants += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report ----------------------------------------------------------

    def phase_self_s(self) -> float:
        """Self time of the engine phases together."""
        return sum(self.self_s[layer] for layer in ENGINE_PHASES)

    def metrics(self) -> dict:
        """Every per-layer metric; run.py fills in the ``proc.*`` values and
        ``trace.overhead_ratio`` from the run's untraced repetition."""
        c, s = self.calls, self.self_s
        values = {
            "engine.build.calls": c["engine.build"],
            "engine.build.self_s": s["engine.build"],
            "engine.build.useful_ratio": _ratio(c["engine.solve"], c["engine.build"]),
            "engine.solve.calls": c["engine.solve"],
            "engine.solve.self_s": s["engine.solve"],
            "engine.harvest.calls": c["engine.harvest"],
            "engine.harvest.specs": self.specs,
            "engine.harvest.self_s": s["engine.harvest"],
            "engine.stage.visits": c["engine.stage"],
            "engine.stage.count": len(self.stages),
            "engine.stage.max_depth": self.max_depth["engine.stage"],
            "engine.stage.self_s": s["engine.stage"],
            "engine.memo.entries": self.entries,
            "engine.memo.set_calls": c["engine.memo.set"],
            "engine.memo.set_self_s": s["engine.memo.set"],
            "engine.memo.set_useful_ratio": _ratio(self.entries, c["engine.memo.set"]),
            "engine.memo.value_of_calls": c["engine.memo.value_of"],
            "engine.canon.calls": c["engine.canon"],
            "engine.canon.self_s": s["engine.canon"],
            "engine.cache.load_s": self.total_s["engine.cache.load"],
            "engine.cache.save_s": self.total_s["engine.cache.save"],
            "engine.cache.bytes": self.saved_bytes,
            "hyperelliptic.invert.calls": c["hyperelliptic.invert"],
            "hyperelliptic.invert.self_s": s["hyperelliptic.invert"],
            "quantum.invariant_calls": self.quantum_invariants,
            "quantum.self_s": s["quantum"],
            "chow.datum_build_s": self.total_s["chow.datum"],
            "proc.minor_faults": 0,
            "proc.sys_s": 0.0,
            "trace.overhead_ratio": 0.0,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS.items()}


# -- per-layer counters read around a span: (before, after) -------------------
# Each hook reads a documented argument of the wrapped function; a reshaped
# signature makes the counter read zero, never the run fail.


def _stage_before(tracer, args):
    if len(args) >= 3:
        tracer.stages.add((args[1], args[2]))


def _harvest_before(tracer, args):
    seen = getattr(args[2], "seen", None) if len(args) >= 3 else None
    return len(seen) if seen is not None else None


def _harvest_after(tracer, args, mark):
    if mark is not None:
        tracer.specs += len(args[2].seen) - mark


def _set_before(tracer, args):
    return len(args[0])


def _set_after(tracer, args, mark):
    tracer.entries += len(args[0]) - mark


def _save_after(tracer, args, mark):
    if len(args) >= 2 and os.path.exists(args[1]):
        tracer.saved_bytes = os.path.getsize(args[1])


_HOOKS = {
    "engine.stage": (_stage_before, None),
    "engine.harvest": (_harvest_before, _harvest_after),
    "engine.memo.set": (_set_before, _set_after),
    "engine.cache.save": (None, _save_after),
}
