"""Independent cross-checks for the reconstruction engine.

``kontsevich_nd`` (re-exported from ``kontsevich``) evaluates the classical
recursion for the number N_d of rational plane curves of degree d through
3d-1 general points, using only binomials and exact integers.
``engine_nd`` computes the same number by running the associativity engine
on the projective-plane datum, exercising the full canonicalize/harvest/
solve pipeline on a target where the answer is known in closed form.
"""

from __future__ import annotations

from .chow import p2_datum
from .engine import Engine
from .kontsevich import kontsevich_nd
from .rationals import check_int

__all__ = ["engine_nd", "kontsevich_nd"]


def engine_nd(d: int, engine: Engine | None = None) -> int:
    """N_d as the engine's invariant I_d(pt^(3d-1)) on the plane datum.

    Accepts an existing plane-datum engine to reuse its memo; builds a
    fresh one otherwise. The exact rational result is returned as an int
    after checking integrality.
    """
    check_int(d, "the degree")
    if d < 1:
        raise ValueError("the count is defined for degrees >= 1")
    if engine is None:
        engine = Engine(p2_datum())
    elif engine.datum.rank != 1:
        raise ValueError("engine_nd needs an engine over the plane datum")
    point = 2
    value = engine.invariant((d,), [point] * (3 * d - 1))
    if value.denominator != 1:
        raise AssertionError(f"N_{d} came out non-integral: {value}")
    return int(value)
