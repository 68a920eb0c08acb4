"""Independent cross-checks for the reconstruction engine.

``kontsevich_nd`` evaluates the classical recursion for the number N_d of
rational plane curves of degree d through 3d-1 general points, using only
binomials and exact rationals. ``engine_nd`` computes the same number by
running the associativity engine on the projective-plane datum, exercising
the full canonicalize/harvest/solve pipeline on a target where the answer
is known in closed form.
"""

from __future__ import annotations

from functools import lru_cache

from .chow import p2_datum
from .engine import Engine
from .rationals import check_int


@lru_cache(maxsize=None)
def kontsevich_nd(d: int) -> int:
    """N_d via the recursion seeded by N_1 = 1.

    N_d = sum over d1 + d2 = d (d1, d2 >= 1) of N_d1 N_d2 *
          (d1^2 d2^2 C(3d-4, 3d1-2) - d1^3 d2 C(3d-4, 3d1-1))

    evaluated bottom-up in a loop, so no degree reaches the recursion limit.
    Each degree builds its row of binomials C(3d-4, k) once, getting
    C(n, k+1) from C(n, k) with one multiplication and one exact division.
    """
    check_int(d, "the degree")
    if d < 1:
        raise ValueError("the count is defined for degrees >= 1")
    nd = [0, 1]  # nd[e] = N_e
    for e in range(2, d + 1):
        n = 3 * e - 4
        row = [1]  # row[k] = C(n, k)
        for k in range(n):
            row.append(row[k] * (n - k) // (k + 1))
        total = 0
        for d1 in range(1, e):
            d2 = e - d1
            total += nd[d1] * nd[d2] * (
                d1 * d1 * d2 * d2 * row[3 * d1 - 2]
                - d1 ** 3 * d2 * row[3 * d1 - 1]
            )
        nd.append(total)
    return nd[d]


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
