"""Kontsevich's count N_d of rational plane curves, with no package imports.

``kontsevich_nd`` is an independent oracle for the engine (``oracles``
re-exports it), and the target data use it for closed-form invariants on the
boundary of the vanishing theorem (``TargetDatum.boundary_value``).  The
module imports nothing from the package, so ``chow`` can use it without the
cycle ``oracles -> engine -> chow`` coming back to ``oracles``.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def kontsevich_nd(d: int) -> int:
    """N_d via the recursion seeded by N_1 = 1.

    N_d = sum over d1 + d2 = d (d1, d2 >= 1) of N_d1 N_d2 *
          (d1^2 d2^2 C(3d-4, 3d1-2) - d1^3 d2 C(3d-4, 3d1-1))

    evaluated bottom-up in a loop, so no degree reaches the recursion limit.
    Each degree builds its row of binomials C(3d-4, k) once, getting
    C(n, k+1) from C(n, k) with one multiplication and one exact division.
    A degree that is not an ``int`` (a bool included) or is below 1 raises
    ValueError.
    """
    if type(d) is not int:
        raise ValueError(f"the degree must be an integer, got {d!r}")
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
