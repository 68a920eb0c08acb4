"""Independent cross-checks for the reconstruction engine.

``kontsevich_nd`` evaluates the classical recursion for the number N_d of
rational plane curves of degree d through 3d-1 general points, using only
binomials and exact integers.  ``engine_nd`` computes the same number by
running the associativity engine on the projective-plane datum, exercising
the full canonicalize/harvest/solve pipeline on a target where the answer
is known in closed form.  ``boundary_value`` gives an invariant in closed
form on the boundary of the projection's vanishing theorem, from the
restrictions of the basis classes to a fibre (``fibre_classes``) and N_d.
The engine reads none of them.
"""

from __future__ import annotations

from functools import lru_cache

from .chow import CurveClass, TargetDatum, p2_datum
from .engine import Engine
from .rationals import check_int

__all__ = ["boundary_value", "engine_nd", "fibre_classes", "kontsevich_nd"]


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
    if check_int(d, "the degree") < 1:
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


def boundary_value(datum: TargetDatum, cls: CurveClass, ins):
    """I_cls(ins) in closed form on the boundary of ``vanishes``, else None.

    ``ins`` are the non-divisor insertions of a canonical key; t(e),
    a = H . cls and n = len(ins) are as in ``TargetDatum.vanishes``, and
    N_d is ``kontsevich_nd(d)``.  Always None without a base divisor, since
    no sum of base orders meets the infinite bound.  The engine does
    not use this rule; a tier-1 test checks it against the engine's
    solved values.

    a = 0, on the boundary sum t = 2.  The composite map to the base
    plane is constant, so every curve lies in one fibre F, a plane, and
    the moduli space is the family over the base plane of the stable
    maps M_0,n(F, b), b = L . cls with L the other divisor.  The normal
    bundle of F is trivial, so its H^1 on a rational curve is 0 and the
    virtual class is the fundamental class.  Write T_e = H^t(e) . D_e.
    All n points map to one fibre, so the product of the ev_i^* H^t(e_i)
    is ev^* H^2, the class of one fibre, and I is the plane invariant
    I_b(D_1|F, ..., D_n|F).  D_e|F = k(e) h^c(e) (``fibre_classes``),
    and on the plane a fundamental-class insertion kills the invariant,
    a line multiplies it by b (divisor axiom), and points must number
    3b - 1 for the count N_b.  So I = 0 if some c(e) = 0, else
    prod k(e) . b^#(c = 1) . N_b when #(c = 2) = 3b - 1, else 0.  On
    Hilb^2, T3 restricts to the fibre, T4 and T6 to the line, and T5,
    T7 and T8 to the point, each with k = 1.

    a >= 1, on the boundary sum t = 3a - 1 + n (a sketch: the last step
    is checked, not proved).  The pulled-back powers of the line class
    come from M_0,n(P^2*, a), where sum t is the top degree, so their
    product is the plane invariant of the powers l^t(e) of the line
    class l, times the class of the lifts of one such map.  A t = 0
    insertion (T5 on Hilb^2) is the fundamental class of P^2*, which
    kills the plane invariant, so I = 0.  Otherwise each t = 1 insertion
    is a line, a factor a by the divisor axiom, and the t = 2 ones are
    the 3a - 1 points of N_a, so I = N_a . a^#(t = 1) times the integral
    of the D_e over the lifts.  That fibre factor is 1 on every boundary
    key checked so far (all of those in the stages the d <= 7 tables
    reach); the sketch does not derive it.
    """
    bound = datum.order_bound(cls, len(ins))
    orders = datum.base_orders
    if sum(orders[e] for e in ins) != bound:
        return None
    a = cls[datum.divisor_pos[datum.base]]
    if a >= 1:
        if any(orders[e] == 0 for e in ins):
            return 0
        return kontsevich_nd(a) * a ** sum(orders[e] == 1 for e in ins)
    b = cls[datum.divisor_pos[_fibre_line(datum)]]
    fibres = fibre_classes(datum)
    value, lines, points = 1, 0, 0
    for e in ins:
        c, k = fibres[e]
        if c == 0 or k == 0:
            return 0
        value *= k
        lines += c == 1
        points += c == 2
    if points != 3 * b - 1:
        return 0
    return value * b ** lines * kontsevich_nd(b)


def _fibre_line(datum: TargetDatum) -> int:
    """The divisor other than the base one."""
    (line,) = (x for x in datum.divisors if x != datum.base)
    return line


def fibre_classes(datum: TargetDatum) -> tuple | None:
    """(c(e), k(e)) for every basis index, or None without a base divisor;
    derived from the cup table.

    A fibre F of the projection is a plane; the base divisor H restricts
    to 0 on it, and the other divisor L is taken to restrict to the line
    class h, as T2 does on Hilb^2 (the integral of T1^2 T2^2 is 1).  For T_e = H^t(e) . D_e the
    restriction D_e|F is k(e) h^c(e) with c(e) = codim(e) - t(e), and
    k(e) = integral of D_e . H^2 . L^(2 - c) = integral of T_e . H^(2 - t)
    . L^(2 - c), the coordinate of H^(2 - t) . L^(2 - c) at the dual of
    e; k(e) = 0 when c(e) > 2.
    """
    if datum.base is None:
        return None
    h = datum.basis_vector(datum.base)
    line = datum.basis_vector(_fibre_line(datum))
    hpow = [datum.basis_vector(datum.codims.index(0))]
    for _ in range(2):
        hpow.append(datum.cup(hpow[-1], h))
    out = []
    for e in range(datum.basis_size):
        t = datum.base_orders[e]
        c = datum.codims[e] - t
        k = 0
        if c <= 2:
            prod = hpow[2 - t]
            for _ in range(2 - c):
                prod = datum.cup(prod, line)
            k = prod[datum.dual[e]]
        out.append((c, k))
    return tuple(out)
