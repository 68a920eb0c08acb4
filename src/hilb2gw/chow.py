"""Intersection rings of the two target varieties, behind one generic datum.

The main target is the Hilbert scheme of two points in the plane, a smooth
projective 4-fold whose rational cohomology is generated by two divisor
classes T1, T2. Its ring is presented as

    Q[T1, T2] / (T1^3,  T2^3 - 3*T1*T2^2 + 6*T1^2*T2)

with a fixed additive basis T0..T8 of codimensions (0,1,1,2,2,2,3,3,4). The
higher basis classes are polynomials in the divisors:

    T3 = T1^2            T4 = T1*T2 - 2*T1^2     T5 = T1^2 - T1*T2 + T2^2
    T6 = T1^2*T2         T7 = T1*T2^2 - 3*T1^2*T2
    T8 = T1^2*T2^2  (point class)

and the basis is self-dual under the intersection pairing: the integral of
Ti cup T(8-j) is 1 exactly when i = j. The full multiplication table is
*derived* at construction time by reducing polynomial products in the
quotient ring (never hand-typed). A datum derives its dimension and
divisors from the codimensions and its duality permutation from the table,
and construction fails hard unless the pairing is such a permutation and
the divisor products span every codimension above 1, so that the divisors
generate the ring.

Curve classes are lattice points (a, b) = a*B1 + b*B2 in the effective cone,
with B_i dual to T_j (T1.(a,b) = a, T2.(a,b) = b) and -K.(a,b) = 3b.

The Hilbert scheme is a P^2-bundle over the dual plane: the projection sends
a pair of points to the line through them, and T1 is the pullback of the
line class. A datum built with that base divisor derives from its cup table
the T1-adic order of every basis class and exposes the vanishing theorem the
projection implies (``TargetDatum.vanishes``).

Everything the reconstruction engine needs is packaged in a TargetDatum so
the same engine also runs on the plane itself (see ``p2_datum``), which
serves as an independent cross-check target.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .rationals import qdiv, qnorm

# --------------------------------------------------------------------------
# Exact polynomial arithmetic in Q[T1,T2] / (T1^3, T2^3 - 3 T1 T2^2 + 6 T1^2 T2)
#
# Polynomials are dicts (i, j) -> coefficient for the monomial T1^i T2^j.
# Reduction rewrites T2^3 -> 3 T1 T2^2 - 6 T1^2 T2 and kills T1^3, so reduced
# monomials satisfy i <= 2 and j <= 2; the quotient has rank 9, matching the
# basis.
# --------------------------------------------------------------------------


def _poly_reduce(poly: dict) -> dict:
    work = dict(poly)
    out: dict = {}
    while work:
        (i, j), c = work.popitem()
        if c == 0:
            continue
        if i >= 3:
            continue
        if j >= 3:
            # T2^j = T2^(j-3) * (3 T1 T2^2 - 6 T1^2 T2)
            for di, dj, m in ((1, j - 1, 3), (2, j - 2, -6)):
                key = (i + di, dj)
                work[key] = work.get(key, 0) + m * c
            continue
        out[(i, j)] = out.get((i, j), 0) + c
    return {k: v for k, v in out.items() if v != 0}


def _poly_mul(p: dict, q: dict) -> dict:
    prod: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            prod[key] = prod.get(key, 0) + c1 * c2
    return _poly_reduce(prod)


# Basis classes as reduced polynomials in the divisors.
_BASIS_POLYS = (
    {(0, 0): 1},                          # T0
    {(1, 0): 1},                          # T1
    {(0, 1): 1},                          # T2
    {(2, 0): 1},                          # T3
    {(1, 1): 1, (2, 0): -2},              # T4
    {(2, 0): 1, (1, 1): -1, (0, 2): 1},   # T5
    {(2, 1): 1},                          # T6
    {(1, 2): 1, (2, 1): -3},              # T7
    {(2, 2): 1},                          # T8
)

_MONOMIALS = tuple((i, j) for i in range(3) for j in range(3))


def _row_reduce(mat: list) -> list:
    """The nonzero rows of the reduced row echelon form of a small exact
    matrix, in normal form."""
    rows = [list(r) for r in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [qdiv(x, p) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [qnorm(x - f * y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows[:rank]


def _invert_basis_matrix() -> list:
    """Inverse of the (monomial x basis) coefficient matrix, exactly: the
    right half of the reduced echelon form of [M | I]."""
    n = len(_MONOMIALS)
    rows = [
        [poly.get(mono, 0) for poly in _BASIS_POLYS]
        + [int(k == mi) for k in range(n)]
        for mi, mono in enumerate(_MONOMIALS)
    ]
    return [row[n:] for row in _row_reduce(rows)]


_MONO_TO_BASIS = _invert_basis_matrix()


def _poly_to_vector(poly: dict) -> tuple:
    """Coordinates of a reduced polynomial in the T0..T8 basis."""
    coords = [0] * 9
    for mono, c in poly.items():
        mi = _MONOMIALS.index(mono)
        for e in range(9):
            coords[e] += c * _MONO_TO_BASIS[e][mi]
    return tuple(coords)


def build_cup_table() -> tuple:
    """Derive the 9x9 basis multiplication table from the ring presentation.

    Every entry is computed by multiplying the polynomial representatives and
    reducing in the quotient; products of total codimension above 4 reduce to
    zero automatically. ``TargetDatum`` checks the duality property of the
    result (the integral of Ti cup Tf is 1 for f = 8 - i and 0 otherwise).
    """
    table = [[None] * 9 for _ in range(9)]
    for e in range(9):
        for f in range(e, 9):
            vec = _poly_to_vector(_poly_mul(_BASIS_POLYS[e], _BASIS_POLYS[f]))
            table[e][f] = vec
            table[f][e] = vec
    return tuple(tuple(row) for row in table)


# --------------------------------------------------------------------------
# Generic target datum
# --------------------------------------------------------------------------

CohVector = tuple  # coordinates on the basis, exact rationals
CurveClass = tuple  # lattice point in the effective cone


class TargetDatum:
    """Everything the reconstruction engine needs about one target variety.

    Immutable after construction, so engines may share one. The caller
    gives the basis codimensions and the multiplication table; the datum
    derives from them ``dim`` (the codimension of the top class),
    ``divisors`` (the codimension-1 indices, ascending), ``rank`` (their
    number, the rank of the curve lattice) and ``dual`` (for each e, the one
    f with the integral of T_e . T_f equal to 1).  ``_validate`` refuses a
    table whose pairing is not a permutation, an involution and
    complementary in codimension, or whose divisor products fail to span a
    level of codimension 2 or more.

    Besides the ring, a datum carries what it knows of the invariants
    without the engine: ``base_case`` (the two-point values the
    reconstruction starts from), ``zero_class`` (classes whose invariants
    all vanish, which the engine's split plans and three-point rows
    skip), and, with a base divisor, ``vanishes`` and ``order_bound`` (the
    vanishing theorem of the projection to the base plane and its bound).
    """

    def __init__(
        self,
        name: str,
        codims: tuple[int, ...],
        cup_table: tuple[tuple[CohVector, ...], ...],
        anticanonical: tuple[int, ...],
        base_case: object,  # (cls, ins) -> exact value, or None if not a base case
        base: int | None = None,
        zero_class: object = None,  # cls -> True if every invariant is 0
    ):
        self.name = name
        self.codims = tuple(codims)
        self.basis_size = len(self.codims)
        self.cup_table = tuple(
            tuple(self.check_vector(v) for v in row) for row in cup_table
        )
        self.anticanonical = tuple(anticanonical)
        self.base_case = base_case
        self.base = base
        self._zero_class = zero_class

        self.top = self.basis_size - 1
        self.dim = self.codims[self.top]
        self.divisors = tuple(e for e, c in enumerate(self.codims) if c == 1)
        self.rank = len(self.divisors)
        # dual[e]: the one f whose product with T_e integrates to 1, the
        # integral being the point-class coordinate (``_validate`` checks
        # that it is one)
        self.dual = tuple(
            next((f for f, v in enumerate(row) if v[self.top] == 1), None)
            for row in self.cup_table
        )
        self.weights = tuple(c - 1 for c in self.codims)
        self.nondivisors = tuple(
            e for e in range(self.basis_size) if self.codims[e] >= 2
        )
        # T_e . cls = cls[divisor_pos[e]] for each divisor index e
        self.divisor_pos = tuple(
            self.divisors.index(e) if e in self.divisors else None
            for e in range(self.basis_size)
        )
        # sparse form of each table entry, for the engine's hot loop
        self.cup_terms = tuple(
            tuple(
                tuple((m, c) for m, c in enumerate(row) if c != 0)
                for row in rows
            )
            for rows in self.cup_table
        )
        self._validate()
        self.base_orders = self._derive_base_orders()

    # -- operands and ring operations --------------------------------------

    def check_index(self, e) -> int:
        """``e`` if it is a basis index (an int, not a bool); else ValueError."""
        if type(e) is not int or not 0 <= e < self.basis_size:
            raise ValueError(f"{e!r} is not a basis index in 0..{self.basis_size - 1}")
        return e

    def check_vector(self, v) -> CohVector:
        """A tuple or list of basis_size exact rationals as a tuple in normal
        form (``rationals.qnorm``); anything else raises ValueError."""
        if not isinstance(v, (tuple, list)) or len(v) != self.basis_size:
            raise ValueError(f"{v!r} is not a cohomology vector of {self.basis_size}")
        return tuple(map(qnorm, v))

    def basis_vector(self, e: int) -> CohVector:
        return tuple(int(k == e) for k in range(self.basis_size))

    def cup(self, u: CohVector, v: CohVector) -> CohVector:
        """Bilinear extension of the basis table to ``check_vector`` classes."""
        out = [0] * self.basis_size
        v = self.check_vector(v)
        for e, cu in enumerate(self.check_vector(u)):
            if cu == 0:
                continue
            for f, cv in enumerate(v):
                if cv == 0:
                    continue
                c = cu * cv
                for m, cm in self.cup_terms[e][f]:
                    out[m] += c * cm
        return tuple(map(qnorm, out))

    # -- curve classes -----------------------------------------------------

    def effective(self, cls: CurveClass) -> bool:
        """A lattice point of the cone: rank-many nonnegative ints (no bools)."""
        return len(cls) == self.rank and all(
            type(x) is int and x >= 0 for x in cls
        )

    def zero_class(self, cls: CurveClass) -> bool:
        """True when the datum declares every invariant of ``cls`` zero.

        Hilb^2 declares the classes (a, 1) with a > 2, which its base cases
        also answer with 0 (``_hilb_zero_class``); the plane declares none.
        The engine's split plans leave out every split with a side in such a
        class, and the quantum product's boxes skip such a class, so neither
        the split sum nor a three-point row looks up or stores its keys.
        """
        return self._zero_class is not None and self._zero_class(cls)

    def weight_budget(self, cls: CurveClass) -> int:
        """Value of sum(codim - 1) over insertions forced by the dimension count.

        An invariant of class beta with insertions of total codimension C and
        count n can be nonzero only if C = -K.beta + (dim - 3) + n, i.e. iff
        sum(codim_i - 1) equals this budget; the budget does not depend on n.
        """
        return sum(k * x for k, x in zip(self.anticanonical, cls)) + self.dim - 3

    def splits(self, cls: CurveClass) -> tuple:
        """All ordered pairs (c1, c2) of nonzero effective classes summing to cls."""
        parts = [()]
        for x in cls:
            parts = [p + (y,) for p in parts for y in range(x + 1)]
        return tuple(
            (c1, tuple(x - y for x, y in zip(cls, c1)))
            for c1 in parts
            if any(c1) and c1 != cls
        )

    # -- the projection to the base plane -----------------------------------

    def vanishes(self, cls: CurveClass, ins) -> bool:
        """True when the projection to the base plane forces I_cls(ins) = 0.

        ``ins`` are non-divisor basis indices. Write t(e) for the order of
        T_e in the base divisor H (the largest m with T_e in H^m . H^*) and
        a = H . cls. The insertion T_e carries the pullback of the m-th power
        of the line class along ev_i and the projection, and the product of
        those pullbacks comes from the moduli of stable maps to the plane
        (functoriality of stable maps). If a = 0 the composite map is
        constant, so the product lives on the plane itself and vanishes
        when sum t > 2; if a >= 1 the evaluation image of M_0,n(P^2, a) has
        dimension at most 3a - 1 + n, and the product vanishes when sum t
        exceeds it (``order_bound``). Always False without a base divisor,
        where the bound is infinite.
        """
        bound = self.order_bound(cls, len(ins))
        return sum(map(self.base_orders.__getitem__, ins)) > bound

    def order_bound(self, cls: CurveClass, n: int):
        """The largest sum of base orders t(e) over n non-divisor insertions
        at which the projection to the base plane leaves I_cls free: 2 when
        a = H . cls is 0, else 3a - 1 + n (see ``vanishes``).  ``math.inf``
        without a base divisor, where every base order is 0 and no sum
        kills a key.  Callers only compare a sum with the bound and never
        do arithmetic with it, so the infinite bound needs no branch."""
        if self.base is None:
            return math.inf
        a = cls[self.divisor_pos[self.base]]
        return 2 if a == 0 else 3 * a - 1 + n

    def _derive_base_orders(self) -> tuple:
        """t(e) for every basis index, from the cup table; zeros without a
        base divisor. Raises ValueError unless the base divisor cubes to 0,
        as the pullback of the line class from a plane must."""
        if self.base is None:
            return (0,) * self.basis_size
        if self.codims[self.base] != 1:
            raise ValueError(f"base class T{self.base} is not a divisor")
        h = self.basis_vector(self.base)
        powers = [self.basis_vector(self.codims.index(0))]
        for _ in range(3):
            powers.append(self.cup(powers[-1], h))
        if any(powers[3]):
            raise ValueError(f"the base divisor T{self.base} does not cube to 0")
        # H^m . H^* is graded: on the codim-c level it is spanned by the
        # products H^m . T_f with codim(f) = c - m, and a basis class of that
        # level lies in it iff it is a row of their reduced echelon form.
        # The ideals shrink as m grows, so the last m that holds is t(e).
        size = self.basis_size
        orders = [0] * size
        for m in (1, 2):
            prods = {
                f: self.cup(powers[m], self.basis_vector(f))
                for f in range(size)
                if self.codims[f] <= self.dim - m
            }
            for c in range(m, self.dim + 1):
                level = [k for k in range(size) if self.codims[k] == c]
                rows = _row_reduce(
                    [[v[k] for k in level] for f, v in prods.items()
                     if self.codims[f] == c - m]
                )
                for i, e in enumerate(level):
                    unit = [int(k == i) for k in range(len(level))]
                    if unit in rows:
                        orders[e] = m
        return tuple(orders)

    # -- construction-time validation ---------------------------------------

    def _validate(self) -> None:
        """ValueError unless the pairing is a permutation that is an
        involution and complements codimension, and, on every level of
        codimension c >= 2, the products T_d . T_rho of a divisor d and a
        class rho of codimension c - 1 span the level: the cohomology is
        generated by divisors, which reconstruction needs."""
        size, codims, top = self.basis_size, self.codims, self.top
        for e, f in enumerate(self.dual):
            row = self.cup_table[e]
            if f is None or any(row[g][top] != int(g == f) for g in range(size)):
                raise ValueError(f"pairing is not a permutation at row {e}")
            if self.dual[f] != e:
                raise ValueError("pairing is not an involution")
            if codims[e] + codims[f] != self.dim:
                raise ValueError("pairing does not complement codimension")
        for c in range(2, self.dim + 1):
            level = [e for e in range(size) if codims[e] == c]
            prods = [
                [self.cup_table[d][rho][e] for e in level]
                for d in self.divisors
                for rho in range(size)
                if codims[rho] == c - 1
            ]
            if len(_row_reduce(prods)) != len(level):
                raise ValueError(f"divisor products do not span codim {c}")


# --------------------------------------------------------------------------
# The two concrete targets
# --------------------------------------------------------------------------

# Two-point invariants of the Hilbert scheme for classes (a, 1), a = 0, 1, 2,
# indexed by the (sorted) insertion pair. These six columns are exactly the
# admissible pairs at b = 1. Classes (a, 1) with a > 2 vanish for any
# insertions (``_hilb_zero_class``), and classes (a, 0) admit a single
# codim-2 insertion with I(T3) = 3/a^2, I(T4) = 0, I(T5) = -3/a^2.
_A1_TABLE = {
    0: {(3, 8): 0, (4, 8): 0, (5, 8): 1, (6, 6): 0, (6, 7): 0, (7, 7): 1},
    1: {(3, 8): 1, (4, 8): 2, (5, 8): 1, (6, 6): 1, (6, 7): 2, (7, 7): -2},
    2: {(3, 8): 1, (4, 8): 0, (5, 8): 0, (6, 6): 4, (6, 7): -2, (7, 7): 1},
}


def check_datum(datum) -> TargetDatum:
    """``datum`` if it is a TargetDatum; anything else raises ValueError
    naming its type."""
    if not isinstance(datum, TargetDatum):
        raise ValueError(
            f"a target datum must be a TargetDatum, got {type(datum).__name__}"
        )
    return datum


def _hilb_zero_class(cls: CurveClass) -> bool:
    """The classes whose invariants all vanish: (a, 1) with a > 2."""
    return cls[1] == 1 and cls[0] > 2


def _hilb_base_case(cls: CurveClass, ins: tuple):
    if _hilb_zero_class(cls):
        return 0
    a, b = cls
    if b == 0:
        if ins == (3,):
            return qdiv(3, a * a)
        if ins == (4,):
            return 0
        if ins == (5,):
            return qdiv(-3, a * a)
        return None
    if b == 1 and len(ins) == 2:
        return _A1_TABLE[a].get(ins)
    return None


def _p2_base_case(cls: CurveClass, ins: tuple):
    (d,) = cls
    if d == 1 and ins == (2, 2):
        return 1
    return None


@lru_cache(maxsize=None)
def hilb_datum() -> TargetDatum:
    """Datum for the Hilbert scheme of two points in the plane."""
    return TargetDatum(
        name="hilb2p2",
        codims=(0, 1, 1, 2, 2, 2, 3, 3, 4),
        cup_table=build_cup_table(),
        anticanonical=(0, 3),
        base_case=_hilb_base_case,
        base=1,
        zero_class=_hilb_zero_class,
    )


@lru_cache(maxsize=None)
def p2_datum() -> TargetDatum:
    """Datum for the projective plane: basis (1, H, point), classes (d,).

    Running the engine on this datum reproduces the counts of rational plane
    curves through 3d - 1 general points, which an independent closed
    recursion also computes; agreement of the two is a standing cross-check.
    """
    zero, one, h, pt = (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    table = (
        (one, h, pt),
        (h, pt, zero),
        (pt, zero, zero),
    )
    return TargetDatum(
        name="p2",
        codims=(0, 1, 2),
        cup_table=table,
        anticanonical=(3,),
        base_case=_p2_base_case,
    )
