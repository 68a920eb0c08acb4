"""Small quantum products of the target as truncated two-variable series.

The quantum product of two cohomology classes is a series in the Novikov
variables q1, q2: the coefficient of ``q1^a q2^b`` (for (a, b) != (0, 0))
is the cohomology vector ``sum_i I_{(a,b)}(g1, g2, T_i) . T_{8-i}`` and the
constant term is the classical cup product.  This module provides the
series arithmetic, the product of arbitrary classes, and verifiers that
recompute the closed-form product table and the two cubic relations of the
divisor subring from engine invariants.

Products are bilinear: the coefficient of q1^a q2^b in g1 * g2 is
``sum_{x,y} g1[x] g2[y] R_(a,b)(x, y)`` with the three-point basis row
``R_(a,b)(x, y) = sum_i I_(a,b)(T_x, T_y, T_i) T_{8-i}``.  Most rows are
empty (249 of the 2,178 rows that ``qcoh`` at (80, 2) resolves are not),
so the engine keeps, per basis pair and truncation, the tuple of the box's
nonempty rows (``Engine._box_rows``), each row resolved once when its box
is built.  A product contracts the sparse supports of its operands with
those rows alone, skipping the ones that would land past the truncation.

``ScalarSeries`` (exact coefficients) and ``QSeries`` (cohomology-vector
coefficients) share one truncated-series class: construction, the operand
gate, ``+``, ``-``, scaling by an exact scalar or a ``ScalarSeries``,
``==`` and ``first_mismatch`` are written once.  The gate checks the other
operand's kind, truncation bounds and (for a QSeries) datum before any
arithmetic and raises ValueError naming what differs; ``==`` is False
instead.  Every coefficient passes
its type's gate on construction (``rationals.qnorm`` for a scalar,
``TargetDatum.check_vector`` for a vector), so it is in the package's normal
form (a plain ``int`` when integral, a ``Rat`` only for a true fraction) and
any value that is not an exact rational raises ValueError.  Operands are
basis indices or cohomology vectors, checked by ``TargetDatum.check_index``
and ``TargetDatum.check_vector``; truncation bounds are non-negative ints.
"""

from __future__ import annotations

import operator

from .chow import CohVector, TargetDatum
from .rationals import Rat, check_int, qnorm

__all__ = [
    "ScalarSeries",
    "QSeries",
    "f_series",
    "small_product",
    "star",
    "verify_product_table",
    "verify_relations",
    "ProductCheck",
    "ProductReport",
    "RelationReport",
]


# ----------------------------------------------------------------------
# truncated series
# ----------------------------------------------------------------------


def _check_truncation(n1, n2) -> None:
    for n in (n1, n2):
        if check_int(n, "a truncation bound") < 0:
            raise ValueError("truncation bounds must be non-negative")


class _Series:
    """Series in q1, q2 truncated to degrees (n1, n2): ``coeffs`` maps (a, b)
    to a nonzero coefficient in normal form.  The input must be a dict (or
    None) keyed by pairs of non-negative ints (not bools), or ValueError is
    raised; terms past the truncation box are dropped.

    A subclass names its coefficient type: ``_norm`` (the gate to normal
    form), ``_nonzero``, ``_add`` (of two coefficients) and ``_scale`` (of a
    coefficient by an exact scalar), and ``_like``, which builds a series of
    the same kind and bounds from a coefficient dict.
    """

    __slots__ = ("n1", "n2", "coeffs")

    def __init__(self, n1: int, n2: int, coeffs: dict | None = None):
        _check_truncation(n1, n2)
        self.n1, self.n2 = n1, n2
        self.coeffs: dict = {}
        if coeffs is None:
            return
        if type(coeffs) is not dict:
            raise ValueError(
                "series coefficients must be a dict keyed by (a, b) exponent "
                f"pairs of non-negative ints, got {type(coeffs).__name__}"
            )
        norm, nonzero = self._norm, self._nonzero
        for key, c in coeffs.items():
            try:
                a, b = key
            except (TypeError, ValueError):  # not a pair: refused just below
                a = b = None
            if type(a) is not int or type(b) is not int or a < 0 or b < 0:
                raise ValueError(
                    f"series exponents must be non-negative ints, got {key!r}"
                )
            c = norm(c)
            if nonzero(c) and a <= n1 and b <= n2:
                self.coeffs[(a, b)] = c

    def _mismatch(self, other) -> str | None:
        """What keeps ``other`` from combining with this series, or None: its
        kind, then its bounds (a QSeries adds its datum)."""
        if type(other) is not type(self):
            return f"cannot combine {type(self).__name__} with {type(other).__name__}"
        if (self.n1, self.n2) != (other.n1, other.n2):
            return "mismatched truncation bounds"
        return None

    def _check_operand(self, other) -> None:
        """The gate of every series operand: ValueError naming what differs."""
        miss = self._mismatch(other)
        if miss:
            raise ValueError(miss)

    def __add__(self, other):
        self._check_operand(other)
        add = self._add
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            coeffs[k] = add(coeffs[k], c) if k in coeffs else c
        return self._like(coeffs)

    def __sub__(self, other):
        self._check_operand(other)
        return self + (-other)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s):
        """Multiply by an exact scalar or by a ScalarSeries (with truncation)."""
        if not isinstance(s, ScalarSeries):
            s = ScalarSeries.constant(self.n1, self.n2, s)
        elif (s.n1, s.n2) != (self.n1, self.n2):
            raise ValueError("mismatched truncation bounds")
        scale, add = self._scale, self._add
        n1, n2 = self.n1, self.n2
        coeffs: dict = {}
        for (a1, b1), v in self.coeffs.items():
            for (a2, b2), c in s.coeffs.items():
                a, b = a1 + a2, b1 + b2
                if a <= n1 and b <= n2:
                    k = (a, b)
                    sv = scale(v, c)
                    coeffs[k] = add(coeffs[k], sv) if k in coeffs else sv
        return self._like(coeffs)

    def __eq__(self, other) -> bool:
        return self._mismatch(other) is None and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_mismatch(self, other):
        """Lowest (a, b) where the two series differ, or None."""
        self._check_operand(other)
        for k in sorted(set(self.coeffs) | set(other.coeffs)):
            if self.coefficient(*k) != other.coefficient(*k):
                return k
        return None


class ScalarSeries(_Series):
    """Polynomial in q1, q2 truncated to degrees (n1, n2), exact coefficients."""

    __slots__ = ()
    _norm = staticmethod(qnorm)
    _nonzero = bool
    _add = operator.add
    _scale = operator.mul

    def _like(self, coeffs: dict) -> "ScalarSeries":
        return ScalarSeries(self.n1, self.n2, coeffs)

    @classmethod
    def constant(cls, n1: int, n2: int, value) -> "ScalarSeries":
        return cls(n1, n2, {(0, 0): value})

    @classmethod
    def monomial(cls, n1: int, n2: int, a: int, b: int, value=1) -> "ScalarSeries":
        return cls(n1, n2, {(a, b): value})

    def coefficient(self, a: int, b: int):
        return self.coeffs.get((a, b), 0)

    __mul__ = __rmul__ = _Series.scaled

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for (a, b) in sorted(self.coeffs):
            c = self.coeffs[(a, b)]
            mono = "".join(
                f"q{i}^{e}" if e > 1 else (f"q{i}" if e == 1 else "")
                for i, e in ((1, a), (2, b))
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def f_series(n1: int, n2: int = 0) -> ScalarSeries:
    """The series q1/(1 - q1) = q1 + q1^2 + ... truncated at degree n1."""
    _check_truncation(n1, n2)
    return ScalarSeries(n1, n2, {(a, 0): 1 for a in range(1, n1 + 1)})


def _vec_add(u: CohVector, v: CohVector) -> CohVector:
    return tuple(a + b for a, b in zip(u, v))


def _vec_scale(u: CohVector, c: Rat) -> CohVector:
    return tuple(a * c for a in u)


class QSeries(_Series):
    """Series in q1, q2 with cohomology-vector coefficients, truncated."""

    __slots__ = ("datum",)
    _nonzero = any
    _add = staticmethod(_vec_add)
    _scale = staticmethod(_vec_scale)

    def __init__(self, datum: TargetDatum, n1: int, n2: int, coeffs: dict | None = None):
        self.datum = datum
        super().__init__(n1, n2, coeffs)

    def _norm(self, v) -> CohVector:
        return self.datum.check_vector(v)

    def _like(self, coeffs: dict) -> "QSeries":
        return QSeries(self.datum, self.n1, self.n2, coeffs)

    def _mismatch(self, other) -> str | None:
        miss = super()._mismatch(other)
        if miss is None and other.datum is not self.datum:
            miss = f"mismatched targets: {self.datum.name} and {other.datum.name}"
        return miss

    @classmethod
    def from_vector(cls, datum: TargetDatum, n1: int, n2: int, g) -> "QSeries":
        """The constant series of a basis index or a cohomology vector."""
        if not isinstance(g, (tuple, list)):
            g = datum.basis_vector(datum.check_index(g))
        return cls(datum, n1, n2, {(0, 0): g})

    @classmethod
    def from_scalar(cls, datum: TargetDatum, s: ScalarSeries) -> "QSeries":
        """Embed a scalar series as a multiple of the fundamental class."""
        return cls.from_vector(datum, s.n1, s.n2, 0).scaled(s)

    def coefficient(self, a: int, b: int) -> CohVector:
        return self.coeffs.get((a, b), (0,) * self.datum.basis_size)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QSeries(0)"
        bits = []
        for (a, b) in sorted(self.coeffs):
            v = self.coeffs[(a, b)]
            vec = " + ".join(
                f"{c}*T{i}" if c != 1 else f"T{i}"
                for i, c in enumerate(v)
                if c != 0
            )
            bits.append(f"q1^{a}q2^{b}*({vec})")
        return "QSeries(" + " + ".join(bits) + ")"


# ----------------------------------------------------------------------
# the small quantum product
# ----------------------------------------------------------------------


def _add_product(engine, out: dict, u, v, a0: int, b0: int, n1: int, n2: int) -> None:
    """Add q1^a0 q2^b0 (u * v), truncated at (n1, n2), into ``out``.

    ``u`` and ``v`` are vectors in normal form and ``out`` maps (a, b) to a
    mutable coefficient list.  The product is contracted bilinearly: the
    operands' supports pair up (x <= y, the row being symmetric) and each
    pair weight multiplies its cup-table entry at q1^a0 q2^b0 and each of
    its nonempty three-point rows (``Engine._box_rows``) that lands inside
    the truncation.  A cell of ``out`` is created only when a term lands on
    it.
    """
    weights: dict = {}
    for x, cx in enumerate(u):
        if cx:
            for y, cy in enumerate(v):
                if cy:
                    k = (x, y) if x <= y else (y, x)
                    weights[k] = weights.get(k, 0) + cx * cy
    size = engine.datum.basis_size
    cup_terms = engine.datum.cup_terms
    box_rows = engine._box_rows
    amax, bmax = n1 - a0, n2 - b0
    for (x, y), c in weights.items():
        if not c:
            continue
        c = qnorm(c)
        terms = cup_terms[x][y]
        if terms:
            vec = out.get((a0, b0))
            if vec is None:
                vec = out[(a0, b0)] = [0] * size
            for m, cm in terms:
                vec[m] += c * cm
        for a, b, row in box_rows(x, y, n1, n2):
            if a > amax:
                break
            if b > bmax:
                continue
            k = (a0 + a, b0 + b)
            vec = out.get(k)
            if vec is None:
                vec = out[k] = [0] * size
            for j, val in row:
                vec[j] += c * val


def small_product(engine, g1, g2, n1: int = 4, n2: int = 2) -> QSeries:
    """Quantum product of two cohomology classes, truncated at (n1, n2).

    The constant term is the cup product; the coefficient of q1^a q2^b is
    ``sum_i I_{(a,b)}(g1, g2, T_i) . T_{8-i}`` with i running over the whole
    basis (fundamental-class insertions vanish on their own).  ``g1`` and
    ``g2`` are basis indices or cohomology vectors; anything else raises
    ValueError.  This is ``star`` of two constant operands.
    """
    return star(engine, g1, g2, n1, n2)


def star(engine, left, right, n1: int = 4, n2: int = 2) -> QSeries:
    """Quantum product extended to series operands (left-to-right nesting).

    Accepts basis indices, cohomology vectors, or QSeries on either side; a
    QSeries operand must have the bounds (n1, n2) and the engine's datum,
    else ValueError.  Each pair of coefficients at (a1, b1) and (a2, b2)
    with a1 + a2 <= n1 and b1 + b2 <= n2 adds its product at that offset,
    from the operands' nonempty three-point rows that land inside the
    truncation.
    """
    datum = engine.datum
    gate = QSeries(datum, n1, n2)
    if isinstance(left, QSeries):
        gate._check_operand(left)
    else:
        left = QSeries.from_vector(datum, n1, n2, left)
    if isinstance(right, QSeries):
        gate._check_operand(right)
    else:
        right = QSeries.from_vector(datum, n1, n2, right)
    coeffs: dict = {}
    for (a1, b1), u in left.coeffs.items():
        for (a2, b2), v in right.coeffs.items():
            if a1 + a2 <= n1 and b1 + b2 <= n2:
                _add_product(engine, coeffs, u, v, a1 + a2, b1 + b2, n1, n2)
    return QSeries(datum, n1, n2, coeffs)


# ----------------------------------------------------------------------
# verification of the closed-form table and relations
# ----------------------------------------------------------------------


def _closed_product_forms(datum: TargetDatum, n1: int, n2: int) -> dict:
    """The nine divisor-times-basis products in closed form, truncated."""
    f = f_series(n1, n2)
    one = ScalarSeries.constant(n1, n2, 1)

    def basis(k) -> QSeries:
        return QSeries.from_vector(datum, n1, n2, k)

    def mono(a, b, c=1) -> QSeries:
        return QSeries.from_scalar(
            datum, ScalarSeries.monomial(n1, n2, a, b, c)
        )

    return {
        (1, 1): basis(3).scaled(one - 3 * f) + basis(5).scaled(3 * f),
        (1, 2): basis(3).scaled(2) + basis(4),
        (2, 2): basis(3) + basis(4) + basis(5),
        (1, 3): basis(7).scaled(3 * f) + mono(1, 1) + mono(2, 1, 2),
        (1, 4): basis(6) + mono(1, 1, 2),
        (1, 5): basis(6).scaled(2) + basis(7).scaled(one - 3 * f) + mono(1, 1),
        (2, 3): basis(6) + mono(1, 1) + mono(2, 1),
        (2, 4): basis(6) + basis(7) + mono(1, 1, 2),
        (2, 5): basis(6) + basis(7).scaled(2) + mono(0, 1) + mono(1, 1),
    }


class ProductCheck:
    """Outcome of one table entry: computed vs closed form."""

    __slots__ = ("left", "right", "passed", "first_mismatch", "computed", "expected")

    def __init__(
        self,
        left: int,
        right: int,
        passed: bool,
        first_mismatch: tuple | None,
        computed: QSeries,
        expected: QSeries,
    ):
        self.left = left
        self.right = right
        self.passed = passed
        self.first_mismatch = first_mismatch
        self.computed = computed
        self.expected = expected

    @property
    def name(self) -> str:
        return f"T{self.left}*T{self.right}"


class ProductReport:
    __slots__ = ("n1", "n2", "entries")

    def __init__(self, n1: int, n2: int, entries: list | None = None):
        self.n1 = n1
        self.n2 = n2
        self.entries = [] if entries is None else entries

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


class RelationReport:
    __slots__ = ("n1", "n2", "residuals")

    def __init__(self, n1: int, n2: int, residuals: list | None = None):
        self.n1 = n1
        self.n2 = n2
        self.residuals = [] if residuals is None else residuals

    @property
    def passed(self) -> bool:
        return all(r.is_zero() for r in self.residuals)


def verify_product_table(engine, n1: int = 4, n2: int = 2) -> ProductReport:
    """Recompute the nine products of divisors with low-degree classes."""
    datum = engine.datum
    expected = _closed_product_forms(datum, n1, n2)
    report = ProductReport(n1, n2)
    for (i, j), want in sorted(expected.items()):
        got = small_product(engine, i, j, n1, n2)
        miss = got.first_mismatch(want)
        report.entries.append(
            ProductCheck(i, j, miss is None, miss, got, want)
        )
    return report


def verify_relations(engine, n1: int = 4, n2: int = 2) -> RelationReport:
    """Evaluate the two cubic relations of the divisor subring.

    Products are expanded strictly left-to-right; both residuals must be the
    zero series.  The first relation:

        T1*T1*T1 - 9f^2 T1*T2*T2 + (9f^2 - 2f) T2*T2*T2 - q1q2(q1 - 1) = 0

    and the second:

        (1-18f) T2*T2*T2 - 3(1-6f) T1*T2*T2 + 6 T1*T1*T2 - q2(q1-1)^2 = 0.
    """
    datum = engine.datum
    f = f_series(n1, n2)
    one = ScalarSeries.constant(n1, n2, 1)
    q1 = ScalarSeries.monomial(n1, n2, 1, 0)
    q2 = ScalarSeries.monomial(n1, n2, 0, 1)

    def triple(a, b, c) -> QSeries:
        return star(engine, star(engine, a, b, n1, n2), c, n1, n2)

    t111 = triple(1, 1, 1)
    t112 = triple(1, 1, 2)
    t122 = triple(1, 2, 2)
    t222 = triple(2, 2, 2)

    r1 = (
        t111
        - t122.scaled(9 * f * f)
        + t222.scaled(9 * f * f - 2 * f)
        - QSeries.from_scalar(datum, q1 * q2 * (q1 - one))
    )
    r2 = (
        t222.scaled(one - 18 * f)
        - t122.scaled(3 * (one - 6 * f))
        + t112.scaled(6)
        - QSeries.from_scalar(datum, q2 * (q1 * q1 - 2 * q1 + one))
    )
    return RelationReport(n1, n2, [r1, r2])
