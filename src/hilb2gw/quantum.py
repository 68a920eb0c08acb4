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
``R_(a,b)(x, y) = sum_i I_(a,b)(T_x, T_y, T_i) T_{8-i}``, the degree-0 row
being the cup product.  Most rows are empty, and the engine builds only
those that can be nonzero.  A box skips each class the datum declares
zero, each class whose row weight is the weight of no basis index, and
each class whose budget no row can fill, so a truncation far past the
rows costs nothing (``Engine._box_rows`` counts the rows at (80, 2)).  By
the divisor axiom a pair's row is its divisor multipliers times
invariants of its non-divisor part alone, so pairs with one non-divisor
part share memo keys, not cached row tuples.  The engine keeps, per basis
pair and truncation, the box's rows as q1-slices ``(b, j, ((a, val),
...))``, sorted by a (``Engine._box_rows``), the only store of rows.  A
product is a convolution over those slices: ``star`` sums each pair's
weight series once, adds each slice times each weight into one dense list
per output (b, j), stopping at the truncation, and builds the coefficient
dict once at the end.

``ScalarSeries`` (exact coefficients) and ``QSeries`` (cohomology-vector
coefficients) share one truncated-series class: construction, the operand
gate, arithmetic, ``==`` and ``first_mismatch`` are written once.  The gate
checks the other operand's kind, truncation bounds and (for a QSeries)
datum before any arithmetic and raises ValueError naming what differs;
``==`` is False instead.  The public constructors gate every key and
coefficient (``rationals.qnorm`` for a scalar, ``TargetDatum.check_vector``
for a vector; any value that is not an exact rational raises ValueError).
Arithmetic has one entry point, ``_Series._sum``: it adds each ``s * x``
(``s`` an exact scalar or a ScalarSeries) into one accumulator through the
kind's kernel ``_convolve``, and ``_like`` builds the result once (and that
of ``star``), only normalizing and dropping zeros.  ``+``, ``-``,
``scaled``, ``*`` and each relation residual (four terms) are sums; a
closed-form product is a row of integers that ``_like`` lays straight into
its series (``_closed_product_forms``).  Every coefficient is in the
package's normal form (an ``int`` when integral, a ``Rat`` only for a true
fraction).  Operands are basis indices or cohomology vectors, checked by
``TargetDatum.check_index`` and ``TargetDatum.check_vector``; truncation
bounds are non-negative ints, and a QSeries's datum is a TargetDatum
(``chow.check_datum``).
"""

from __future__ import annotations

from itertools import compress, count

from .chow import CohVector, TargetDatum, check_datum, hilb_datum
from .rationals import _ONLY_INTS, check_int, qnorm

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


def _exponents(key) -> tuple:
    """``key`` as a pair of non-negative ints (not bools), else ValueError."""
    try:
        a, b = key
    except (TypeError, ValueError):  # not a pair: refused just below
        a = b = None
    if type(a) is not int or type(b) is not int or a < 0 or b < 0:
        raise ValueError(f"series exponents must be non-negative ints, got {key!r}")
    return a, b


class _Series:
    """Series in q1, q2 truncated to degrees (n1, n2): ``coeffs`` maps (a, b)
    inside the box to a nonzero coefficient in normal form, on both paths.
    The constructor gates its input: a dict (or None) keyed by pairs of
    non-negative ints (not bools), each coefficient through ``_norm``, or
    ValueError; terms past the box are dropped.  Arithmetic has one entry
    point, ``_sum``, whose result ``_like`` builds, only normalizing and
    dropping zeros; ``+``, ``-`` and ``scaled`` are sums of one or two terms.

    A subclass names its coefficient type: ``_norm``, ``_nonzero``,
    ``_like`` and ``_convolve``, the one arithmetic kernel: it adds the
    product of a coefficient dict with a list of scalar terms into an
    accumulator, each coefficient looping over the terms inline.
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
            a, b = _exponents(key)
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

    def _sum(self, parts):
        """``sum(s * x for s, x in parts)`` in one pass: ``s`` is an exact
        scalar or a ScalarSeries with these bounds, ``x`` a series that
        passes ``_check_operand``; every product is added into one
        accumulator by ``_convolve`` and the sum normalized once by
        ``_like``."""
        n1, n2 = self.n1, self.n2
        coeffs: dict = {}
        for s, x in parts:
            self._check_operand(x)
            if not isinstance(s, ScalarSeries):
                terms = ((0, 0, qnorm(s)),)
            elif (s.n1, s.n2) != (n1, n2):
                raise ValueError("mismatched truncation bounds")
            else:  # by a: the kernel breaks past the box
                terms = sorted([(a, b, c) for (a, b), c in s.coeffs.items()])
            self._convolve(coeffs, x.coeffs, terms, n1, n2)
        return self._like(coeffs)

    def __add__(self, other):
        return self._sum(((1, self), (1, other)))

    def __sub__(self, other):
        return self._sum(((1, self), (-1, other)))

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, s):
        """Multiply by an exact scalar or by a ScalarSeries (with truncation)."""
        return self._sum(((s, self),))

    def __eq__(self, other) -> bool:
        return self._mismatch(other) is None and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_mismatch(self, other):
        """Lowest (a, b) where the two series differ, or None."""
        self._check_operand(other)
        mine, theirs = self.coeffs, other.coeffs
        for k in sorted(mine.keys() | theirs.keys()):
            if mine.get(k) != theirs.get(k):
                return k
        return None


class ScalarSeries(_Series):
    """Polynomial in q1, q2 truncated to degrees (n1, n2), exact coefficients."""

    __slots__ = ()
    _norm = staticmethod(qnorm)
    _nonzero = bool

    @staticmethod
    def _convolve(out: dict, coeffs: dict, terms, n1: int, n2: int) -> None:
        """Add ``coeffs`` times the terms ``(a, b, c)``, sorted by a, into
        ``out``, truncated at (n1, n2)."""
        get = out.get
        for (a1, b1), v in coeffs.items():
            for a2, b2, c in terms:
                a = a1 + a2
                if a > n1:
                    break
                b = b1 + b2
                if b <= n2:
                    k = (a, b)
                    out[k] = get(k, 0) + v * c

    def _like(self, coeffs: dict) -> "ScalarSeries":
        new = ScalarSeries(self.n1, self.n2)
        new.coeffs = {
            k: c if type(c) is int else qnorm(c) for k, c in coeffs.items() if c
        }
        return new

    @classmethod
    def constant(cls, n1: int, n2: int, value) -> "ScalarSeries":
        return cls(n1, n2, {(0, 0): value})

    @classmethod
    def monomial(cls, n1: int, n2: int, a: int, b: int, value=1) -> "ScalarSeries":
        return cls(n1, n2, {(a, b): value})

    def coefficient(self, a: int, b: int):
        """The coefficient of q1^a q2^b (0 past the box); exponents are gated
        as in the constructor."""
        return self.coeffs.get(_exponents((a, b)), 0)

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


class QSeries(_Series):
    """Series in q1, q2 with cohomology-vector coefficients, truncated."""

    __slots__ = ("datum",)
    _nonzero = any

    def __init__(self, datum: TargetDatum, n1: int, n2: int, coeffs: dict | None = None):
        self.datum = check_datum(datum)
        super().__init__(n1, n2, coeffs)

    def _norm(self, v) -> CohVector:
        return self.datum.check_vector(v)

    @staticmethod
    def _convolve(out: dict, coeffs: dict, terms, n1: int, n2: int) -> None:
        """Add ``coeffs`` times the terms ``(a, b, c)``, sorted by a, into
        ``out`` (mutable lists), truncated at (n1, n2); each vector's
        nonzero entries are found once."""
        get = out.get
        for (a1, b1), v in coeffs.items():
            nonzero = [(i, x) for i, x in enumerate(v) if x]
            for a2, b2, c in terms:
                a = a1 + a2
                if a > n1:
                    break
                b = b1 + b2
                if b <= n2:
                    k = (a, b)
                    acc = get(k)
                    if acc is None:
                        acc = out[k] = [0] * len(v)
                    for i, x in nonzero:
                        acc[i] += x * c

    def _like(self, coeffs: dict) -> "QSeries":
        new = QSeries(self.datum, self.n1, self.n2)
        ints = _ONLY_INTS.issuperset
        new.coeffs = {
            k: tuple(v)
            if ints(map(type, v))
            else tuple([c if type(c) is int else qnorm(c) for c in v])
            for k, v in coeffs.items()
            if any(v)
        }
        return new

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
        """The coefficient of q1^a q2^b (zero past the box); exponents are
        gated as in the constructor."""
        return self.coeffs.get(_exponents((a, b)), (0,) * self.datum.basis_size)

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


def _check_target(engine) -> None:
    """ValueError unless the engine's target has two-parameter classes
    (a, b), the only ones the quantum product's series are indexed by."""
    if engine.datum.rank != 2:
        raise ValueError(
            "the quantum product is defined for the two-parameter target only"
        )


def _supports(gate: QSeries, g) -> list:
    """``(a, b, entries)`` for each coefficient of the operand ``g``, with
    the nonzero ``(index, value)`` entries of its vector.  A QSeries must
    pass ``gate._check_operand``; a basis index or a cohomology vector is
    a constant, gated as ``QSeries.from_vector`` gates it, with no series
    built."""
    datum = gate.datum
    if isinstance(g, QSeries):
        gate._check_operand(g)
        items = g.coeffs.items()
    elif isinstance(g, (tuple, list)):
        items = (((0, 0), datum.check_vector(g)),)
    else:
        return [(0, 0, [(datum.check_index(g), 1)])]
    out = []
    for (a, b), v in items:
        entries = [(x, c) for x, c in enumerate(v) if c]
        if entries:
            out.append((a, b, entries))
    return out


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
    else ValueError, and a target without two-parameter classes raises
    ValueError first.

    The product is a convolution over q1-slices.  Each basis pair (x <= y,
    the rows being symmetric) gets its weight series once: the sum of
    ``left[x] right[y]`` (and ``left[y] right[x]``) over the pairs of
    coefficients that land at (a0, b0) inside the truncation, grouped by
    b0.  Each slice ``(b, j, ((a, val), ...))`` of the pair's box
    (``Engine._box_rows``, whose slices at a = b = 0 are the cup product)
    finds the dense list of its output (b0 + b, j), indexed by a, once per
    b0 and adds itself times each weight ``c`` at (a0, b0) into it, the
    walk stopping at the first a past ``n1 - a0``.  A dense list holds the
    cells up to the largest a its slices and weights reach (at most n1),
    growing when a later slice reaches further.  The coefficient dict is
    built once, from the nonzero cells of the dense lists.  A basis index or
    vector operand is read as its one constant coefficient (``_supports``),
    with no series built.
    """
    _check_target(engine)
    datum = engine.datum
    gate = QSeries(datum, n1, n2)
    lefts = _supports(gate, left)
    rights = _supports(gate, right)
    weights: dict = {}  # (x, y) -> {b0: {a0: weight}}
    for a1, b1, su in lefts:
        for a2, b2, sv in rights:
            a0, b0 = a1 + a2, b1 + b2
            if a0 <= n1 and b0 <= n2:
                for x, cx in su:
                    for y, cy in sv:
                        pair = (x, y) if x <= y else (y, x)
                        w = weights.get(pair)
                        if w is None:
                            w = weights[pair] = {}
                        wb = w.get(b0)
                        if wb is None:
                            wb = w[b0] = {}
                        wb[a0] = wb.get(a0, 0) + cx * cy
    dense: dict = {}  # (b, j) -> the coefficients of T_j q2^b, by a
    for (x, y), w in weights.items():
        series = [
            (b0, max(wb), [(a0, qnorm(c)) for a0, c in wb.items() if c])
            for b0, wb in w.items()
        ]
        for b, j, entries in engine._box_rows(x, y, n1, n2):
            top = entries[-1][0]  # the slice's largest a
            for b0, a0max, terms in series:
                if b0 + b > n2:
                    continue
                size = min(n1, a0max + top) + 1
                acc = dense.get((b0 + b, j))
                if acc is None:
                    acc = dense[(b0 + b, j)] = [0] * size
                elif len(acc) < size:
                    acc += [0] * (size - len(acc))
                for a0, c in terms:
                    amax = n1 - a0
                    for a, val in entries:
                        if a > amax:
                            break
                        acc[a0 + a] += c * val
    size = datum.basis_size
    coeffs: dict = {}
    for (b, j), acc in dense.items():
        for a in compress(count(), acc):
            vec = coeffs.get((a, b))
            if vec is None:
                vec = coeffs[(a, b)] = [0] * size
            vec[j] = acc[a]
    return gate._like(coeffs)


# ----------------------------------------------------------------------
# verification of the closed-form table and relations
# ----------------------------------------------------------------------


def _closed_product_forms(datum: TargetDatum, n1: int, n2: int) -> dict:
    """The nine divisor-times-basis products in closed form, truncated.

    Each is a row of integers: ``k: (c0, c)`` is c0 + c f on T_k, with
    f = q1/(1 - q1) = q1 + q1^2 + ..., and T0's entry is a dict of
    q-monomials.  The coefficients are laid straight into each expected
    series, which ``_like`` builds."""
    rows = {
        (1, 1): {3: (1, -3), 5: (0, 3)},
        (1, 2): {3: (2, 0), 4: (1, 0)},
        (2, 2): {3: (1, 0), 4: (1, 0), 5: (1, 0)},
        (1, 3): {7: (0, 3), 0: {(1, 1): 1, (2, 1): 2}},
        (1, 4): {6: (1, 0), 0: {(1, 1): 2}},
        (1, 5): {6: (2, 0), 7: (1, -3), 0: {(1, 1): 1}},
        (2, 3): {6: (1, 0), 0: {(1, 1): 1, (2, 1): 1}},
        (2, 4): {6: (1, 0), 7: (1, 0), 0: {(1, 1): 2}},
        (2, 5): {6: (1, 0), 7: (2, 0), 0: {(0, 1): 1, (1, 1): 1}},
    }
    gate = QSeries(datum, n1, n2)
    size = datum.basis_size
    forms = {}
    for pair, row in rows.items():
        coeffs: dict = {}
        for k, entry in row.items():
            if k:  # c0 + c f as monomials
                c0, c = entry
                entry = {(a, 0): c for a in range(1, n1 + 1)} if c else {}
                entry[(0, 0)] = c0
            for (a, b), c in entry.items():
                if a <= n1 and b <= n2:
                    vec = coeffs.get((a, b))
                    if vec is None:
                        vec = coeffs[(a, b)] = [0] * size
                    vec[k] += c
        forms[pair] = gate._like(coeffs)
    return forms


class ProductCheck:
    """Outcome of one table entry: computed vs closed form."""

    __slots__ = ("left", "right", "first_mismatch", "computed", "expected")

    def __init__(
        self,
        left: int,
        right: int,
        first_mismatch: tuple | None,
        computed: QSeries,
        expected: QSeries,
    ):
        self.left = left
        self.right = right
        self.first_mismatch = first_mismatch
        self.computed = computed
        self.expected = expected

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

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


def _check_ring(engine) -> TargetDatum:
    """The datum after ``_check_target``; ValueError naming it unless its ring
    is Hilb^2(P^2)'s, whose closed forms the verifiers check."""
    _check_target(engine)
    datum, hilb = engine.datum, hilb_datum()
    ring = ("codims", "cup_table", "anticanonical")
    if any(getattr(datum, k) != getattr(hilb, k) for k in ring):
        raise ValueError(
            f"the closed forms are those of {hilb.name}, not of {datum.name}"
        )
    return datum


def verify_product_table(engine, n1: int = 4, n2: int = 2) -> ProductReport:
    """Recompute the nine products of divisors with low-degree classes; a
    target without two-parameter classes, then one without the ring of
    Hilb^2(P^2), raises ValueError before any arithmetic."""
    datum = _check_ring(engine)
    expected = _closed_product_forms(datum, n1, n2)
    report = ProductReport(n1, n2)
    for (i, j), want in sorted(expected.items()):
        got = small_product(engine, i, j, n1, n2)
        report.entries.append(ProductCheck(i, j, got.first_mismatch(want), got, want))
    return report


def verify_relations(engine, n1: int = 4, n2: int = 2) -> RelationReport:
    """Evaluate the two cubic relations of the divisor subring.

    Products are expanded strictly left-to-right; both residuals must be the
    zero series.  The first relation:

        T1*T1*T1 - 9f^2 T1*T2*T2 + (9f^2 - 2f) T2*T2*T2 - q1q2(q1 - 1) = 0

    and the second:

        (1-18f) T2*T2*T2 - 3(1-6f) T1*T2*T2 + 6 T1*T1*T2 - q2(q1-1)^2 = 0.

    Each residual is one four-term ``_sum``, with T1*T1 computed once; the
    targets ``verify_product_table`` refuses raise its ValueError first."""
    datum = _check_ring(engine)
    f = f_series(n1, n2)
    f2 = ScalarSeries(n1, n2, {(a, 0): a - 1 for a in range(2, n1 + 1)})  # f*f
    c = ScalarSeries.constant(n1, n2, 1)
    p1 = ScalarSeries(n1, n2, {(1, 1): 1, (2, 1): -1})  # -q1q2(q1 - 1)
    p2 = ScalarSeries(n1, n2, {(0, 1): -1, (1, 1): 2, (2, 1): -1})  # -q2(q1-1)^2
    t11 = star(engine, 1, 1, n1, n2)
    t111, t112 = star(engine, t11, 1, n1, n2), star(engine, t11, 2, n1, n2)
    t122 = star(engine, star(engine, 1, 2, n1, n2), 2, n1, n2)
    t222 = star(engine, star(engine, 2, 2, n1, n2), 2, n1, n2)
    one = QSeries.from_vector(datum, n1, n2, 0)
    r1 = one._sum([(1, t111), (-9 * f2, t122), (9 * f2 - 2 * f, t222), (p1, one)])
    r2 = one._sum([(c - 18 * f, t222), (18 * f - 3 * c, t122), (6, t112), (p2, one)])
    return RelationReport(n1, n2, [r1, r2])
