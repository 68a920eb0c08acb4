"""Quantum-product tests: series arithmetic, the closed-form product table,
the cubic relations, the ring axioms at small truncation, and the bilinear
evaluation against the definition."""

import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter

import pytest

from hilb2gw import (
    Engine,
    QSeries,
    ScalarSeries,
    f_series,
    hilb_datum,
    small_product,
    star,
    verify_product_table,
    verify_relations,
)
from hilb2gw.chow import TargetDatum, p2_datum
from hilb2gw.quantum import ProductCheck, ProductReport, RelationReport
from hilb2gw.rationals import Rat

from properties_util import rescaled_hilb_datum


# ----------------------------------------------------------------------
# scalar series
# ----------------------------------------------------------------------


def test_f_series_expansion():
    f = f_series(3)
    assert f.coefficient(1, 0) == 1
    assert f.coefficient(2, 0) == 1
    assert f.coefficient(3, 0) == 1
    assert f.coefficient(0, 0) == 0
    assert f_series(0).is_zero()


def test_f_series_defining_identity():
    for n1 in (1, 2, 5):
        f = f_series(n1)
        one = ScalarSeries.constant(n1, 0, 1)
        q1 = ScalarSeries.monomial(n1, 0, 1, 0)
        assert (one - q1) * f == q1


def test_scalar_series_truncation():
    q1 = ScalarSeries.monomial(2, 1, 1, 0)
    cube = q1 * q1 * q1  # beyond the bound, dropped entirely
    assert cube.is_zero()
    q2 = ScalarSeries.monomial(2, 1, 0, 1)
    assert (q2 * q2).is_zero()
    assert (q1 * q2).coefficient(1, 1) == 1


def test_scalar_series_rejects_mixed_bounds():
    with pytest.raises(ValueError):
        ScalarSeries.monomial(2, 1, 1, 0) + ScalarSeries.monomial(3, 1, 1, 0)
    with pytest.raises(ValueError):
        ScalarSeries(-1, 0)


@pytest.mark.parametrize(
    "exps", [(0.5, 0), (0, 1.0), (True, 0), (0, False), (-1, 0), (0, -3), ("1", 0)]
)
def test_series_exponents_are_non_negative_ints(exps):
    """A fractional, bool, negative or non-int exponent raises ValueError;
    it is never stored, printed, dropped as if it were past the box, or read
    back as a coefficient."""
    datum = hilb_datum()
    with pytest.raises(ValueError, match="non-negative ints"):
        ScalarSeries(2, 2, {exps: 1})
    with pytest.raises(ValueError, match="non-negative ints"):
        ScalarSeries.monomial(2, 2, *exps)
    with pytest.raises(ValueError, match="non-negative ints"):
        QSeries(datum, 2, 2, {exps: datum.basis_vector(3)})
    with pytest.raises(ValueError, match="non-negative ints"):
        f_series(3, 1).coefficient(*exps)
    with pytest.raises(ValueError, match="non-negative ints"):
        QSeries.from_vector(datum, 2, 2, 3).coefficient(*exps)
    # in range or past the box, int exponents are accepted
    assert ScalarSeries(2, 2, {(3, 0): 1, (1, 2): 1}).coeffs == {(1, 2): 1}
    assert f_series(3, 1).coefficient(1, 0) == 1
    assert f_series(3, 1).coefficient(4, 0) == 0


@pytest.mark.parametrize(
    "coeffs",
    [{1: 1}, {(1, 2, 3): 1}, {(): 1}, {"ab": 1}, [((0, 0), 1)], [], ((0, 0),), 5],
)
def test_series_coefficients_must_be_a_dict_of_exponent_pairs(coeffs):
    """A key that is not a pair, or coefficients that are not a dict, raise
    ValueError with the gate's message, not a TypeError, an unpacking
    ValueError or an AttributeError."""
    datum = hilb_datum()
    match = "non-negative ints"
    with pytest.raises(ValueError, match=match):
        ScalarSeries(2, 2, coeffs)
    with pytest.raises(ValueError, match=match):
        QSeries(datum, 2, 2, coeffs)
    assert ScalarSeries(2, 2, {}).is_zero() and ScalarSeries(2, 2).is_zero()


@pytest.mark.parametrize("bad", ["x", p2_datum, {}])
def test_datum_gates_name_the_type(bad):
    """A QSeries or an Engine over anything but a TargetDatum raises
    ValueError naming its type when it is built, not an AttributeError
    when a later operation reads the datum."""
    match = f"must be a TargetDatum, got {type(bad).__name__}$"
    with pytest.raises(ValueError, match=match):
        QSeries(bad, 2, 2)
    with pytest.raises(ValueError, match=match):
        Engine(bad)


# ----------------------------------------------------------------------
# cohomology-valued series
# ----------------------------------------------------------------------


def test_qseries_drops_zero_and_out_of_range_coefficients():
    datum = hilb_datum()
    zero = (Rat(0),) * 9
    qs = QSeries(datum, 1, 1, {(0, 0): zero, (5, 0): datum.basis_vector(3)})
    assert qs.is_zero()


def test_qseries_scalar_embedding():
    datum = hilb_datum()
    s = ScalarSeries(2, 1, {(1, 1): Rat(2)})
    qs = QSeries.from_scalar(datum, s)
    assert qs.coefficient(1, 1)[0] == 2
    assert all(c == 0 for c in qs.coefficient(1, 1)[1:])


def test_series_reprs():
    """Terms print in increasing (a, b) order; the CLI prints a nonzero
    relation residual through this repr."""
    datum = hilb_datum()
    assert repr(ScalarSeries(2, 1)) == "0"
    s = ScalarSeries(2, 1, {(0, 0): 1, (1, 0): -2, (2, 1): Rat(1, 2), (0, 1): 3})
    assert repr(s) == "1 + 3*q2 + -2*q1 + 1/2*q1^2q2"
    assert repr(QSeries(datum, 2, 1)) == "QSeries(0)"
    qs = QSeries(
        datum,
        2,
        1,
        {
            (0, 0): (0, 0, 0, 1, 0, 2, 0, 0, 0),
            (1, 1): datum.basis_vector(0),
            (2, 0): (0,) * 8 + (Rat(-1, 3),),
        },
    )
    assert repr(qs) == (
        "QSeries(q1^0q2^0*(T3 + 2*T5) + q1^1q2^1*(T0) + q1^2q2^0*(-1/3*T8))"
    )


def test_qseries_rejects_mixed_bounds(engine):
    datum = engine.datum
    small = QSeries.from_vector(datum, 2, 1, 3)
    wide = QSeries.from_vector(datum, 3, 1, 3)
    for op in (
        lambda: small + wide,
        lambda: small - wide,
        lambda: small.scaled(f_series(3, 1)),
        lambda: small.first_mismatch(wide),
        lambda: star(engine, small, 2, 3, 1),
        lambda: star(engine, 2, small, 3, 1),
        lambda: star(engine, small, wide, 2, 1),
    ):
        with pytest.raises(ValueError, match="mismatched truncation bounds"):
            op()


def test_series_operands_are_gated_before_any_arithmetic(engine):
    """A scalar and a vector series, a bare number, or series of two targets
    never combine: ``+``, ``-``, ``first_mismatch`` and ``star`` raise
    ValueError naming what differs, and ``==`` is False."""
    hilb, p2 = hilb_datum(), p2_datum()
    scalar = ScalarSeries.constant(1, 1, 2)
    vector = QSeries.from_vector(hilb, 1, 1, 3)
    plane = QSeries.from_vector(p2, 1, 1, 1)
    kind = "cannot combine"
    for left, right, match in (
        (scalar, vector, kind),
        (vector, scalar, kind),
        (scalar, 1, kind),
        (vector, 1, kind),
        (plane, vector, "mismatched targets: p2 and hilb2p2"),
        (vector, plane, "mismatched targets: hilb2p2 and p2"),
    ):
        for op in (operator.add, operator.sub, lambda x, y: x.first_mismatch(y)):
            with pytest.raises(ValueError, match=match):
                op(left, right)
        assert left != right
    assert QSeries(hilb, 1, 1) != QSeries(p2, 1, 1)
    for left, right in ((plane, 1), (1, plane), (plane, plane)):
        with pytest.raises(ValueError, match="mismatched targets: hilb2p2 and p2"):
            star(engine, left, right, 1, 1)


def test_first_mismatch_is_the_lowest_differing_exponent():
    datum = hilb_datum()

    def series(coeffs):
        vectors = {k: datum.basis_vector(e) for k, e in coeffs.items()}
        return QSeries(datum, 3, 2, vectors)

    base = {(0, 0): 3, (1, 2): 4, (2, 0): 5, (3, 1): 6}
    left = series(base)
    assert left.first_mismatch(series(base)) is None
    assert series({}).first_mismatch(series({})) is None
    for change, want in (
        ({(1, 2): 0}, (1, 2)),  # a term missing on the right
        ({(3, 1): 7}, (3, 1)),
        ({(0, 1): 8}, (0, 1)),  # a term missing on the left
        ({(0, 0): 8, (3, 1): 7}, (0, 0)),
    ):
        other = {k: e for k, e in {**base, **change}.items() if e}
        assert left.first_mismatch(series(other)) == want, change
        assert series(other).first_mismatch(left) == want, change


# ----------------------------------------------------------------------
# the product itself
# ----------------------------------------------------------------------


def test_constant_term_is_cup(engine):
    datum = engine.datum
    for e in range(9):
        for f in range(e, 9):
            prod = small_product(engine, e, f, 1, 1)
            assert prod.coefficient(0, 0) == datum.cup_table[e][f], (e, f)


def test_quoted_product_examples(engine):
    datum = engine.datum
    # T1 * T3 = 3f T7 + q1q2 + 2 q1^2 q2
    prod = small_product(engine, 1, 3, 4, 2)
    for a in range(1, 5):
        vec = prod.coefficient(a, 0)
        assert vec[7] == 3, a  # divisor-axiom tail: 3 for every a >= 1
        assert all(c == 0 for i, c in enumerate(vec) if i != 7)
    assert prod.coefficient(1, 1) == datum.basis_vector(0)
    assert prod.coefficient(2, 1) == tuple(
        2 * c for c in datum.basis_vector(0)
    )
    assert prod.coefficient(3, 1) == (Rat(0),) * 9
    # T2 * T5 = T6 + 2 T7 + q2 + q1 q2
    prod = small_product(engine, 2, 5, 4, 2)
    want00 = [Rat(0)] * 9
    want00[6], want00[7] = Rat(1), Rat(2)
    assert prod.coefficient(0, 0) == tuple(want00)
    assert prod.coefficient(0, 1) == datum.basis_vector(0)
    assert prod.coefficient(1, 1) == datum.basis_vector(0)
    assert prod.coefficient(2, 1) == (Rat(0),) * 9


def test_product_table_at_default_truncation(engine):
    report = verify_product_table(engine, 4, 2)
    assert report.passed, [
        (e.name, e.first_mismatch) for e in report.entries if not e.passed
    ]
    assert len(report.entries) == 9


def test_product_table_at_wider_truncation(engine):
    report = verify_product_table(engine, 5, 2)
    assert report.passed


def test_relations_hold(engine):
    report = verify_relations(engine, 4, 2)
    assert report.passed
    assert len(report.residuals) == 2
    for residual in report.residuals:
        assert residual.is_zero()


def test_report_construction():
    datum = hilb_datum()
    zero = QSeries(datum, 2, 1)
    one = QSeries.from_vector(datum, 2, 1, 0)
    for report, box in (
        (ProductReport(2, 1), "entries"),
        (RelationReport(2, 1), "residuals"),
    ):
        other = type(report)(2, 1)
        getattr(report, box).append(None)
        assert getattr(other, box) == []
    check = ProductCheck(1, 2, (0, 1), one, zero)
    assert (check.name, check.passed, check.first_mismatch) == ("T1*T2", False, (0, 1))
    assert (check.computed, check.expected) == (one, zero)
    products = ProductReport(2, 1, [check])
    assert (products.n1, products.n2, products.entries) == (2, 1, [check])
    assert not products.passed
    relations = RelationReport(2, 1, [zero, one])
    assert (relations.n1, relations.n2, relations.residuals) == (2, 1, [zero, one])
    assert not relations.passed
    assert RelationReport(2, 1, [zero]).passed


def test_relation_two_reduces_classically(engine):
    """At order q^0 the second relation is the cubic ring relation."""
    datum = engine.datum
    t112 = star(engine, star(engine, 1, 1, 0, 0), 2, 0, 0)
    t122 = star(engine, star(engine, 1, 2, 0, 0), 2, 0, 0)
    t222 = star(engine, star(engine, 2, 2, 0, 0), 2, 0, 0)
    combo = t222 - t122.scaled(3) + t112.scaled(6)
    assert combo.is_zero()
    assert not t222.is_zero()
    assert datum.cup(
        datum.cup(datum.basis_vector(2), datum.basis_vector(2)),
        datum.basis_vector(2),
    ) == t222.coefficient(0, 0)


def test_quantum_commutativity(engine):
    for e in range(9):
        for f in range(e + 1, 9):
            assert small_product(engine, e, f, 2, 1) == small_product(
                engine, f, e, 2, 1
            ), (e, f)


def test_quantum_associativity_small_bounds(engine):
    n1, n2 = 3, 2
    cache = {}

    def prod(x, y):
        if isinstance(x, int) and isinstance(y, int):
            key = (x, y) if x <= y else (y, x)
            if key not in cache:
                cache[key] = star(engine, key[0], key[1], n1, n2)
            return cache[key]
        return star(engine, x, y, n1, n2)

    for i in range(9):
        for j in range(i, 9):
            ij = prod(i, j)
            for k in range(j, 9):
                jk = prod(j, k)
                assert prod(ij, k) == prod(i, jk), (i, j, k)


def test_unit_acts_trivially(engine):
    for e in range(9):
        prod = small_product(engine, 0, e, 3, 2)
        assert prod == QSeries.from_vector(engine.datum, 3, 2, e), e


# ----------------------------------------------------------------------
# input boundary
# ----------------------------------------------------------------------


_BAD_OPERANDS = [
    9,
    -1,
    True,
    False,
    1.0,
    "1",
    None,
    (0,) * 8,
    (0,) * 10,
    (1.0,) + (0,) * 8,
    ("1",) + (0,) * 8,
    (True,) + (0,) * 8,
]


@pytest.mark.parametrize("bad", _BAD_OPERANDS)
def test_small_product_rejects_bad_operands(engine, bad):
    with pytest.raises(ValueError):
        small_product(engine, bad, 1, 1, 1)
    with pytest.raises(ValueError):
        small_product(engine, 1, bad, 1, 1)


@pytest.mark.parametrize("bad", _BAD_OPERANDS)
def test_star_rejects_bad_operands(engine, bad):
    with pytest.raises(ValueError):
        star(engine, bad, 2, 1, 1)


def test_three_point_row_validates_on_a_miss():
    """Also on a hit: 1.0 and True equal 1, so they would find its row."""
    eng = Engine()
    with pytest.raises(ValueError):
        eng.three_point_row((0, 0), 1, 3)
    assert eng.three_point_row([1, 1], 1, 3) == eng.three_point_row((1, 1), 3, 1)
    for bad in (9, -1, 1.0, True, "1", None):
        with pytest.raises(ValueError):
            eng.three_point_row((1, 1), 3, bad)
        with pytest.raises(ValueError):
            eng.three_point_row((1, 1), bad, 3)
    assert eng.three_point_row((1, 1), 8, 1) == eng.three_point_row((1, 1), 1, 8)


# ----------------------------------------------------------------------
# the bilinear evaluation against the definition
# ----------------------------------------------------------------------


def _is_normal(c) -> bool:
    return type(c) is int or (isinstance(c, Rat) and c.denominator != 1)


def _assert_normal_form(series):
    for vec in series.coeffs.values():
        assert all(_is_normal(c) for c in vec), vec


def _defined_product(engine, u, v, n1, n2, shift=(0, 0), out=None):
    """q^shift (u * v) truncated at (n1, n2), straight from the definition."""
    datum = engine.datum
    out = {} if out is None else out
    for a in range(n1 - shift[0] + 1):
        for b in range(n2 - shift[1] + 1):
            if (a, b) == (0, 0):
                vec = list(datum.cup(u, v))
            else:
                vec = [Rat(0)] * datum.basis_size
                for i in range(datum.basis_size):
                    vec[datum.top - i] += engine.invariant((a, b), [u, v, i])
            k = (a + shift[0], b + shift[1])
            old = out.get(k, [Rat(0)] * datum.basis_size)
            out[k] = [x + y for x, y in zip(old, vec)]
    return out


def _random_vector(rng, size):
    """A sparse rational vector with at least one true fraction."""
    vec = [Rat(0)] * size
    for e in rng.sample(range(size), 3):
        vec[e] = Rat(rng.randint(-4, 4) or 1, rng.choice((1, 1, 2, 3)))
    vec[rng.randrange(size)] = Rat(rng.choice((1, -1)), rng.choice((2, 3, 5)))
    return tuple(vec)


def test_small_product_matches_definition():
    eng = Engine()
    datum = eng.datum
    rng = random.Random(20261018)
    n1, n2 = 3, 2
    for _ in range(4):
        u = _random_vector(rng, datum.basis_size)
        v = _random_vector(rng, datum.basis_size)
        assert any(c.denominator != 1 for c in u + v)
        want = QSeries(datum, n1, n2, _defined_product(eng, u, v, n1, n2))
        got = small_product(eng, u, v, n1, n2)
        assert got == want
        assert got == small_product(eng, list(u), list(v), n1, n2)
        assert star(eng, u, v, n1, n2) == want
        _assert_normal_form(got)


def test_star_of_series_matches_definition():
    eng = Engine()
    datum = eng.datum
    rng = random.Random(7)
    n1, n2 = 3, 2

    def series():
        keys = rng.sample([(a, b) for a in range(n1 + 1) for b in range(n2 + 1)], 3)
        return QSeries(
            datum, n1, n2, {k: _random_vector(rng, datum.basis_size) for k in keys}
        )

    for _ in range(3):
        left, right = series(), series()
        want: dict = {}
        for k1, u in left.coeffs.items():
            for k2, v in right.coeffs.items():
                shift = (k1[0] + k2[0], k1[1] + k2[1])
                if shift[0] <= n1 and shift[1] <= n2:
                    _defined_product(eng, u, v, n1, n2, shift, want)
        got = star(eng, left, right, n1, n2)
        assert got == QSeries(datum, n1, n2, want)
        _assert_normal_form(got)


def test_star_truncates_at_the_box_edge():
    """Terms landing exactly on a = n1 or b = n2 are kept, those one past
    them dropped: coefficients at the edges of the (12, 2) box, against a
    constant and against themselves, match the definition.  T1 has a
    nonzero row at every (a, 0) and T6 at (a, 2) for small a, so dropping
    the last a or b of a row walk changes the product."""
    eng = Engine()
    datum = eng.datum
    n1, n2 = 12, 2
    t1, t6 = datum.basis_vector(1), datum.basis_vector(6)
    series = QSeries(
        datum,
        n1,
        n2,
        {
            (0, 0): tuple(x + y for x, y in zip(t1, t6)),
            (5, 1): t1,
            (12, 0): datum.basis_vector(3),
            (3, 2): datum.basis_vector(4),
        },
    )
    constant = QSeries.from_vector(datum, n1, n2, 7)
    for right in (constant, series):
        want: dict = {}
        for k1, u in series.coeffs.items():
            for k2, v in right.coeffs.items():
                shift = (k1[0] + k2[0], k1[1] + k2[1])
                if shift[0] <= n1 and shift[1] <= n2:
                    _defined_product(eng, u, v, n1, n2, shift, want)
        assert star(eng, series, right, n1, n2) == QSeries(datum, n1, n2, want)


@pytest.mark.parametrize("g", [1, 3])
def test_long_dense_series_times_a_basis_class_matches_definition(g):
    """A T1*T1-like series at (20, 2), with a term at every a = 0..20 and
    one true fraction, times a basis class matches the definition: each
    weight meets each q1-slice of the box, and the walk stops exactly at
    the last a inside the truncation."""
    eng = Engine()
    datum = eng.datum
    n1, n2 = 20, 2
    coeffs = {}
    for a in range(n1 + 1):
        vec = [0] * datum.basis_size
        vec[3], vec[5] = (-1) ** a * (a + 1), 3
        coeffs[(a, 0)] = tuple(vec)
    coeffs[(7, 0)] = coeffs[(7, 0)][:3] + (Rat(1, 3),) + coeffs[(7, 0)][4:]
    coeffs[(1, 1)] = datum.basis_vector(0)
    coeffs[(2, 1)] = tuple(2 * c for c in datum.basis_vector(0))
    coeffs[(5, 2)] = datum.basis_vector(4)
    series = QSeries(datum, n1, n2, coeffs)
    assert isinstance(series.coefficient(7, 0)[3], Rat)
    want: dict = {}
    for (a, b), u in series.coeffs.items():
        _defined_product(eng, u, datum.basis_vector(g), n1, n2, (a, b), want)
    got = star(eng, series, g, n1, n2)
    assert got == QSeries(datum, n1, n2, want)
    assert got.coefficient(n1, 0) != (0,) * datum.basis_size
    _assert_normal_form(got)


def test_qcoh_resolves_each_three_point_row_once(monkeypatch):
    """The product table and the relations ask for each (cls, x, y) row at
    most once on one engine: each basis pair's nonempty rows are collected
    once per truncation, not once per operand pair and class."""
    calls = Counter()
    original = Engine._row

    def counted(self, cls, x, y):
        calls[(cls, x, y)] += 1
        return original(self, cls, x, y)

    monkeypatch.setattr(Engine, "_row", counted)
    eng = Engine()
    assert verify_product_table(eng, 20, 2).passed
    assert verify_relations(eng, 20, 2).passed
    assert calls
    assert max(calls.values()) == 1


def _typed_box(box):
    """A box with the type of each value next to it, for type-exact ==."""
    return [(b, j, [(a, type(v), v) for a, v in s]) for b, j, s in box]


def test_box_rows_match_rows_built_from_invariants():
    """At (6, 3) every basis pair's box on a cold engine holds exactly the
    cup product ``TargetDatum.cup_table`` as its degree-0 row and the
    nonempty rows that a second cold engine builds from ``invariant`` over
    every class (a, b) != (0, 0) and every third index, laid out as
    q1-slices (b, j, ((a, value), ...)) sorted by a, the slices by (b, j):
    the box skips no class with a nonzero row, and each row shared by the
    pairs of one non-divisor part is scaled by the right divisor
    multipliers."""
    n1, n2 = 6, 3
    eng, ref = Engine(), Engine()
    datum = eng.datum
    classes = [(a, b) for a in range(n1 + 1) for b in range(n2 + 1) if a or b]
    nonempty = 0
    for x in range(datum.basis_size):
        for y in range(x, datum.basis_size):
            cup = datum.cup_table[x][y]
            slices = {(0, j): [(0, c)] for j, c in enumerate(cup) if c}
            rows = set()
            for a, b in classes:
                for i in range(datum.basis_size):
                    val = ref.invariant((a, b), [x, y, i])
                    if val:
                        slices.setdefault((b, datum.top - i), []).append((a, val))
                        rows.add((a, b))
            want = [(b, j, tuple(s)) for (b, j), s in sorted(slices.items())]
            assert _typed_box(eng._box_rows(x, y, n1, n2)) == _typed_box(want), (x, y)
            nonempty += len(rows)
    assert nonempty == 100


def test_qcoh_stores_no_key_of_a_declared_zero_class():
    """The rows skip the classes the datum declares zero, (a, 1) with
    a > 2 on Hilb^2, so after ``qcoh`` at (80, 2) the memo holds none of
    their keys; ``three_point_row`` gives such a class the empty row
    without storing one either."""
    eng = Engine()
    assert verify_product_table(eng, 80, 2).passed
    assert verify_relations(eng, 80, 2).passed
    assert eng.three_point_row((3, 1), 3, 8) == ()
    zero_class = eng.datum.zero_class
    assert zero_class((3, 1))
    assert len(eng.memo) and not [
        key for key, _v in eng.memo.items() if zero_class(key[0])
    ]


def test_a_far_truncation_lists_only_the_classes_a_row_can_use():
    """A box lists only the classes whose budget can leave a row weight:
    on Hilb^2 (-K = (0, 3)) b <= 2, on P^1 x P^1 (-K = (2, 2)) a + b <= 2.
    So a product truncated at q2^(10^5) lists 12 classes on Hilb^2, not
    500,000, stays under 5 MB of traced allocations, and equals the
    product truncated at q2^2."""
    eng = Engine()
    tracemalloc.start()
    try:
        far = small_product(eng, 1, 1, 4, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert sum(map(len, eng._box_classes[(4, 10**5)].values())) == 12
    assert far.coeffs == small_product(Engine(), 1, 1, 4, 2).coeffs
    quadric = Engine(_quadric_datum())
    pt = small_product(quadric, 3, 3, 4, 10**5)
    assert pt.coeffs == {(1, 1): quadric.datum.basis_vector(0)}
    listed = sorted(c for cs in quadric._box_classes[(4, 10**5)].values() for c in cs)
    assert listed == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_a_sparse_product_under_a_long_q1_truncation_stays_small():
    """``star`` sizes each output's dense list by the largest a its slices
    and weights reach, not by n1: on P^1 x P^1, pt * pt = q1q2 truncated at
    q1^(10^6) allocates no list of 10^6 cells, so it stays under 1 MB of
    traced allocations, and equals the product truncated at q1^3."""
    quadric = Engine(_quadric_datum())
    tracemalloc.start()
    try:
        far = small_product(quadric, 3, 3, 10**6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert far.coeffs == {(1, 1): quadric.datum.basis_vector(0)}
    assert far.coeffs == small_product(Engine(_quadric_datum()), 3, 3, 3, 2).coeffs
    assert peak < 2**20


def test_box_classes_are_grouped_by_budget_without_caching_budgets():
    """``_list_box_classes`` groups each class by the budget its own loop
    forms, k1 * a + k2 * b plus the budget of (0, 0): on Hilb^2, on
    P^1 x P^1 and on the P^1 x P^1 ring under the anticanonical classes
    (2, -1) and (-1, 2), whose negative entry bounds no loop, the groups
    equal a brute-force filter of every (a, b) != (0, 0) with a <= n1 and
    b <= n2, not declared zero, whose budget a row's three weights can
    fill, grouped by ``TargetDatum.weight_budget``.  Listing a truncation
    on a cold engine adds no entry to the engine's ``_budgets``."""
    quadric = _quadric_datum()
    data = [hilb_datum(), quadric] + [
        TargetDatum(
            name="p1xp1",
            codims=quadric.codims,
            cup_table=quadric.cup_table,
            anticanonical=k,
            base_case=quadric.base_case,
        )
        for k in ((2, -1), (-1, 2))
    ]
    for datum in data:
        # a row's weights: two of any index, the third of positive codim
        top = 2 * max(datum.weights) + max(
            w for w, c in zip(datum.weights, datum.codims) if c
        )
        for n1, n2 in ((80, 2), (7, 12)):
            eng = Engine(datum)
            groups = eng._list_box_classes(n1, n2)
            assert not eng._budgets
            want: dict = {}
            for cls in itertools.product(range(n1 + 1), range(n2 + 1)):
                budget = datum.weight_budget(cls)
                if any(cls) and not datum.zero_class(cls) and budget <= top:
                    want.setdefault(budget, []).append(cls)
            assert sum(map(len, want.values())) >= 5
            assert groups == want, (datum.anticanonical, n1, n2)


@pytest.mark.parametrize("n1, n2, entries", [(80, 2, 247), (6, 4, 25)])
def test_qcoh_leaves_the_pinned_memo(n1, n2, entries):
    """On one cold engine the product table and then the relations leave
    exactly this many memo entries: the rows resolve only keys that can be
    nonzero, and the pairs of one non-divisor part share them."""
    eng = Engine()
    assert verify_product_table(eng, n1, n2).passed
    assert verify_relations(eng, n1, n2).passed
    assert len(eng.memo) == entries


def test_quantum_calls_on_the_plane_name_the_target():
    """The product table, the relations and a single product on the plane
    all raise the documented ValueError, the table before it builds its
    closed forms (whose basis indices the plane lacks)."""
    eng = Engine(p2_datum())
    calls = (verify_product_table, verify_relations, small_product)
    for call in calls:
        args = (1, 1, 2, 1) if call is small_product else (2, 1)
        with pytest.raises(
            ValueError,
            match="^the quantum product is defined for the two-parameter "
            "target only$",
        ):
            call(eng, *args)


def test_star_on_the_plane_target_raises_and_caches_no_class():
    """The quantum product's classes (a, b) exist on the two-parameter
    target only: on the plane ``star`` raises ValueError instead of
    returning the classical product, and the engine keeps no budget of a
    class of the wrong rank, so ``value_of`` still refuses a key of one."""
    eng = Engine(p2_datum())
    with pytest.raises(ValueError, match="two-parameter"):
        star(eng, 1, 1, 2, 1)
    assert not eng._budgets
    with pytest.raises(ValueError, match="not effective"):
        eng.value_of(((1, 0), (2, 2)))


def test_series_coefficients_are_in_normal_form(engine):
    report = verify_product_table(engine, 4, 2)
    for entry in report.entries:
        _assert_normal_form(entry.computed)
        _assert_normal_form(entry.expected)
    half = QSeries.from_vector(engine.datum, 1, 1, (Rat(1, 2),) * 9)
    _assert_normal_form(half.scaled(2))
    _assert_normal_form(half.scaled(f_series(1, 1)))
    assert all(type(c) is int for c in f_series(3, 1).coeffs.values())


def test_product_table_makes_no_invariant_calls(monkeypatch):
    """The products contract cached rows: nothing is re-expanded per term."""
    calls = {"invariant": 0, "normalize": 0}
    for name in calls:
        original = getattr(Engine, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Engine, name, counted)
    eng = Engine()
    assert verify_product_table(eng, 4, 2).passed
    assert verify_relations(eng, 4, 2).passed
    assert calls == {"invariant": 0, "normalize": 0}


# ----------------------------------------------------------------------
# the series arithmetic against a naive reference
# ----------------------------------------------------------------------


def _naive_like(series, coeffs):
    """A series of the kind and bounds of ``series`` from ``coeffs``, through
    the public constructor and its full gate."""
    if isinstance(series, QSeries):
        return QSeries(series.datum, series.n1, series.n2, coeffs)
    return ScalarSeries(series.n1, series.n2, coeffs)


def _naive_terms(series):
    """Each coefficient of ``series`` as a function of the exact scalar it
    is multiplied by, and the matching sum of two such products."""
    if isinstance(series, QSeries):
        return (lambda v, c: tuple(x * c for x in v)), (
            lambda u, v: tuple(map(operator.add, u, v))
        )
    return operator.mul, operator.add


def _naive_scaled(series, s):
    """``series`` times an exact scalar or a ScalarSeries: every pair of
    terms convolved, a scalar taken as a constant series."""
    if not isinstance(s, ScalarSeries):
        s = ScalarSeries.constant(series.n1, series.n2, s)
    scale, add = _naive_terms(series)
    out: dict = {}
    for (a1, b1), v in series.coeffs.items():
        for (a2, b2), c in s.coeffs.items():
            k = (a1 + a2, b1 + b2)
            if k[0] <= series.n1 and k[1] <= series.n2:
                out[k] = add(out[k], scale(v, c)) if k in out else scale(v, c)
    return _naive_like(series, out)


def _naive_add(left, right):
    _scale, add = _naive_terms(left)
    out = dict(left.coeffs)
    for k, c in right.coeffs.items():
        out[k] = add(out[k], c) if k in out else c
    return _naive_like(left, out)


def _naive_star(ref, left, right):
    """Each pair of coefficients contracted entry by entry at its offset:
    the cup table, and at each class (a, b) of the box left past the
    offset the row built from ``Engine.invariant`` on ``ref``, a second
    engine, over every third basis index, not from the engine's own row
    builder; the sum built through the public constructor."""
    datum = ref.datum
    n1, n2 = left.n1, left.n2

    @functools.cache
    def row(cls, x, y):
        vals = [ref.invariant(cls, [x, y, i]) for i in range(datum.basis_size)]
        return [(datum.top - i, v) for i, v in enumerate(vals) if v]

    out: dict = {}

    def add(k, j, c):
        out.setdefault(k, [0] * datum.basis_size)[j] += c

    for (a1, b1), u in left.coeffs.items():
        for (a2, b2), v in right.coeffs.items():
            a0, b0 = a1 + a2, b1 + b2
            if a0 > n1 or b0 > n2:
                continue
            for x, cx in enumerate(u):
                for y, cy in enumerate(v):
                    if not (cx and cy):
                        continue
                    for m, cm in enumerate(datum.cup_table[x][y]):
                        add((a0, b0), m, cx * cy * cm)
                    for a in range(n1 - a0 + 1):
                        for b in range(n2 - b0 + 1):
                            if a or b:
                                for j, val in row((a, b), x, y):
                                    add((a0 + a, b0 + b), j, cx * cy * val)
    return _naive_like(left, out)


def _entries(c) -> tuple:
    """A coefficient of either kind as a tuple of exact scalars."""
    return c if isinstance(c, tuple) else (c,)


def _assert_series_normal(series):
    """Normal form: keys inside the box, no zero coefficient, no integral
    Fraction."""
    for (a, b), c in series.coeffs.items():
        assert 0 <= a <= series.n1 and 0 <= b <= series.n2, (a, b)
        assert any(_entries(c)) and all(map(_is_normal, _entries(c))), ((a, b), c)


def test_series_arithmetic_matches_a_naive_reference():
    """``+``, ``-``, unary ``-``, ``scaled`` by a scalar and by a
    ScalarSeries, ``*`` and ``star`` give the series of the pairwise
    convolution built through the gated constructor, in normal form.  The
    operands at (6, 2) have rational coefficients; each also meets its
    integral complement (a sum of fractions that are ints) and its own
    negative (a sum that is zero).  ``star`` is checked against rows built
    from ``invariant`` on a second cold engine."""
    eng, ref = Engine(), Engine()
    datum = eng.datum
    rng = random.Random(20261020)
    n1, n2 = 6, 2
    keys = [(a, b) for a in range(n1 + 1) for b in range(n2 + 1)]

    def scalar():
        return Rat(rng.randint(-3, 3), rng.choice((1, 2, 3, 4)))

    def vector():
        vec = [0] * datum.basis_size
        for e in rng.sample(range(datum.basis_size), 3):
            vec[e] = scalar()
        return tuple(vec)

    def complement(c):
        """An exact value that sums with ``c`` to an int."""
        if isinstance(c, tuple):
            return tuple(rng.randint(-2, 2) - x for x in c)
        return rng.randint(-2, 2) - c

    def operands(make, build, whole):
        """A left operand with a true fraction, and right operands: a random
        one, an integral complement (with int terms of its own), the left
        operand's negative, and the left operand itself."""
        left = build({k: make() for k in rng.sample(keys, 5)})
        right = build({k: make() for k in rng.sample(keys, 4)})
        comp = {k: complement(c) for k, c in left.coeffs.items()}
        comp = build({k: whole() for k in rng.sample(keys, 2)} | comp)
        assert any(type(x) is Rat for c in left.coeffs.values() for x in _entries(c))
        total = [x for c in _naive_add(left, comp).coeffs.values() for x in _entries(c)]
        assert total and all(type(x) is int for x in total)
        int_sums.append(len(total))
        return left, [right, comp, _naive_scaled(left, -1), left]

    def cases():
        for _ in range(6):
            x, others = operands(
                scalar,
                lambda c: ScalarSeries(n1, n2, c),
                lambda: rng.randint(1, 3),
            )
            for y in others:
                yield x + y, _naive_add(x, y)
                yield x - y, _naive_add(x, _naive_scaled(y, -1))
                yield x * y, _naive_scaled(x, y)
                yield y.scaled(x), _naive_scaled(y, x)
            yield -x, _naive_scaled(x, -1)
            for c in (0, 1, -2, Rat(2, 3), Rat(-3, 2)):
                yield x.scaled(c), _naive_scaled(x, c)
                yield c * x, _naive_scaled(x, c)
            u, others = operands(
                vector,
                lambda c: QSeries(datum, n1, n2, c),
                lambda: datum.basis_vector(rng.randrange(datum.basis_size)),
            )
            for v in others:
                yield u + v, _naive_add(u, v)
                yield u - v, _naive_add(u, _naive_scaled(v, -1))
                yield u.scaled(x), _naive_scaled(u, x)
                yield star(eng, u, v, n1, n2), _naive_star(ref, u, v)
            yield -u, _naive_scaled(u, -1)
            for c in (0, 1, Rat(4, 3), Rat(-1, 2)):
                yield u.scaled(c), _naive_scaled(u, c)

    int_sums, seen = [], Counter()
    for got, want in cases():
        assert got == want
        _assert_series_normal(got)
        seen["zero" if got.is_zero() else "nonzero"] += 1
    assert seen["zero"] >= 24 and seen["nonzero"] >= 200, seen
    assert sum(int_sums) >= 100, int_sums


# ----------------------------------------------------------------------
# the verified series against their series-algebra expressions
# ----------------------------------------------------------------------


def _reference_forms(datum, n1, n2):
    """The nine closed forms written in the series algebra, every term its
    own series: the reference for the one-pass rows."""
    f = f_series(n1, n2)
    one = ScalarSeries.constant(n1, n2, 1)

    def basis(k):
        return QSeries.from_vector(datum, n1, n2, k)

    def mono(a, b, c=1):
        return QSeries.from_scalar(datum, ScalarSeries.monomial(n1, n2, a, b, c))

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


def _reference_residuals(engine, n1, n2):
    """The two relation residuals written in the series algebra, each
    triple product expanded left to right on its own."""
    datum = engine.datum
    f = f_series(n1, n2)
    one = ScalarSeries.constant(n1, n2, 1)
    q1 = ScalarSeries.monomial(n1, n2, 1, 0)
    q2 = ScalarSeries.monomial(n1, n2, 0, 1)

    def triple(a, b, c):
        return star(engine, star(engine, a, b, n1, n2), c, n1, n2)

    t111 = triple(1, 1, 1)
    t112 = triple(1, 1, 2)
    t122 = triple(1, 2, 2)
    t222 = triple(2, 2, 2)
    nine_f2 = 9 * f * f
    r1 = (
        t111
        - t122.scaled(nine_f2)
        + t222.scaled(nine_f2 - 2 * f)
        - QSeries.from_scalar(datum, q1 * q2 * (q1 - one))
    )
    r2 = (
        t222.scaled(one - 18 * f)
        - t122.scaled(3 * (one - 6 * f))
        + t112.scaled(6)
        - QSeries.from_scalar(datum, q2 * (q1 * q1 - 2 * q1 + one))
    )
    return [r1, r2]


def _assert_checks_match_reference(eng, n1, n2):
    products = verify_product_table(eng, n1, n2)
    want = _reference_forms(eng.datum, n1, n2)
    assert len(products.entries) == len(want) == 9
    for entry in products.entries:
        assert entry.expected == want[(entry.left, entry.right)], entry.name
        _assert_normal_form(entry.expected)
    relations = verify_relations(eng, n1, n2)
    assert relations.residuals == _reference_residuals(eng, n1, n2)
    return products, relations


@pytest.mark.parametrize("n1, n2", [(4, 2), (6, 4), (80, 2)])
def test_checked_series_equal_their_series_algebra(engine, n1, n2):
    """Each closed form summed from its row, and each residual summed from
    four terms, equals the series-algebra expression term by term."""
    products, relations = _assert_checks_match_reference(engine, n1, n2)
    assert products.passed and relations.passed


def test_failing_checks_equal_their_series_algebra():
    """With I_(1,0)(T3) = 4 instead of 3, T1*T1 and T1*T3 fail at q1^1 and
    both residuals are nonzero; the expected series and the residuals (whose
    repr ``qcoh`` prints) still equal their series-algebra expressions."""
    eng = Engine(rescaled_hilb_datum(4, ((1, 0), (3,))))
    products, relations = _assert_checks_match_reference(eng, 4, 2)
    assert [(e.name, e.first_mismatch) for e in products.entries if not e.passed] == [
        ("T1*T1", (1, 0)),
        ("T1*T3", (1, 0)),
    ]
    assert [repr(r) for r in relations.residuals] == [
        "QSeries(q1^1q2^0*(2*T6 + 2*T7) + q1^2q2^0*(-6*T7) + q1^2q2^1*(T0)"
        " + q1^3q2^0*(-6*T7) + q1^4q2^0*(-6*T7))",
        "QSeries(q1^1q2^0*(6*T6 + 12*T7) + q1^1q2^1*(6*T0) + q1^2q2^1*(6*T0))",
    ]


# ----------------------------------------------------------------------
# a second two-parameter target: P^1 x P^1
# ----------------------------------------------------------------------


def _quadric_datum():
    """P^1 x P^1: basis (1, H1, H2, pt) of codims (0, 1, 1, 2) with
    H1^2 = H2^2 = 0 and H1 H2 = pt, classes (a, b) of bidegree, -K = (2, 2),
    and one line of each ruling through a point as the base cases."""
    one, h1, h2, pt = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    zero = (0,) * 4
    table = (
        (one, h1, h2, pt),
        (h1, zero, pt, zero),
        (h2, pt, zero, zero),
        (pt, zero, zero, zero),
    )

    def base_case(cls, ins):
        return 1 if cls in ((1, 0), (0, 1)) and ins == (3,) else None

    return TargetDatum(
        name="p1xp1",
        codims=(0, 1, 1, 2),
        cup_table=table,
        anticanonical=(2, 2),
        base_case=base_case,
    )


def test_quadric_counts_are_symmetric_with_the_known_rows():
    """N_(a,b), the rational curves of bidegree (a, b) through 2a + 2b - 1
    points, is symmetric in a and b, is 1 on the row a = 1 and vanishes at
    (a, 0) for a >= 2: a generic engine run with neither a declared zero
    class nor a base divisor."""
    eng = Engine(_quadric_datum())

    def count(a, b):
        return eng.invariant((a, b), [3] * (2 * a + 2 * b - 1))

    for a in range(5):
        for b in range(5):
            if a or b:
                assert count(a, b) == count(b, a), (a, b)
    assert [count(1, b) for b in range(5)] == [1] * 5
    assert [count(a, 0) for a in range(2, 5)] == [0] * 3


def _quadric_counts(top: int) -> dict:
    """N_(a,b) of P^1 x P^1 for a, b <= top by the Kontsevich-Manin
    recursion (Comm. Math. Phys. 164, 1994), written from the potential,
    not from a table.

    With Phi = sum_beta N_beta e^(a t1 + b t2) t3^n / n!, n = 2a + 2b - 1,
    t1, t2 the rulings H1, H2 (H1 H2 = pt) and t3 the point class, the
    associativity equation of (H1, H1; H2, H2) reads
    Phi_111 Phi_222 + Phi_112 Phi_122 = 2 Phi_123 + 2 Phi_112 Phi_122, the
    2 Phi_123 from the classical terms t0^2 t3 / 2 + t0 t1 t2.  Its
    coefficient of e^(beta.t) t3^(n-1) / (n-1)! gives, for a, b >= 1,

        2ab N_(a,b) = sum N_(a1,b1) N_(a2,b2) C(n - 1, n1) a1^2 b2^2 (a1 b2 - a2 b1)

    over the splits (a1, b1) + (a2, b2) = (a, b) into nonzero classes, with
    n1 = 2a1 + 2b1 - 1.  On the boundary, N_(1,0) = N_(0,1) = 1 (the ruling
    through one point) and N_(a,0) = N_(0,a) = 0 for a >= 2 (a multiple
    cover of a ruling meets no 2a - 1 >= 3 general points).  The classes
    are visited by a + b, so every split's two sides are known.
    """
    counts: dict = {}
    for a, b in sorted(
        ((a, b) for a in range(top + 1) for b in range(top + 1) if a or b),
        key=sum,
    ):
        if a == 0 or b == 0:
            counts[(a, b)] = int(a + b == 1)
            continue
        n = 2 * a + 2 * b - 1
        total = 0
        for (a1, b1), n_1 in counts.items():
            a2, b2 = a - a1, b - b1
            if a2 >= 0 and b2 >= 0 and (a2 or b2):
                total += (
                    n_1
                    * counts[(a2, b2)]
                    * math.comb(n - 1, 2 * a1 + 2 * b1 - 1)
                    * a1**2
                    * b2**2
                    * (a1 * b2 - a2 * b1)
                )
        counts[(a, b)], rest = divmod(total, 2 * a * b)
        assert not rest, (a, b)
    return counts


def test_quadric_counts_follow_the_kontsevich_manin_recursion():
    """Every N_(a,b) with a, b <= 5, (a, b) != (0, 0), from the generic
    engine on P^1 x P^1 equals the recursion of ``_quadric_counts``."""
    eng = Engine(_quadric_datum())
    want = _quadric_counts(5)
    assert len(want) == 35 and want[(2, 2)] > 1  # not trivially 0 or 1
    for (a, b), count in want.items():
        got = eng.invariant((a, b), [3] * (2 * a + 2 * b - 1))
        assert got == count, (a, b)


def test_quadric_small_quantum_ring():
    """The small quantum ring of P^1 x P^1 is Q[H1, H2, q1, q2]/(H1^2 - q1,
    H2^2 - q2): H1*H1 = q1, H2*H2 = q2, H1*H2 = pt and pt*pt = q1q2."""
    datum = _quadric_datum()
    eng = Engine(datum)
    one, pt = datum.basis_vector(0), datum.basis_vector(3)
    for x, y, want in (
        (1, 1, {(1, 0): one}),
        (2, 2, {(0, 1): one}),
        (1, 2, {(0, 0): pt}),
        (3, 3, {(1, 1): one}),
    ):
        assert small_product(eng, x, y, 3, 3) == QSeries(datum, 3, 3, want), (x, y)


@pytest.mark.parametrize("verify", [verify_product_table, verify_relations])
def test_verifiers_refuse_another_two_parameter_target(verify):
    """The closed forms are those of Hilb^2(P^2): on P^1 x P^1 both
    verifiers raise ValueError naming the target before any arithmetic,
    so the engine resolves nothing."""
    eng = Engine(_quadric_datum())
    with pytest.raises(
        ValueError, match="^the closed forms are those of hilb2p2, not of p1xp1$"
    ):
        verify(eng, 3, 3)
    assert not len(eng.memo) and not eng._budgets
