"""Quantum-product tests: series arithmetic, the closed-form product table,
the cubic relations, the ring axioms at small truncation, and the bilinear
evaluation against the definition."""

import operator
import random
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
from hilb2gw.chow import p2_datum
from hilb2gw.quantum import ProductCheck, ProductReport, RelationReport
from hilb2gw.rationals import Rat, rat


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
    it is never stored, printed or dropped as if it were past the box."""
    datum = hilb_datum()
    with pytest.raises(ValueError, match="non-negative ints"):
        ScalarSeries(2, 2, {exps: 1})
    with pytest.raises(ValueError, match="non-negative ints"):
        ScalarSeries.monomial(2, 2, *exps)
    with pytest.raises(ValueError, match="non-negative ints"):
        QSeries(datum, 2, 2, {exps: datum.basis_vector(3)})
    # in range or past the box, int exponents are accepted
    assert ScalarSeries(2, 2, {(3, 0): 1, (1, 2): 1}).coeffs == {(1, 2): 1}


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


# ----------------------------------------------------------------------
# cohomology-valued series
# ----------------------------------------------------------------------


def test_qseries_drops_zero_and_out_of_range_coefficients():
    datum = hilb_datum()
    zero = (rat(0),) * 9
    qs = QSeries(datum, 1, 1, {(0, 0): zero, (5, 0): datum.basis_vector(3)})
    assert qs.is_zero()


def test_qseries_scalar_embedding():
    datum = hilb_datum()
    s = ScalarSeries(2, 1, {(1, 1): rat(2)})
    qs = QSeries.from_scalar(datum, s)
    assert qs.coefficient(1, 1)[0] == 2
    assert all(c == 0 for c in qs.coefficient(1, 1)[1:])


def test_series_reprs():
    """Terms print in increasing (a, b) order; the CLI prints a nonzero
    relation residual through this repr."""
    datum = hilb_datum()
    assert repr(ScalarSeries(2, 1)) == "0"
    s = ScalarSeries(2, 1, {(0, 0): 1, (1, 0): -2, (2, 1): rat(1, 2), (0, 1): 3})
    assert repr(s) == "1 + 3*q2 + -2*q1 + 1/2*q1^2q2"
    assert repr(QSeries(datum, 2, 1)) == "QSeries(0)"
    qs = QSeries(
        datum,
        2,
        1,
        {
            (0, 0): (0, 0, 0, 1, 0, 2, 0, 0, 0),
            (1, 1): datum.basis_vector(0),
            (2, 0): (0,) * 8 + (rat(-1, 3),),
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
            assert prod.coefficient(0, 0) == datum.cup_basis(e, f), (e, f)


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
    assert prod.coefficient(3, 1) == (rat(0),) * 9
    # T2 * T5 = T6 + 2 T7 + q2 + q1 q2
    prod = small_product(engine, 2, 5, 4, 2)
    want00 = [rat(0)] * 9
    want00[6], want00[7] = rat(1), rat(2)
    assert prod.coefficient(0, 0) == tuple(want00)
    assert prod.coefficient(0, 1) == datum.basis_vector(0)
    assert prod.coefficient(1, 1) == datum.basis_vector(0)
    assert prod.coefficient(2, 1) == (rat(0),) * 9


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
    check = ProductCheck(1, 2, False, (0, 1), one, zero)
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
                vec = [rat(0)] * datum.basis_size
                for i in range(datum.basis_size):
                    vec[datum.top - i] += engine.invariant((a, b), [u, v, i])
            k = (a + shift[0], b + shift[1])
            old = out.get(k, [rat(0)] * datum.basis_size)
            out[k] = [x + y for x, y in zip(old, vec)]
    return out


def _random_vector(rng, size):
    """A sparse rational vector with at least one true fraction."""
    vec = [rat(0)] * size
    for e in rng.sample(range(size), 3):
        vec[e] = rat(rng.randint(-4, 4) or 1, rng.choice((1, 1, 2, 3)))
    vec[rng.randrange(size)] = rat(rng.choice((1, -1)), rng.choice((2, 3, 5)))
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


def test_series_coefficients_are_in_normal_form(engine):
    report = verify_product_table(engine, 4, 2)
    for entry in report.entries:
        _assert_normal_form(entry.computed)
        _assert_normal_form(entry.expected)
    half = QSeries.from_vector(engine.datum, 1, 1, (rat(1, 2),) * 9)
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
