"""The exact-scalar normal form: ``int`` when integral, ``Rat`` otherwise,
and the one gate every scalar and integer argument passes at the package's
entry points."""

import fractions
from decimal import Decimal

import pytest

from hilb2gw import (
    QSeries,
    ScalarSeries,
    engine_nd,
    f_series,
    genus_to_class,
    hilb_datum,
    invariant_I,
    invert_counts,
    kontsevich_nd,
    small_product,
    star,
)
from hilb2gw.rationals import (
    Rat,
    ascii_int,
    binom,
    qdiv,
    qnorm,
    rat_from_parts,
    rat_str,
)


def is_normal(x) -> bool:
    return type(x) is int or (type(x) is Rat and x.denominator != 1)


class _Half(fractions.Fraction):
    """A ``numbers.Rational`` that is not a ``Fraction`` by type."""


def test_qnorm():
    assert Rat is fractions.Fraction
    assert qnorm(7) == 7 and type(qnorm(7)) is int
    assert qnorm(Rat(-12, 4)) == -3 and type(qnorm(Rat(-12, 4))) is int
    assert qnorm(Rat(3, 4)) == Rat(3, 4) and type(qnorm(Rat(3, 4))) is Rat
    assert qnorm(_Half(4, 2)) == 2 and type(qnorm(_Half(4, 2))) is int
    assert type(qnorm(_Half(1, 2))) is Rat


_BAD_SCALARS = [0.5, True, "1", None, Decimal(1)]


@pytest.mark.parametrize("bad", _BAD_SCALARS, ids=repr)
def test_qnorm_rejects_inexact_values(bad):
    with pytest.raises(ValueError):
        qnorm(bad)


def _scalar_entry_points(engine, bad):
    datum = engine.datum
    vec = (bad,) + (0,) * 8
    one = ScalarSeries.constant(1, 0, 1)
    return {
        "invariant": lambda: engine.invariant((1, 1), [(0,) * 8 + (bad,), 3]),
        "small_product": lambda: small_product(engine, vec, 1, 1, 1),
        "star": lambda: star(engine, 1, vec, 1, 1),
        "ScalarSeries()": lambda: ScalarSeries(1, 1, {(0, 0): bad}),
        "QSeries()": lambda: QSeries(datum, 1, 1, {(0, 0): vec}),
        "constant": lambda: ScalarSeries.constant(1, 0, bad),
        "monomial": lambda: ScalarSeries.monomial(1, 0, 1, 0, bad),
        "series * x": lambda: one * bad,
        "x * series": lambda: bad * one,
        "scaled": lambda: QSeries.from_vector(datum, 1, 1, 3).scaled(bad),
    }


@pytest.mark.parametrize("bad", _BAD_SCALARS, ids=repr)
def test_every_scalar_entry_point_rejects_inexact_values(engine, bad):
    for name, call in _scalar_entry_points(engine, bad).items():
        with pytest.raises(ValueError):
            call()
            pytest.fail(f"{name} accepted {bad!r}")


def test_public_values_are_in_normal_form(engine):
    """Values handed out are ints or true fractions, also when the inputs
    hold integral ``Rat`` entries or fractions whose products are integral
    (2/3 * 3/2)."""
    datum = engine.datum
    u = tuple({8: Rat(2), 6: Rat(2, 3)}.get(e, 0) for e in range(9))
    v = tuple({4: Rat(2), 7: Rat(3, 2), 3: Rat(3, 4)}.get(e, 0) for e in range(9))
    w = tuple({3: Rat(2, 3), 5: Rat(3, 2)}.get(e, 0) for e in range(9))
    values = []
    for cls, ins in (((1, 1), [3, 8]), ((1, 1), [u, v]), ((2, 0), [v])):
        form = engine.normalize(cls, ins)
        assert form.terms
        values += [*form.terms.values(), form.constant]
        values.append(engine.invariant(cls, ins))
    for cls, frame, extras in (
        ((1, 2), (1, 4, 4, 4), (4, 4, 4, 4)),
        ((2, 1), (1, 3, 4, 5), ()),
        ((3, 1), (2, 3, 4, 5), (3,)),
        ((2, 0), (1, 1, 1, 2), ()),  # the (2, 0) values are ±3/4
    ):
        form = engine.build_equation(cls, frame, extras)
        values += [*form.terms.values(), form.constant]
    values += datum.cup(u, v) + datum.cup(w, w) + datum.basis_vector(4)
    values += [c for row in datum.cup_table for vec in row for c in vec]
    prod = small_product(engine, u, v, 2, 1)
    values += [c for vec in prod.coeffs.values() for c in vec]
    bad = [x for x in values if not is_normal(x)]
    assert not bad, bad
    assert any(type(x) is Rat for x in values)


@pytest.mark.parametrize(
    "call",
    [
        lambda e: genus_to_class(3.0, 1),
        lambda e: genus_to_class(3, True),
        lambda e: invariant_I(e, 3, 1, 0.0),
        lambda e: invert_counts(e, 3.0, 0),
        lambda e: invert_counts(e, 3, "0"),
        lambda e: kontsevich_nd(True),
        lambda e: kontsevich_nd(2.5),
        lambda e: engine_nd(2.0),
        lambda e: ScalarSeries(1.5, 0),
        lambda e: QSeries(hilb_datum(), 1, None),
        lambda e: f_series(2.0),
        lambda e: small_product(e, 1, 2, 1.5, 0),
        lambda e: star(e, 1, 2, 1, True),
    ],
    ids=[
        "genus_to_class-d", "genus_to_class-g", "invariant_I-l",
        "invert_counts-d", "invert_counts-l", "kontsevich_nd-bool",
        "kontsevich_nd-float", "engine_nd",
        "ScalarSeries", "QSeries", "f_series", "small_product", "star",
    ],
)
def test_integer_arguments_reject_non_integers(engine, call):
    kontsevich_nd(1)  # a cached N_1 must not answer for True
    with pytest.raises(ValueError):
        call(engine)


@pytest.mark.parametrize(
    "a,b,want",
    [
        (12, 4, 3),
        (-12, 4, -3),
        (12, -4, -3),
        (-12, -4, 3),
        (0, -5, 0),
        (7, 2, Rat(7, 2)),
        (-7, 2, Rat(-7, 2)),
        (7, -2, Rat(-7, 2)),
        (-3, -9, Rat(1, 3)),
        (Rat(3, 2), Rat(1, 2), 3),
        (Rat(3, 2), 3, Rat(1, 2)),
        (6, Rat(3, 4), 8),
        (Rat(-9, 4), Rat(3, 8), -6),
    ],
)
def test_qdiv_is_exact_and_normal(a, b, want):
    got = qdiv(a, b)
    assert got == want
    assert is_normal(got)
    assert type(got) is type(want)


@pytest.mark.parametrize(
    "n,k,want",
    [
        (5, 2, 10),
        (0, 0, 1),
        (4, 4, 1),
        (5, -1, 0),  # k < 0
        (5, 6, 0),  # k > n
        (-1, 0, 0),  # n < 0, where math.comb raises
        (-3, -1, 0),
        (-2, 1, 0),
    ],
)
def test_binom_is_zero_out_of_range(n, k, want):
    """``binom`` is C(n, k) in range and 0 for k < 0, k > n or n < 0."""
    assert binom(n, k) == want


def test_qdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qdiv(3, 0)
    with pytest.raises(ZeroDivisionError):
        qdiv(Rat(1, 3), 0)


def test_rat_from_parts_normal_form():
    six = rat_from_parts("6", "1")
    assert six == 6 and type(six) is int
    two = rat_from_parts("6", "3")
    assert two == 2 and type(two) is int
    assert rat_from_parts("-6", "4") == Rat(-3, 2)
    assert type(rat_from_parts("-6", "4")) is Rat
    with pytest.raises(ValueError):
        rat_from_parts("1", "0")
    assert rat_from_parts("-0", "007") == 0
    assert rat_from_parts("-12", "8") == Rat(-3, 2)
    # int() takes each of these; a cache holds only ASCII decimal strings
    for num, den in (
        ("\uff11", "1"), ("1", "\uff11"), (" 1", "1"), ("1 ", "1"),
        ("1", " 1"), ("+1", "1"), ("1", "+1"), ("1_0", "1"), ("1", "1_0"),
        ("-1", "-1"), ("1", "-1"), ("", "1"), ("-", "1"), ("1", ""),
        ("--1", "1"), ("1.0", "1"), ("\u00b2", "1"),
    ):
        with pytest.raises(ValueError):
            rat_from_parts(num, den)


def test_rat_str_prints_negative_values_past_2000_bits():
    """A negative value past 2,000 bits is split as its absolute value, so
    its halves keep their digits: floor division of the negative would
    print the wrong ones."""
    big = 10**700
    assert rat_str(-big) == "-1" + "0" * 700
    assert rat_str(Rat(-big - 1, 3)) == "-1" + "0" * 699 + "1/3"


def test_ascii_int_takes_only_ascii_decimal_integers():
    assert [ascii_int(t, "x") for t in ("0", "-0", "007", "-12")] == [0, 0, 7, -12]
    for text in ("\uff13", "\u0664", " 4", "4 ", "+4", "4_0", "", "-", "--4", "4.0"):
        with pytest.raises(ValueError, match="the value"):
            ascii_int(text, "the value")
