"""The exact-scalar normal form: ``int`` when integral, ``Rat`` otherwise."""

import pytest

from hilb2gw.rationals import Rat, qdiv, qnorm, rat, rat_from_parts


def is_normal(x) -> bool:
    return type(x) is int or (type(x) is Rat and x.denominator != 1)


def test_qnorm():
    assert qnorm(7) == 7 and type(qnorm(7)) is int
    assert qnorm(rat(-12, 4)) == -3 and type(qnorm(rat(-12, 4))) is int
    assert qnorm(rat(3, 4)) == rat(3, 4) and type(qnorm(rat(3, 4))) is Rat


@pytest.mark.parametrize(
    "a,b,want",
    [
        (12, 4, 3),
        (-12, 4, -3),
        (12, -4, -3),
        (-12, -4, 3),
        (0, -5, 0),
        (7, 2, rat(7, 2)),
        (-7, 2, rat(-7, 2)),
        (7, -2, rat(-7, 2)),
        (-3, -9, rat(1, 3)),
        (rat(3, 2), rat(1, 2), 3),
        (rat(3, 2), 3, rat(1, 2)),
        (6, rat(3, 4), 8),
        (rat(-9, 4), rat(3, 8), -6),
    ],
)
def test_qdiv_is_exact_and_normal(a, b, want):
    got = qdiv(a, b)
    assert got == want
    assert is_normal(got)
    assert type(got) is type(want)


def test_qdiv_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        qdiv(3, 0)
    with pytest.raises(ZeroDivisionError):
        qdiv(rat(1, 3), 0)


def test_rat_from_parts_normal_form():
    six = rat_from_parts("6", "1")
    assert six == 6 and type(six) is int
    two = rat_from_parts("6", "3")
    assert two == 2 and type(two) is int
    assert rat_from_parts("-6", "4") == rat(-3, 2)
    assert type(rat_from_parts("-6", "4")) is Rat
    with pytest.raises(ValueError):
        rat_from_parts("1", "0")
