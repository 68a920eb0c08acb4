"""Exact rational scalars and shared binomial coefficients.

All arithmetic in this package is arbitrary-precision rational; no floating
point is used anywhere. The rational type ``Rat`` is the standard library's
``fractions.Fraction``, under that one name: a true fraction is built as
``Rat(num, den)``, and no second constructor restates it.

Normal form: every exact scalar the package stores or returns (memo values,
solved values, base cases, cup-table entries, invariants, series
coefficients) is a plain ``int`` when it is integral and a ``Rat`` only
when it is a true fraction. ``qnorm`` is the one gate into that form for
every scalar, computed or supplied by a caller, and ``qdiv`` divides into
it; ``int`` carries ``numerator`` and ``denominator`` too, so code that
inspects either works on both kinds.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import comb
from numbers import Rational


def qnorm(x):
    """The normal form of an exact scalar: ``int`` if integral, else ``Rat``.

    An ``int`` is returned as it is, a ``Rat`` is normalised and any other
    ``numbers.Rational`` is converted; a bool, a float, a string or anything
    else raises ValueError.
    """
    if type(x) is int:
        return x
    if type(x) is Rat:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, Rational) and not isinstance(x, bool):
        return qnorm(Rat(x.numerator, x.denominator))
    raise ValueError(f"{x!r} is not an exact rational")


def qdiv(a, b):
    """Exact quotient a/b in normal form; integer division stays ``int``."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Rat(a, b) if r else q
    return qnorm(a / b)


# the type set of a sequence of ints: ``_ONLY_INTS.issuperset(map(type, xs))``
# is True only when every item is an ``int``, so a bool or a float equal to
# one (which hashes and compares like it) is refused
_ONLY_INTS = frozenset((int,))


def check_int(value, what: str) -> int:
    """``value`` if it is an ``int`` (not a bool); anything else raises
    ValueError naming ``what``."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 whenever k < 0 or k > n.

    The out-of-range convention keeps sums like sum_{h >= g} C(2h+2, h-g) * E(d,h)
    finite and unambiguous; every module takes its binomials from here.
    """
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def rat_str(x) -> str:
    """Render exactly: an integer string, or ``p/q`` for non-integers.

    Integers of any length print in full; see ``_int_str``.
    """
    num, den = x.numerator, x.denominator
    if den == 1:
        return _int_str(num)
    return f"{_int_str(num)}/{_int_str(den)}"


def _int_str(n: int) -> str:
    """The decimal digits of an int of any length.

    CPython refuses ``str`` of an int longer than its conversion limit
    (4,300 digits by default, 640 at the least), a guard meant for parsing
    untrusted text.  An int past 2,000 bits (602 digits) is split at a
    power of ten and its halves are converted apart, so printed values
    never meet the limit while parsing, as in ``rat_from_parts``, keeps it.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def ascii_int(text: str, what: str) -> int:
    """The int that ``text`` spells if it is ASCII ``-?[0-9]+``; anything
    else raises ValueError naming ``what``.  ``int`` alone would also take
    full-width and other Unicode digits, surrounding spaces, ``+`` and
    ``_``.  Cache values and command-line integers are parsed with it."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} {text!r} is not an ASCII decimal integer")
    return int(text)


def rat_from_parts(num: str, den: str):
    """Rebuild an exact scalar in normal form from decimal integer strings.

    ``num`` must be ASCII ``-?[0-9]+`` and ``den`` ASCII ``[0-9]+``, not
    zero (``ascii_int``); anything else raises ValueError.
    """
    n = ascii_int(num, "numerator")
    if den == "1":  # most cache values are integers
        return n
    d = ascii_int(den, "denominator")
    if d <= 0:
        raise ValueError(f"denominator {den!r} is not positive")
    return qnorm(Rat(n, d))
