"""Hyperelliptic plane curve counts from Hilbert-scheme invariants.

A degree-d genus-g hyperelliptic plane curve corresponds to a rational
curve of class (d-g-1, d) in the Hilbert scheme of two points of the
plane; its image meets the diagonal in 2g+2 points (the branch points).
The invariant

    I(d, g, l) = I_{(d-g-1, d)}(T8^l, T4^(3(d-l)+1))

counts such curves through l conjugate point pairs and 3d+1-3l single
points (a pair imposes three conditions, so l = 2 leaves the 3d-1 points of
N_d), except that maps of every genus h >= g contribute: a genus-h curve
admits C(2h+2, h-g) degenerate configurations that land in the genus-g
class. Inverting the resulting triangular system

    I(d, g, l) = sum over h >= g of C(2h+2, h-g) * E^l(d, h)

from h = d-1 (the boundary where the class has first coordinate 0)
downward yields the actual counts E^l(d, h). They must come out as
nonnegative integers; anything else signals a broken engine and raises.

The boundary invariant I(d, d-1, l) is 0 by the projection to the dual
plane (see ``TargetDatum.vanishes``): its class (0, d) maps to a point of
the plane, and its insertions carry base orders summing to
2l + (3(d-l) + 1) = 3d + 1 - l > 2, so the engine answers 0 without solving.
"""

from __future__ import annotations

from .engine import Engine
from .rationals import binom, check_int


class NonIntegralCount(Exception):
    """An inverted count came out with a nontrivial denominator."""


class NegativeCount(Exception):
    """An inverted count came out negative."""


class CountTable:
    """Both columns of the inversion for one (d, l): genus 0 .. d-1."""

    __slots__ = ("d", "l", "invariants", "counts")

    def __init__(
        self, d: int, l: int, invariants: dict | None = None, counts: dict | None = None
    ):
        self.d = d
        self.l = l
        # g -> exact rational I, and g -> int E^l(d, g)
        self.invariants = {} if invariants is None else invariants
        self.counts = {} if counts is None else counts

    @property
    def genera(self):
        return range(self.d)

    def rows(self):
        """(g, I, E) triples, genus ascending."""
        return [(g, self.invariants[g], self.counts[g]) for g in self.genera]


def genus_to_class(d: int, g: int):
    """Curve class (d-g-1, d) of degree-d genus-g hyperelliptic curves.

    Needs ints with 0 <= g <= d-1 so both coordinates are nonnegative; the
    diagonal pairing 2(b-a) = 2g+2 then counts the branch points.
    """
    check_int(d, "the degree")
    check_int(g, "the genus")
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= g <= d - 1:
        raise ValueError(f"genus must lie in 0..{d - 1} for degree {d}")
    return (d - g - 1, d)


def invariant_I(engine: Engine, d: int, g: int, l: int = 0):
    """I(d, g, l): the exact invariant with l conjugate pairs."""
    cls = genus_to_class(d, g)
    check_int(l, "the pair count")
    if l < 0 or 3 * (d - l) + 1 < 0:
        raise ValueError(f"pair count must lie in 0..{d} for degree {d}")
    insertions = [8] * l + [4] * (3 * (d - l) + 1)
    return engine.invariant(cls, insertions)


def invert_counts(engine: Engine, d: int, l: int = 0) -> CountTable:
    """Solve the triangular system for E^l(d, g), g = 0 .. d-1.

    Raises NonIntegralCount or NegativeCount when an entry fails the
    integrality or positivity sanity gate.
    """
    check_int(d, "the degree")
    if d < 2:
        raise ValueError("inversion is defined for degrees >= 2")
    table = CountTable(d, l)
    for g in range(d):
        table.invariants[g] = invariant_I(engine, d, g, l)
    for g in range(d - 1, -1, -1):
        value = table.invariants[g]
        for h in range(g + 1, d):
            value -= binom(2 * h + 2, h - g) * table.counts[h]
        if value.denominator != 1:
            raise NonIntegralCount(
                f"E^{l}({d},{g}) = {value} is not an integer"
            )
        value = int(value)
        if value < 0:
            raise NegativeCount(f"E^{l}({d},{g}) = {value} is negative")
        table.counts[g] = value
    return table

