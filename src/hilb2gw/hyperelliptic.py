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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import Engine
from .rationals import binom


class NonIntegralCount(Exception):
    """An inverted count came out with a nontrivial denominator."""


class NegativeCount(Exception):
    """An inverted count came out negative."""


@dataclass
class CountTable:
    """Both columns of the inversion for one (d, l): genus 0 .. d-1."""

    d: int
    l: int
    invariants: dict = field(default_factory=dict)  # g -> exact rational I
    counts: dict = field(default_factory=dict)      # g -> int E^l(d, g)

    @property
    def genera(self):
        return range(self.d)

    def rows(self):
        """(g, I, E) triples, genus ascending."""
        return [(g, self.invariants[g], self.counts[g]) for g in self.genera]


def genus_to_class(d: int, g: int):
    """Curve class (d-g-1, d) of degree-d genus-g hyperelliptic curves.

    Needs 0 <= g <= d-1 so both coordinates are nonnegative; the diagonal
    pairing 2(b-a) = 2g+2 then counts the branch points.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    if not 0 <= g <= d - 1:
        raise ValueError(f"genus must lie in 0..{d - 1} for degree {d}")
    return (d - g - 1, d)


def invariant_I(engine: Engine, d: int, g: int, l: int = 0):
    """I(d, g, l): the exact invariant with l conjugate pairs."""
    cls = genus_to_class(d, g)
    if l < 0 or 3 * (d - l) + 1 < 0:
        raise ValueError(f"pair count must lie in 0..{d} for degree {d}")
    insertions = [8] * l + [4] * (3 * (d - l) + 1)
    return engine.invariant(cls, insertions)


def invert_counts(engine: Engine, d: int, l: int = 0) -> CountTable:
    """Solve the triangular system for E^l(d, g), g = 0 .. d-1.

    Raises NonIntegralCount or NegativeCount when an entry fails the
    integrality or positivity sanity gate.
    """
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


def severi_degree(engine: Engine, genus: int, d: int):
    """Severi degree of degree-d plane curves of genus 0 or 1.

    Genus 0 is E^2(d, 0) (one point for d = 1, where the generic pair
    formula has no room for two conjugate pairs); genus 1 is E^1(d, 1)
    and needs d >= 3.
    """
    if genus == 0:
        if d < 1:
            raise ValueError("degree must be at least 1")
        if d == 1:
            return 1
        return invert_counts(engine, d, 2).counts[0]
    if genus == 1:
        if d < 3:
            raise ValueError("the genus-1 count needs degree >= 3")
        return invert_counts(engine, d, 1).counts[1]
    raise ValueError("only genus 0 and 1 Severi degrees are available here")
