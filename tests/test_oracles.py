"""The closed recursion for rational plane curves, and its agreement with
the generic engine run on the plane."""

import math
import sys

import pytest

from hilb2gw import Engine, engine_nd, kontsevich_nd, p2_datum
from hilb2gw.fixtures import RATIONAL_PLANE_COUNTS


def test_closed_recursion_values():
    for d, want in RATIONAL_PLANE_COUNTS.items():
        assert kontsevich_nd(d) == want, d


def _direct_nd(d, memo={1: 1}):
    """The recursion with every binomial taken from math.comb."""
    if d not in memo:
        memo[d] = sum(
            _direct_nd(d1) * _direct_nd(d - d1) * (
                d1 ** 2 * (d - d1) ** 2 * math.comb(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * (d - d1) * math.comb(3 * d - 4, 3 * d1 - 1)
            )
            for d1 in range(1, d)
        )
    return memo[d]


def test_closed_recursion_matches_direct_binomials():
    for d in range(1, 41):
        assert kontsevich_nd(d) == _direct_nd(d), d


def test_closed_recursion_rejects_nonpositive():
    with pytest.raises(ValueError):
        kontsevich_nd(0)
    with pytest.raises(ValueError):
        kontsevich_nd(-3)
    for d in (0, -2):
        with pytest.raises(ValueError, match="defined for degrees >= 1"):
            engine_nd(d)


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_closed_recursion_needs_no_deep_stack():
    """A fresh N_150 computes under a recursion limit only 100 frames above
    the caller: the recursion runs in a loop, not on the stack."""
    kontsevich_nd.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 100)
    try:
        value = kontsevich_nd(150)
    finally:
        sys.setrecursionlimit(limit)
    assert value > 0


def test_engine_agrees_with_recursion_small_degrees():
    eng = Engine(p2_datum())
    for d in range(1, 6):
        assert engine_nd(d, eng) == kontsevich_nd(d), d


def test_engine_nd_requires_plane_engine():
    with pytest.raises(ValueError):
        engine_nd(2, Engine())  # two-parameter target, wrong shape


def test_counts_are_positive_integers():
    for d in range(1, 8):
        value = kontsevich_nd(d)
        assert value > 0 and value.denominator == 1
