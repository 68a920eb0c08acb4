"""Tests for the genus-to-class map, the invariant queries and the binomial
inversion into curve counts."""

import pytest

from hilb2gw import (
    CountTable,
    Engine,
    NegativeCount,
    NonIntegralCount,
    genus_to_class,
    invariant_I,
    invert_counts,
)
from hilb2gw.fixtures import COUNT_TABLES, INVARIANT_TABLES
from hilb2gw.rationals import Rat


def test_genus_to_class():
    assert genus_to_class(2, 0) == (1, 2)
    assert genus_to_class(4, 2) == (1, 4)
    assert genus_to_class(7, 6) == (0, 7)
    assert genus_to_class(1, 0) == (0, 1)


def test_genus_to_class_rejects_out_of_range():
    with pytest.raises(ValueError):
        genus_to_class(3, 3)
    with pytest.raises(ValueError):
        genus_to_class(3, -1)
    with pytest.raises(ValueError):
        genus_to_class(0, 0)


def test_invariant_examples(engine):
    assert invariant_I(engine, 5, 1, 0) == 224910
    assert invariant_I(engine, 3, 1, 1) == 1
    assert invariant_I(engine, 2, 0, 2) == 1
    assert invariant_I(engine, 4, 2, 0) == 27


def test_invariant_rejects_bad_queries(engine):
    with pytest.raises(ValueError):
        invariant_I(engine, 3, 3, 0)
    with pytest.raises(ValueError):
        invariant_I(engine, 3, 0, 4)  # more pairs than the degree
    with pytest.raises(ValueError):
        invariant_I(engine, 3, 0, -1)


def test_invert_counts_degree_4(engine):
    table = invert_counts(engine, 4, 0)
    assert [table.invariants[g] for g in range(table.d)] == [405, 162, 27, 0]
    assert [table.counts[g] for g in range(table.d)] == [0, 0, 27, 0]


def test_invert_counts_matches_frozen_tables(engine):
    for l in (0, 1, 2):
        for d in (2, 3, 4):
            table = invert_counts(engine, d, l)
            for g in range(d - 1):
                assert table.invariants[g] == INVARIANT_TABLES[l][(d, g)], (d, g, l)
                assert table.counts[g] == COUNT_TABLES[l][(d, g)], (d, g, l)
            assert table.counts[d - 1] == 0


def test_rows_are_exactly_genera(engine):
    table = invert_counts(engine, 3, 1)
    rows = list(table.rows())
    assert [r[0] for r in rows] == [0, 1, 2]
    assert table.d == 3 and table.l == 1


def test_invert_counts_rejects_low_degree(engine):
    with pytest.raises(ValueError):
        invert_counts(engine, 1, 0)


def test_count_table_construction():
    a, b = CountTable(3, 1), CountTable(3, 1)
    a.invariants[0] = Rat(1)
    a.counts[0] = 1
    assert b.invariants == {} and b.counts == {}
    table = CountTable(2, 0, {0: Rat(1), 1: Rat(2)}, {0: 1, 1: 2})
    assert (table.d, table.l) == (2, 0)
    assert table.rows() == [(0, Rat(1), 1), (1, Rat(2), 2)]


def test_non_integral_counts_raise():
    """A poisoned memo value must surface as a sanity error, not a wrong table."""
    for poison in (Rat(1, 3), Rat(-7, 2)):
        eng = Engine()
        key = ((1, 2), (4, 4, 4, 4, 4, 4, 4))
        eng.memo.set(key[0], eng.memo.code(key[1]), poison)
        with pytest.raises((NonIntegralCount, NegativeCount)):
            invert_counts(eng, 2, 0)


def test_negative_counts_raise():
    # the memo keeps integral values as int, whichever type they arrive as
    for poison in (Rat(-5), -5, Rat(-10, 2)):
        eng = Engine()
        key = ((1, 2), (4, 4, 4, 4, 4, 4, 4))
        eng.memo.set(key[0], eng.memo.code(key[1]), poison)
        with pytest.raises(NegativeCount):
            invert_counts(eng, 2, 0)
