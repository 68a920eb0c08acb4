"""Engine tests: base cases, normalization, equation building, stage
solving, the packed memo keys, the randomized property suites, and
caching."""

import gc
import itertools
import json
import math
import os
import random
import time
from collections import Counter

import pytest

from hilb2gw import (
    CacheFormatError,
    Engine,
    InconsistentSystem,
    UnderdeterminedStage,
    engine_nd,
    hilb_datum,
    invert_counts,
    kontsevich_nd,
    p2_datum,
)
from hilb2gw import engine as engine_module
from hilb2gw.chow import _A1_TABLE, TargetDatum
from hilb2gw.engine import (
    CACHE_SCHEMA,
    ExactLinearSolver,
    LinearForm,
    MemoStore,
)
from hilb2gw.fixtures import COUNT_TABLES
from hilb2gw.rationals import Rat, rat

from properties_util import (
    check_dimension_vanishing,
    check_divisor_axiom,
    check_effectivity_rejection,
    check_permutation_invariance,
    check_wdvv_residuals,
)


# ----------------------------------------------------------------------
# base cases and normalization
# ----------------------------------------------------------------------


def test_base_case_values(engine):
    assert engine.invariant((2, 1), [6, 6]) == 4
    assert engine.invariant((3, 0), [3]) == rat(1, 3)
    assert engine.invariant((5, 1), [4, 4, 4, 8]) == 0
    assert engine.invariant((1, 0), [5]) == -3


def test_two_point_table_exhaustive(engine):
    for a, row in _A1_TABLE.items():
        for (i, j), want in row.items():
            assert engine.invariant((a, 1), [i, j]) == want, (a, i, j)


def test_vanishing_class_above_two(engine):
    for a in (3, 4, 7):
        for pair in ((3, 8), (6, 7), (4, 8)):
            assert engine.invariant((a, 1), list(pair)) == 0


def test_single_insertion_line(engine):
    for a in range(1, 8):
        assert engine.invariant((a, 0), [3]) == rat(3, a * a)
        assert engine.invariant((a, 0), [4]) == 0
        assert engine.invariant((a, 0), [5]) == rat(-3, a * a)


def test_normalize_is_linear_in_index_insertions(engine):
    """What ``hilb2gw invariant --class 1,1 --insertions 4x64000`` asks:
    index insertions canonicalise in one pass, so 64 000 of them take
    milliseconds, and the dimension count then kills the monomial."""
    t0 = time.perf_counter()
    assert engine.invariant((1, 1), [4] * 64000) == 0
    assert time.perf_counter() - t0 < 2.0
    assert engine.invariant((1, 1), [1] * 64000 + [3, 8]) == 1


def test_normalize_is_multilinear(engine):
    datum = engine.datum
    s5 = tuple(
        a + b for a, b in zip(datum.basis_vector(5), datum.basis_vector(3))
    )
    for a in (1, 2, 5):
        assert engine.invariant((a, 0), [s5]) == 0


def test_divisors_strip_with_intersection_multiplier(engine):
    assert engine.invariant((1, 1), [1, 3, 8]) == 1
    assert engine.invariant((1, 1), [2, 3, 8]) == 1
    assert engine.invariant((2, 1), [1, 1, 6, 6]) == 16
    assert engine.invariant((3, 1), [2, 3, 8]) == 0


def test_invariant_rejects_bad_classes(engine):
    with pytest.raises(ValueError):
        engine.invariant((0, 0), [3])
    with pytest.raises(ValueError):
        engine.invariant((-1, 2), [3])
    with pytest.raises(ValueError):
        engine.invariant((1,), [3])
    with pytest.raises(ValueError):
        engine.invariant((True, 1), [3, 8])
    with pytest.raises(ValueError):
        engine.invariant((1.0, 1), [3, 8])


@pytest.mark.parametrize(
    "bad",
    [[9], [-1], [4, 100], [True], [False, 8], [4.0], ["4"], [(0,) * 8], [None]],
)
def test_invariant_rejects_bad_insertions(engine, bad):
    with pytest.raises(ValueError):
        engine.invariant((1, 1), [3] + bad)


# One call per entry point that takes a curve class, on a fresh engine; each
# returns something comparable (solve_stage returns the memo it filled).
_CLASS_ENTRY_POINTS = {
    "normalize": lambda eng, cls: eng.normalize(cls, [3, 8]),
    "invariant": lambda eng, cls: eng.invariant(cls, [3, 8]),
    "three_point_row": lambda eng, cls: eng.three_point_row(cls, 1, 3),
    "build_equation": lambda eng, cls: eng.build_equation(cls, (1, 3, 4, 5), ()),
    "wdvv_residual": lambda eng, cls: eng.wdvv_residual(cls, (1, 3, 4, 5), ()),
    "solve_stage": lambda eng, cls: (
        eng.solve_stage(cls, 3), list(eng.memo.items())
    ),
}


@pytest.mark.parametrize("entry", sorted(_CLASS_ENTRY_POINTS))
def test_every_class_entry_point_passes_one_gate(entry):
    """A class given as a list acts as the same tuple at every entry point,
    and every bad class raises ValueError, never a bare TypeError."""
    call = _CLASS_ENTRY_POINTS[entry]
    assert call(Engine(), [1, 1]) == call(Engine(), (1, 1))
    for bad in (5, None, 1.5, "11", (1,), (1, -1), (0, 0)):
        with pytest.raises(ValueError):
            call(Engine(), bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda eng: eng.invariant(5, [3]),
        lambda eng: eng.invariant((1, 1), 5),
        lambda eng: eng.normalize((1, 1), 5),
        lambda eng: eng.three_point_row(5, 3, 8),
        lambda eng: eng.build_equation((1, 1), 5, ()),
        lambda eng: eng.build_equation((1, 1), (1, 5, 7, 7), 5),
        lambda eng: eng.wdvv_residual((1, 1), (1, 3, 4, 5), 5),
        lambda eng: eng.solve_stage(5, 3),
        lambda eng: eng.solve_stage((1, 1), "3"),
        lambda eng: eng.solve_stage((1, 1), 3.0),
        lambda eng: eng.solve_stage((1, 1), True),
        lambda eng: eng.solve_stage((1, 1), -1),
    ],
    ids=[
        "invariant-class", "invariant-insertions", "normalize-insertions",
        "row-class", "build-frame", "build-extras", "residual-extras",
        "stage-class", "stage-str", "stage-float", "stage-bool",
        "stage-negative",
    ],
)
def test_non_sequence_and_bad_stage_inputs_raise_value_error(engine, call):
    with pytest.raises(ValueError):
        call(engine)


# ----------------------------------------------------------------------
# equation building
# ----------------------------------------------------------------------


def test_equal_outer_slots_give_zero_form(engine):
    form = engine.build_equation((1, 1), (1, 3, 4, 3), ())
    assert form.is_zero()


def test_build_equation_keys_stay_in_stage(engine):
    cls = (1, 2)
    extras = (4, 4, 4, 4)
    form = engine.build_equation(cls, (1, 4, 4, 4), extras)
    n = len(extras) + 3
    for key in form.terms:
        assert key[0] == cls
        assert len(key[1]) == n


def test_build_equation_validates_inputs(engine):
    with pytest.raises(ValueError):
        engine.build_equation((1, 1), (1, 3, 4), ())
    with pytest.raises(ValueError):
        engine.build_equation((1, 1), (1, 3, 4, 5), (1,))
    with pytest.raises(ValueError):
        engine.build_equation((0, 0), (1, 3, 4, 5), ())


@pytest.mark.parametrize(
    "extras", [(9,), (-1,), (4, 100), (1,), (0,), (True,), (4.0,), ("4",), (None,)]
)
def test_equation_wrappers_reject_bad_extras(engine, extras):
    with pytest.raises(ValueError):
        engine.build_equation((1, 1), (1, 3, 4, 5), extras)
    with pytest.raises(ValueError):
        engine.wdvv_residual((1, 1), (1, 3, 4, 5), extras)


@pytest.mark.parametrize(
    "frame", [(True, 3, 4, 5), (1, 3, 4.0, 5), (1, 3, 4, "5"), (1, 3, 4, 9), (0, 3, 4, 5)]
)
def test_equation_wrappers_reject_bad_frames(engine, frame):
    with pytest.raises(ValueError):
        engine.build_equation((1, 1), frame, ())
    with pytest.raises(ValueError):
        engine.wdvv_residual((1, 1), frame, ())


def test_resolved_equation_residual_is_zero(engine):
    assert engine.wdvv_residual((1, 1), (1, 3, 4, 5), ()) == 0
    assert engine.wdvv_residual((1, 3), (1, 4, 4, 5), (4, 4)) == 0


def test_reduction_chain_for_single_insertion_values(engine):
    """The residual of one specific relation certifies the 3/a^2 line:
    it encodes (a-1)^2 I_((a-1,0))(T3) = (a-2)^2 I_((a-2,0))(T3)."""
    for a in range(3, 11):
        assert engine.wdvv_residual((a, 1), (6, 3, 1, 2), ()) == 0


# ----------------------------------------------------------------------
# the split-sum kernel against a plain re-implementation
# ----------------------------------------------------------------------


def _plain_strip(datum, cls, idxs):
    """(non-divisor insertions, their weight, divisor multiplier), or None
    when a fundamental class or a zero intersection kills the monomial."""
    mult, bare = 1, []
    for e in idxs:
        if datum.codims[e] == 0:
            return None
        if datum.codims[e] == 1:
            mult *= datum.inter(e, cls)
        else:
            bare.append(e)
    if mult == 0:
        return None
    return bare, sum(datum.weights[e] for e in bare), mult


def _plain_partitions(datum, extras):
    """Every split A|B of a multiset: (A, B, w(A), w(B), labeled ways)."""
    counts = sorted(Counter(extras).items())
    for takes in itertools.product(*(range(m + 1) for _, m in counts)):
        a, b, ways = [], [], 1
        for (e, m), t in zip(counts, takes):
            a += [e] * t
            b += [e] * (m - t)
            ways *= math.comb(m, t)
        yield (a, b, sum(datum.weights[e] for e in a),
               sum(datum.weights[e] for e in b), ways)


def _plain_split_terms(datum, cls, frame, extras):
    """The split terms of S(i,j,k,l) - S(i,l,j,k), one per partition:
    (coefficient, key of I_b1(Tp, Tq, Te, A), key of I_b2(Te^, Tr, Ts, B))
    over b1 + b2 = cls, with sorted-tuple keys."""
    budget = datum.weight_budget
    parts = list(_plain_partitions(datum, extras))
    i, j, k, l = frame
    for (p, q, r, s), sign in (((i, j, k, l), 1), ((i, l, j, k), -1)):
        for b1, b2 in datum.splits(cls):
            for e in range(datum.basis_size):
                side1 = _plain_strip(datum, b1, [p, q, e])
                side2 = _plain_strip(datum, b2, [datum.dual[e], r, s])
                if side1 is None or side2 is None:
                    continue
                need1, need2 = budget(b1) - side1[1], budget(b2) - side2[1]
                for a, b, wa, wb, ways in parts:
                    if wa == need1 and wb == need2:
                        yield (
                            sign * ways * side1[2] * side2[2],
                            (b1, tuple(sorted(side1[0] + a))),
                            (b2, tuple(sorted(side2[0] + b))),
                        )


def _plain_equation(engine, cls, frame, extras):
    """S(i,j,k,l) - S(i,l,j,k) summed term by term with sorted-tuple keys.

    Keys of the stage (cls, len(extras) + 3) missing from the memo stay
    symbolic, unless the projection to the base plane kills them; every
    other key is valued with ``engine.value_of``, which gives 0 for a
    killed key.
    """
    datum = engine.datum
    budget = datum.weight_budget
    n = len(extras) + 3
    terms, const = {}, 0
    i, j, k, l = frame
    for (p, q, r, s), sign in (((i, j, k, l), 1), ((i, l, j, k), -1)):
        # the two degree-0 collapses: I(x, y, u cup v, extras)
        for x, y, u, v in ((p, q, r, s), (r, s, p, q)):
            for m, cm in enumerate(datum.cup_basis(u, v)):
                hit = cm and _plain_strip(datum, cls, [x, y, m, *extras])
                if not hit or hit[1] != budget(cls):
                    continue
                key, coeff = (cls, tuple(sorted(hit[0]))), sign * cm * hit[2]
                if (
                    len(key[1]) == n
                    and engine.memo.get(key) is None
                    and not datum.vanishes(*key)
                ):
                    terms[key] = terms.get(key, 0) + coeff
                else:
                    const += coeff * engine.value_of(key)
    for coeff, key1, key2 in _plain_split_terms(datum, cls, frame, extras):
        v1 = engine.value_of(key1)
        if v1 != 0:
            const += coeff * v1 * engine.value_of(key2)
    return {key: c for key, c in terms.items() if c != 0}, const


def _memo_stage_keys(eng):
    """The memo's keys outside the two-point base stages (n >= 3): the keys
    that the engine's stage visits solved, plus the few that base cases
    answer at n >= 3 (the vanishing classes (a, 1), a >= 3)."""
    return [key for key, _ in eng.memo.items() if len(key[1]) >= 3]


def _reached_stages(eng):
    return sorted({(cls, len(ins)) for cls, ins in _memo_stage_keys(eng)})


def _hilb_tables_to_d4(eng):
    for d in range(2, 5):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)


def _hilb_tables_to_d4_then_their_stages(eng):
    """Run the d <= 4 tables, then close every stage they reach with at most
    eight insertions: the split sum solves a factor only when its partner can
    be nonzero, so the tables alone leave fewer keys to draw specs from, and
    closing the larger stages too takes more than five times as long."""
    _hilb_tables_to_d4(eng)
    for cls, n in _reached_stages(eng):
        if n <= 8:
            eng.solve_stage(cls, n)


def _plane_counts_to_d8(eng):
    for d in range(1, 9):
        engine_nd(d, eng)


@pytest.mark.parametrize(
    "datum, solve, min_specs",
    [
        (hilb_datum(), _hilb_tables_to_d4_then_their_stages, 2000),
        (p2_datum(), _plane_counts_to_d8, 7),
    ],
    ids=["hilb2", "p2"],
)
def test_build_equation_matches_plain_split_sum(datum, solve, min_specs):
    """The lead spec of every memo key solved by running the d <= 4 tables
    of Hilb^2 and closing the stages they reach up to n = 8 (the d <= 8
    counts of P^2, one spec per stage) builds the same affine
    form as the plain sum, on a fresh engine where part of each stage is
    still unknown."""
    solved = Engine(datum)
    solve(solved)
    specs = sorted({
        (key[0], solved._lead_spec(key)) for key in _memo_stage_keys(solved)
    })
    assert len(specs) >= min_specs
    fresh = Engine(datum)
    symbolic = 0
    for cls, (frame, extras) in specs:
        want = _plain_equation(fresh, cls, frame, extras)
        form = fresh.build_equation(cls, frame, extras)
        assert (form.terms, form.constant) == want, (cls, frame, extras)
        symbolic += bool(form.terms)
    assert symbolic > 0


def test_split_sum_solves_no_factor_whose_partner_is_a_stored_zero():
    """A split term with a stored zero factor is skipped before its other
    factor is solved.  For each lead spec of the d <= 3 tables whose split
    factors are all valued, a fresh engine gets every memo value except the
    nonzero factors that meet only true zeros in this equation; building
    the equation must then ask value_of for no key outside the memo."""
    solved = Engine()
    for d in range(2, 4):
        for l in (0, 1, 2):
            invert_counts(solved, d, l)
    values = dict(solved.memo.items())
    specs = sorted({
        (key[0], solved._lead_spec(key)) for key in _memo_stage_keys(solved)
    })
    checked = 0
    for cls, (frame, extras) in specs:
        pairs = [
            (key1, key2)
            for _c, key1, key2 in _plain_split_terms(solved.datum, cls, frame, extras)
        ]
        if not all(k1 in values and k2 in values for k1, k2 in pairs):
            continue
        needed = {
            key
            for k1, k2 in pairs
            if values[k1] != 0 and values[k2] != 0
            for key in (k1, k2)
        }
        withheld = {
            key
            for pair in pairs
            for key in pair
            if values[key] != 0 and key not in needed
        }
        if not withheld:
            continue
        fresh = Engine()
        for key, val in values.items():
            if key not in withheld:
                fresh.memo.set(key, val)
        misses = []
        value_of = fresh.value_of

        def counting_value_of(key):
            if key not in fresh.memo:
                misses.append(key)
            return value_of(key)

        fresh.value_of = counting_value_of
        fresh.build_equation(cls, frame, extras)
        assert not misses, (cls, frame, extras, misses[:3])
        checked += 1
    assert checked >= 20


def test_tables_and_memo_values_do_not_depend_on_query_order():
    """Which keys the split sum solves depends on the query order, since a
    factor is solved only while its partner is not a stored zero; the
    tables and the value of every key both orders solve do not."""
    queries = [(d, l) for d in range(2, 6) for l in (0, 1, 2)]
    runs = []
    for order in (queries, queries[::-1]):
        eng = Engine()
        tables = {
            (d, l): (t.invariants, t.counts)
            for d, l in order
            for t in [invert_counts(eng, d, l)]
        }
        runs.append((tables, dict(eng.memo.items())))
    (tables_fwd, memo_fwd), (tables_rev, memo_rev) = runs
    assert tables_fwd == tables_rev
    common = memo_fwd.keys() & memo_rev.keys()
    assert len(common) > 1000
    assert all(memo_fwd[key] == memo_rev[key] for key in common)


# ----------------------------------------------------------------------
# the projection to the base plane
# ----------------------------------------------------------------------


def _unpruned_hilb_datum():
    """The Hilb^2 datum without its base divisor, so nothing is pruned."""
    d = hilb_datum()
    return TargetDatum(
        name=d.name,
        dim=d.dim,
        codims=d.codims,
        divisors=d.divisors,
        cup_table=d.cup_table,
        dual=d.dual,
        anticanonical=d.anticanonical,
        decompositions=d.decompositions,
        base_case=d.base_case,
        rank=d.rank,
    )


def test_unpruned_engine_solves_every_killed_key_to_zero():
    """The vanishing theorem against the equations: an engine that prunes
    nothing solves every key of the d <= 5 tables that the theorem kills
    (the killed keys the pruning engine stored as factors included) to 0,
    and both engines give the same tables."""
    datum = hilb_datum()
    pruned, unpruned = Engine(), Engine(_unpruned_hilb_datum())
    for d in range(2, 6):
        for l in (0, 1, 2):
            want = invert_counts(unpruned, d, l)
            got = invert_counts(pruned, d, l)
            assert (got.invariants, got.counts) == (want.invariants, want.counts)
    killed = {
        key
        for eng in (unpruned, pruned)
        for key, _ in eng.memo.items()
        if datum.vanishes(*key)
    }
    assert len(killed) >= 2000
    assert all(unpruned.value_of(key) == 0 for key in killed)


@pytest.mark.parametrize(
    "key",
    [
        ((-1, 2), (4, 4, 4)),  # not effective
        ((1, 2), (4, 4, 4)),  # off the dimension budget
        ((0, 0), (3,)),  # the zero class
        ((1, 2), (9,)),  # not a non-divisor index
        ((1, 2), (8, 7, 6)),  # not sorted
        ((1, 2), (6.0, 7, 8)),
        ((1, 2), [6, 7, 8]),
        ([1, 2], (6, 7, 8)),
        ((1.0, 2), (6, 7, 8)),
        ((1, [2]), (6, 7, 8)),
        ((1, 2), (-1, 8, 8)),
        ((1, 2), (3,) * 256),
        ((1, 2),),
        5,
        None,
    ],
)
def test_value_of_rejects_a_key_that_is_not_canonical(key):
    """A key that is not canonical and admissible raises ValueError and
    leaves the memo as it was; a non-effective class is not stored as a
    killed 0 that load_cache would refuse.  The gate runs on a memo miss, so
    the bad keys here name no solved key."""
    eng = Engine()
    assert eng.invariant((1, 2), [4, 8, 8]) == 1
    before = dict(eng.memo.items())
    assert ((1, 2), (6, 7, 8)) not in before
    with pytest.raises(ValueError):
        eng.value_of(key)
    assert dict(eng.memo.items()) == before
    assert eng.value_of(((1, 2), (4, 8, 8))) == 1


def test_killed_key_is_stored_without_a_stage_visit():
    eng = Engine()

    def no_stage(*args):
        raise AssertionError(f"stage visit {args[:2]}")

    eng._solve_for = no_stage
    key = ((0, 2), (3,) * 7)  # sum of base orders 14 > 2
    assert eng.datum.vanishes(*key)
    assert eng.value_of(key) == 0 and eng.memo.get(key) == 0
    assert eng.invariant((0, 2), [3] * 7) == 0


def test_base_cases_obey_the_vanishing_theorem():
    """Every two-point base case that the theorem kills is stored as 0."""
    datum = hilb_datum()
    killed = [
        (a, pair, want)
        for a, row in _A1_TABLE.items()
        for pair, want in row.items()
        if datum.vanishes((a, 1), pair)
    ]
    assert len(killed) == 4
    assert all(want == 0 for _a, _pair, want in killed)


def test_fibre_classes_count_plane_curves():
    """In a fibre class (0, b) the two T4 insertions carry the line class of
    the base and the T5 insertions become point conditions in the fibre
    plane, so I_(0,b)(T5^(3b-1) T4^2) = b^2 N_b; the class is not all zero
    for b >= 4."""
    eng = Engine()
    got = [eng.invariant((0, b), [5] * (3 * b - 1) + [4, 4]) for b in range(1, 9)]
    assert got[:4] == [1, 4, 108, 9920]
    assert got == [b * b * kontsevich_nd(b) for b in range(1, 9)]


# ----------------------------------------------------------------------
# packed memo keys
# ----------------------------------------------------------------------


def test_memo_codes_round_trip_every_stage_key_to_d6():
    """Every admissible key with 3 to N insertions at every class the d <= 6
    tables reach, N the most insertions they reach, the keys the base plane
    kills included, has its own code and decodes back."""
    eng = Engine()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    memo = eng.memo
    unpruned = Engine(_unpruned_hilb_datum())
    stages = _reached_stages(eng)
    top = max(n for _cls, n in stages)
    classes = sorted({cls for cls, _n in stages})
    checked = 0
    for cls, n in itertools.product(classes, range(3, top + 1)):
        keys = unpruned._stage_keys(cls, n)
        codes = {memo.code(ins) for _, ins in keys}
        assert len(codes) == len(keys), (cls, n)
        assert all(memo.decode(memo.code(ins)) == ins for _, ins in keys)
        checked += len(keys)
    assert checked > 50000


def test_memo_rejects_keys_over_255_insertions():
    datum = hilb_datum()
    store = MemoStore(datum.nondivisors)
    full = ((1, 1), (3,) * 255)
    store.set(full, 7)  # a digit may reach 255 without spilling over
    assert store.decode(store.code(full[1])) == full[1]
    assert store.get(full) == 7 and store.get(((1, 1), (4,))) is None
    for bad in ((3,) * 256, (3,) * 200 + (8,) * 56):
        with pytest.raises(ValueError):
            store.code(bad)
        with pytest.raises(ValueError):
            store.set(((1, 1), bad), 1)
        with pytest.raises(ValueError):
            store.get(((1, 1), bad))
    assert len(store) == 1
    # through the engine: an admissible 256-insertion key is a usage error
    b = 1
    while datum.weight_budget((0, b)) < 256:
        b += 1
    eng = Engine(datum)
    budget = datum.weight_budget((0, b))
    with pytest.raises(ValueError):
        eng.invariant((0, b), [4] * budget)


def test_memo_rejects_divisor_insertions():
    store = MemoStore(hilb_datum().nondivisors)
    for bad in ((1, 3), (0,), (9,), (True,)):
        with pytest.raises(ValueError):
            store.code(bad)


# ----------------------------------------------------------------------
# stage solving
# ----------------------------------------------------------------------


def test_solved_examples(engine):
    assert engine.invariant((1, 2), [4] * 7) == 0
    assert engine.invariant((1, 2), [4, 8, 8]) == 1
    assert engine.invariant((2, 3), [4] * 10) == 0
    assert engine.invariant((1, 4), [4] * 13) == 27
    assert engine.invariant((2, 4), [4] * 13) == 162


def test_invariant_returns_normal_form(engine):
    """Engine.invariant returns an int when the value is integral and a Rat
    only for a true fraction, also when multilinear terms carry Rat
    coefficients."""
    value = engine.invariant((1, 4), [4] * 13)
    assert type(value) is int and value == 27
    assert type(engine.invariant((1, 1), [6, 6])) is int
    assert type(engine.invariant((2, 2), [1, 2])) is int  # no key survives
    third = engine.invariant((3, 0), [3])
    assert type(third) is Rat and third == rat(1, 3)
    half6 = [rat(1, 2) if e == 6 else 0 for e in range(9)]
    two7 = [2 if e == 7 else 0 for e in range(9)]
    mixed = engine.invariant((1, 1), [half6, two7])
    assert type(mixed) is int and mixed == engine.invariant((1, 1), [6, 7])
    assert engine.invariant((1, 1), [half6, half6]) == rat(1, 4)


def _assert_every_reached_stage_closes(eng):
    """solve_stage on every stage the engine has reached leaves no
    admissible key of those stages out of the memo."""
    stages = _reached_stages(eng)
    assert stages, eng.datum.name
    for cls, n in stages:
        eng.solve_stage(cls, n)
    for cls, n in stages:
        missing = [k for k in eng._stage_keys(cls, n) if k not in eng.memo]
        assert not missing, (eng.datum.name, cls, n, missing[:3])


def test_solve_stage_fills_every_admissible_key():
    """The lead harvest, the engine's only one, closes every admissible key
    of every stage that the d <= 4 tables of Hilb^2 and the d <= 8 counts
    of P^2 reach, not just the keys those queries asked for."""
    for datum, solve in (
        (hilb_datum(), _hilb_tables_to_d4),
        (p2_datum(), _plane_counts_to_d8),
    ):
        eng = Engine(datum)
        solve(eng)
        _assert_every_reached_stage_closes(eng)


def test_solve_stage_stores_low_stages_as_base_cases():
    """Every key of a stage with n <= 2 is a base case: solve_stage stores
    it without a stage visit, where it once reached the solver and raised
    UnderdeterminedStage."""
    eng = Engine()

    def no_stage(*args):
        raise AssertionError(f"stage visit {args[:2]}")

    eng._solve_for = no_stage
    stored = 0
    for cls in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (4, 2)):
        for n in (0, 1, 2):
            eng.solve_stage(cls, n)
            for key in eng._stage_keys(cls, n):
                assert eng.memo.get(key) == eng.datum.base_case(*key), key
                stored += 1
    assert stored > 10


def test_tables_retain_no_solver_and_share_partition_pairs():
    """After the d <= 4 tables the memo is the only stage store: no
    ExactLinearSolver outlives its stage visit, and equal (code, mult)
    pairs of the partition groups are one shared object."""
    eng = Engine()
    _hilb_tables_to_d4(eng)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, ExactLinearSolver)]
    entries = [
        pair
        for _code, _w, groups in eng._partition_cache.values()
        for grp in groups.values()
        for pair in grp
    ]
    ids = {id(pair) for pair in entries}
    assert len(ids) < len(entries)
    assert len(ids) == len(set(entries))


@pytest.mark.slow
def test_d8_tables_and_every_d6_stage_close():
    """Opt-in (``-m slow``): the d <= 8 tables for l = 0, 1, 2, where no
    fixture exists past d = 7, checked against the N_8 oracle and the
    boundary vanishing E^l(8, 7) = 0 (integrality and positivity are
    checked by invert_counts itself); then every admissible key of every
    stage that the d <= 6 tables reach."""
    eng = Engine()
    tables = {}
    for d in range(2, 9):
        for l in (0, 1, 2):
            tables[(d, l)] = invert_counts(eng, d, l)
    for l in (0, 1, 2):
        for (d, g), want in COUNT_TABLES[l].items():
            assert tables[(d, l)].counts[g] == want, (d, g, l)
        assert tables[(8, l)].counts[7] == 0, l
    assert tables[(8, 2)].counts[0] == kontsevich_nd(8) == 13525751027392
    del eng, tables

    eng = Engine()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    _assert_every_reached_stage_closes(eng)


def test_solver_substitutes_and_solves_one_unknown():
    """``_build`` substitutes every solved key, so the solver gets one key
    and writes its exact value straight into the memo."""
    a, b = ((1, 1), (3, 8)), ((1, 1), (4, 8))
    memo = MemoStore(hilb_datum().nondivisors)
    solver = ExactLinearSolver(memo)
    solver.add({a: 3}, -1)  # 3a - 1 = 0
    assert memo.get(a) == rat(1, 3) and type(memo.get(a)) is Rat
    solver.add({b: 2}, 2)  # 2b + 2 = 0
    assert memo.get(b) == -1 and type(memo.get(b)) is int
    solver.add({}, 0)  # 0 = 0 holds
    with pytest.raises(InconsistentSystem):
        solver.add({}, 1)  # 0 = 1
    with pytest.raises(InconsistentSystem):
        solver.add({a: 3}, 0)  # a = 0 contradicts the stored 1/3
    assert dict(memo.items()) == {a: rat(1, 3), b: -1}


def test_solver_rejects_two_unknowns():
    memo = MemoStore(hilb_datum().nondivisors)
    solver = ExactLinearSolver(memo)
    with pytest.raises(UnderdeterminedStage):
        solver.add({((1, 1), (3, 8)): 1, ((1, 1), (4, 8)): 1}, 2)
    assert len(memo) == 0


def test_lead_equation_cycle_raises(monkeypatch):
    """If two keys' lead equations each held the other's key, substitution
    could not order them: the harvest raises instead of looping or solving
    one from the other's equation."""
    eng = Engine()
    k1, k2 = ((1, 2), (3, 4, 8)), ((1, 2), (4, 5, 7))
    monkeypatch.setattr(
        Engine,
        "_spec_unknowns",
        lambda self, cls, spec: [k1, k2],
    )
    with pytest.raises(UnderdeterminedStage, match="cycle"):
        eng._solve_for((1, 2), 3, (k1,))
    assert k1 not in eng.memo and k2 not in eng.memo


def test_harvest_queues_each_spec_after_its_other_unknowns():
    """Over the d <= 5 tables, every unknown of a queued lead spec other
    than its own key is in the memo or was queued earlier in the same
    visit, each equation the drain hands the solver holds exactly one key,
    the spec's own, and the visit leaves every queued key in the memo."""

    class Recording(Engine):
        def __init__(self):
            super().__init__()
            self.owner = {}  # (cls, spec) -> key
            self.built = {}  # (cls, spec) -> keys of its equation
            self.visits = self.specs = self.equations = 0

        def _lead_spec(self, key):
            spec = super()._lead_spec(key)
            self.owner[(key[0], spec)] = key
            return spec

        def _harvest_closure(self, cls, st, seeds):
            super()._harvest_closure(cls, st, seeds)
            queued = set()
            for spec in st.seen:
                key = self.owner[(cls, spec)]
                for nb in self._spec_unknowns(cls, spec):
                    assert nb == key or nb in self.memo or nb in queued, (
                        cls, spec, nb
                    )
                queued.add(key)
            self.visits += 1
            self.specs += len(queued)

        def _build(self, cls, frame, extras, stage_n):
            terms, const = super()._build(cls, frame, extras, stage_n)
            self.built[(cls, (frame, extras))] = set(terms)
            return terms, const

        def _drain(self, cls, n, st):
            super()._drain(cls, n, st)
            for spec in st.seen:
                key = self.owner[(cls, spec)]
                assert self.built[(cls, spec)] == {key}, (cls, spec)
                assert key in self.memo, key
                self.equations += 1

    eng = Recording()
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    assert eng.visits >= 100 and eng.specs >= 500
    assert eng.equations == eng.specs


def test_d5_tables_build_at_most_1434_equations():
    """The d <= 5 tables in the CLI's query order build at most 1,434
    equations, one per harvested key, and the same number on every run."""

    class Counting(Engine):
        builds = 0

        def _build(self, cls, frame, extras, stage_n):
            self.builds += 1
            return super()._build(cls, frame, extras, stage_n)

    counts = []
    for _run in range(2):
        eng = Counting()
        for l in (0, 1, 2):
            for d in range(2, 6):
                invert_counts(eng, d, l)
        counts.append(eng.builds)
    assert counts[0] == counts[1] <= 1434


def test_lead_spec_fits_every_key():
    """Every multiset of 3 to 15 insertions from T3..T8, and every plane
    key with 3 to 15 insertions, has a lead spec whose equation holds the
    key."""
    for datum, nondivisors in ((hilb_datum(), range(3, 9)), (p2_datum(), (2,))):
        eng = Engine(datum)
        cup_terms = datum.cup_terms
        count = 0
        for n in range(3, 16):
            for ins in itertools.combinations_with_replacement(nondivisors, n):
                (dv, rho, u, v), extras = eng._lead_spec(((1,) * datum.rank, ins))
                assert len(extras) == n - 3
                assert any(
                    tuple(sorted(extras + (u, v, m))) == ins
                    for m, _c in cup_terms[dv][rho]
                ), ins
                count += 1
        assert count == (54236 if datum.rank == 2 else 13)


def _sub_multisets(ins):
    return math.prod(m + 1 for m in Counter(ins).values())


def test_lead_spec_fills_its_free_slots_with_the_rarest_insertions():
    """Every multiset of 3 to 10 insertions from T3..T8 whose lead spec is
    not the fallback leaves extras with the fewest sub-multisets,
    prod(m + 1) over the multiplicities m, of every (u, v) its frame allows:
    v any insertion besides t (one in vkill when rho is not a divisor), u
    any one after v.  Fewer sub-multisets mean fewer partitions A|B for the
    split sum to walk."""
    eng = Engine()
    tops = {(dv, rho): (t, vkill) for t, (dv, rho, vkill) in eng._lead_rows.items()}
    checked = 0
    for n in range(3, 11):
        for ins in itertools.combinations_with_replacement(range(3, 9), n):
            (dv, rho, u, v), extras = eng._lead_spec(((1, 1), ins))
            t, vkill = tops[(dv, rho)]
            if vkill is not None and v not in vkill:
                continue  # the fallback frame
            rest = list(ins)
            rest.remove(t)
            best = None
            for v2 in set(rest):
                if vkill is not None and v2 not in vkill:
                    continue
                rem = list(rest)
                rem.remove(v2)
                for u2 in set(rem):
                    left = list(rem)
                    left.remove(u2)
                    size = _sub_multisets(left)
                    best = size if best is None else min(best, size)
            assert _sub_multisets(extras) == best, (ins, (dv, rho, u, v), extras)
            checked += 1
    assert checked == 7972  # the other 8 multisets take the fallback frame


def test_pure_top_pair_keys_solve_via_forward_frame(engine):
    """Keys made only of index 7 admit no frame that rules out the second
    family of same-stage unknowns; the forward-referencing frame must still
    let the stage solve, and the solved values must satisfy full relations."""
    key = ((2, 3), (7, 7, 7, 7, 7))
    frame, extras = engine._lead_spec(key)
    assert frame == (1, 5, 7, 7) and extras == (7, 7)
    assert engine.value_of(key) == 0
    assert engine.value_of(((1, 5), (7,) * 8)) == 1
    assert engine.wdvv_residual((2, 3), (1, 5, 7, 7), (7, 7)) == 0
    assert engine.wdvv_residual((2, 3), (2, 6, 7, 7), (7, 7)) == 0
    assert engine.wdvv_residual((1, 5), (2, 7, 7, 7), (7,) * 5) == 0


def test_memo_values_are_in_normal_form(engine):
    """Every memo value is an int, or a Rat that is a true fraction."""
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(engine, d, l)
    values = [v for _, v in engine.memo.items()]
    assert values
    bad = [
        v for v in values
        if not (type(v) is int or (type(v) is Rat and v.denominator != 1))
    ]
    assert not bad, bad[:5]
    assert any(type(v) is Rat for v in values)


def test_memo_set_normalises_integral_rationals():
    store = MemoStore(hilb_datum().nondivisors)
    store.set(((1, 1), (3, 8)), rat(4, 2))
    assert type(store.get(((1, 1), (3, 8)))) is int


def test_memo_rejects_contradiction():
    store = MemoStore(hilb_datum().nondivisors)
    key = ((1, 1), (3, 8))
    store.set(key, rat(1))
    store.set(key, rat(1))  # idempotent
    with pytest.raises(InconsistentSystem):
        store.set(key, rat(2))


def test_linear_form_zero_detection():
    assert LinearForm({}, rat(0)).is_zero()
    assert not LinearForm({}, rat(1)).is_zero()
    assert not LinearForm({((1, 1), (3, 8)): rat(1)}, rat(0)).is_zero()


def test_linear_form_defaults_are_fresh_and_equality_compares_fields():
    key = ((1, 1), (3, 8))
    a, b = LinearForm(), LinearForm()
    a.terms[key] = rat(1)
    assert b.terms == {} and b.constant == 0
    form = LinearForm({key: rat(1)}, rat(2))
    assert form == LinearForm(terms={key: rat(1)}, constant=rat(2))
    assert form != LinearForm({key: rat(1)}, rat(3))
    assert form != LinearForm({key: rat(2)}, rat(2))
    assert form != ({key: rat(1)}, rat(2))


# ----------------------------------------------------------------------
# randomized property suites
# ----------------------------------------------------------------------


def test_property_permutation_invariance(engine):
    failures, _ = check_permutation_invariance(
        engine, random.Random(0x5EED01), samples=200
    )
    assert not failures, failures[:3]


def test_property_dimension_vanishing(engine):
    failures, _ = check_dimension_vanishing(
        engine, random.Random(0x5EED02), samples=200
    )
    assert not failures, failures[:3]


def test_property_effectivity_rejection(engine):
    failures, _ = check_effectivity_rejection(engine)
    assert not failures, failures


def test_property_divisor_axiom(engine):
    failures, _ = check_divisor_axiom(engine, random.Random(0x5EED03), samples=100)
    assert not failures, failures[:3]


def test_property_wdvv_residuals(engine):
    failures, _ = check_wdvv_residuals(
        engine, random.Random(0x5EED04), samples=100
    )
    assert not failures, failures[:3]


# ----------------------------------------------------------------------
# the plane as a second target
# ----------------------------------------------------------------------


def test_p2_engine_two_point_seed():
    eng = Engine(p2_datum())
    assert eng.invariant((1,), [2, 2]) == 1
    assert eng.invariant((2,), [2] * 5) == 1
    assert eng.invariant((3,), [2] * 8) == 12


# ----------------------------------------------------------------------
# cache round-trip and validation
# ----------------------------------------------------------------------


def _warm_engine():
    eng = Engine()
    eng.invariant((1, 2), [4] * 7)
    eng.invariant((2, 0), [3])  # a true fraction, 3/4
    return eng


def _exported(eng):
    """The warm memo without the keys the projection to the base plane
    kills, which ``save_cache`` leaves out; each left-out key must be 0."""
    kept = {}
    for key, val in eng.memo.items():
        if eng.datum.vanishes(*key):
            assert val == 0, key
        else:
            kept[key] = val
    return kept


def _dumps_text(items, tagged=True):
    """A cache file as ``json.dumps`` writes it, holding every given key:
    the reference form of ``save_cache``, and with killed zeros among the
    keys, a file as written before they were left out."""
    payload = {
        "target": "hilb2p2",
        "entries": [
            {
                "a": cls[0],
                "b": cls[1],
                "ins": list(ins),
                "num": str(val.numerator),
                "den": str(val.denominator),
            }
            for (cls, ins), val in items
        ],
    }
    if tagged:
        payload["schema"] = CACHE_SCHEMA
    return json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"


def test_cache_roundtrip(tmp_path):
    eng = _warm_engine()
    path = tmp_path / "cache.json"
    written = eng.save_cache(path)
    kept = _exported(eng)
    assert written == len(kept) and 0 < written < len(eng.memo)

    fresh = Engine()
    loaded = fresh.load_cache(path)
    assert loaded == written
    assert dict(fresh.memo.items()) == kept
    assert {k: type(v) for k, v in fresh.memo.items()} == {
        k: type(v) for k, v in kept.items()
    }

    # deterministic bytes: saving the loaded store reproduces the file
    path2 = tmp_path / "cache2.json"
    fresh.save_cache(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_file_carries_schema_tag(tmp_path):
    path = tmp_path / "cache.json"
    _warm_engine().save_cache(path)
    assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA == "hilb2gw-cache/1"


def test_cache_bytes_are_the_json_dumps_form(tmp_path):
    """``save_cache`` writes exactly what ``json.dumps`` writes for the kept
    entries, on a memo with ints, negative ints and true fractions."""
    eng = Engine()
    for d in range(2, 5):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    kept = _exported(eng)
    values = list(kept.values())
    assert any(type(v) is int and v < 0 for v in values)
    assert any(type(v) is Rat for v in values)
    assert Rat(3, 4) in values  # I_(2,0)(T3) = 3/a^2
    path = tmp_path / "d4.json"
    assert eng.save_cache(path) == len(kept)
    assert path.read_text() == _dumps_text(sorted(kept.items()))


def test_cache_loads_untagged_legacy_file(tmp_path):
    """Files written before the schema tag existed, or before killed keys
    were left out, still load; they re-export tagged and without the killed
    zeros, byte for byte as a new export."""
    eng = _warm_engine()
    tagged = tmp_path / "tagged.json"
    eng.save_cache(tagged)
    for is_tagged in (False, True):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(_dumps_text(eng.memo.items(), tagged=is_tagged))
        fresh = Engine()
        assert fresh.load_cache(legacy) == len(eng.memo)
        assert dict(fresh.memo.items()) == dict(eng.memo.items())
        again = tmp_path / "again.json"
        assert fresh.save_cache(again) == len(_exported(eng))
        assert again.read_bytes() == tagged.read_bytes()


def _entry(cls, ins, num="1", den="1"):
    return {"a": cls[0], "b": cls[1], "ins": list(ins), "num": num, "den": den}


def _write(path, entries):
    path.write_text(json.dumps({"target": "hilb2p2", "entries": entries}))


def _unsolved_entries():
    """Valid entries of a warm memo with nonzero values no base case gives."""
    eng = _warm_engine()
    out = [
        _entry(cls, ins, str(v.numerator), str(v.denominator))
        for (cls, ins), v in eng.memo.items()
        if v != 0 and eng.datum.base_case(cls, ins) is None
    ]
    assert len(out) >= 3
    return out


@pytest.mark.parametrize(
    "bad, error",
    [
        (_entry((1, 1), (8, 3)), CacheFormatError),  # unsorted
        (_entry((1, 1), (3, 8), num="5"), InconsistentSystem),  # base case is 1
        (_entry((0, 2), (3,) * 7), InconsistentSystem),  # killed, not 0
    ],
    ids=["unsorted", "base-case", "killed"],
)
def test_failed_cache_load_leaves_the_memo_untouched(tmp_path, bad, error):
    eng = Engine()
    eng.invariant((2, 0), [3])
    eng.invariant((1, 1), [4, 4, 4])
    before = dict(eng.memo.items())
    path = tmp_path / "last_bad.json"
    _write(path, _unsolved_entries() + [bad])
    with pytest.raises(error):
        eng.load_cache(path)
    assert len(eng.memo) == len(before)
    assert dict(eng.memo.items()) == before


def test_cache_conflict_with_the_memo_loads_nothing(tmp_path):
    entries = _unsolved_entries()
    eng = Engine()
    first = entries[0]
    cls, ins = (first["a"], first["b"]), tuple(first["ins"])
    eng.invariant(cls, ins)
    before = dict(eng.memo.items())
    lie = dict(first, num=str(int(first["num"]) + 1))
    path = tmp_path / "conflict.json"
    _write(path, entries[1:] + [lie])
    with pytest.raises(InconsistentSystem):
        eng.load_cache(path)
    assert dict(eng.memo.items()) == before


@pytest.mark.parametrize(
    "raw",
    [
        b"[" * 200000,
        b'{"target": "hilb2p2", "entries": [], "x": "\xff"}',
        b'{"target": "hilb2p2", "entries": [], "x": ' + b"1" * 5000 + b"}",
    ],
    ids=["nested-too-deep", "not-utf-8", "huge-int-literal"],
)
def test_unparsable_cache_file_is_a_format_error(tmp_path, raw):
    """JSON nested past the parser's recursion limit, bytes that are not
    UTF-8 and an int literal past CPython's digit limit raise
    CacheFormatError, like any other text that is not JSON."""
    eng = _warm_engine()
    before = dict(eng.memo.items())
    path = tmp_path / "unparsable.json"
    path.write_bytes(raw)
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)
    assert dict(eng.memo.items()) == before


def test_cache_path_must_not_be_a_file_descriptor(monkeypatch):
    """``open`` takes an int as a file descriptor and closes it afterwards;
    an int or bool path raises ValueError before anything is opened."""
    eng = _warm_engine()
    before = dict(eng.memo.items())
    r, w = os.pipe()
    try:
        os.write(w, b"{}")
        with pytest.raises(ValueError, match="must name a file"):
            eng.save_cache(w)
        with pytest.raises(ValueError, match="must name a file"):
            eng.load_cache(r)
        os.write(w, b"[]")  # both ends are still open and unread
        assert os.read(r, 8) == b"{}[]"
    finally:
        os.close(r)
        os.close(w)
    # True and False are fds 1 and 0: make opening them fail the test
    def no_open(*args, **kwargs):
        raise AssertionError(f"opened {args[0]!r}")

    monkeypatch.setattr(engine_module, "open", no_open, raising=False)
    for fd in (True, False):
        for method in (eng.save_cache, eng.load_cache):
            with pytest.raises(ValueError, match="must name a file"):
                method(fd)
    assert dict(eng.memo.items()) == before


@pytest.mark.parametrize(
    "fields",
    [{"ins": [3.0, 8]}, {"ins": [True, 8]}, {"a": True}, {"b": 1.0}],
    ids=["float-ins", "bool-ins", "bool-class", "float-class"],
)
def test_cache_type_check_precedes_the_validation_caches(tmp_path, fields):
    """3.0 and True hash and compare like 3 and 1, so a second entry that
    repeats a validated class or insertion list in those types must still
    fail."""
    good = _entry((1, 1), (3, 8))
    bad = dict(good, **fields)
    path = tmp_path / "trap.json"
    _write(path, [good, bad])
    eng = Engine()
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)
    assert len(eng.memo) == 0


def test_cache_entries_of_one_key_must_agree(tmp_path):
    entry = _unsolved_entries()[0]
    path = tmp_path / "twice.json"
    _write(path, [entry, dict(entry)])
    eng = Engine()
    assert eng.load_cache(path) == 2 and len(eng.memo) == 1
    _write(path, [entry, dict(entry, num=str(int(entry["num"]) + 1))])
    eng = Engine()
    with pytest.raises(InconsistentSystem):
        eng.load_cache(path)
    assert len(eng.memo) == 0


@pytest.mark.parametrize("tag", ["hilb2gw-cache/2", "hilb2gw/1", "", None, 1])
def test_cache_rejects_unknown_schema_tag(tmp_path, tag):
    path = tmp_path / "tagged.json"
    entry = {"a": 1, "b": 1, "ins": [3, 8], "num": "1", "den": "1"}
    path.write_text(
        json.dumps({"schema": tag, "target": "hilb2p2", "entries": [entry]})
    )
    eng = Engine()
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)
    assert len(eng.memo) == 0


def test_cache_rejects_malformed_payloads(tmp_path):
    path = tmp_path / "bad.json"
    eng = Engine()

    path.write_text("not json at all")
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)

    for not_an_object in ("[1,2]", "3", '"hilb2p2"', "null"):
        path.write_text(not_an_object)
        with pytest.raises(CacheFormatError):
            eng.load_cache(path)

    path.write_text(json.dumps({"target": "elsewhere", "entries": []}))
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)

    # non-canonical insertions: unsorted
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {"a": 1, "b": 1, "ins": [8, 3], "num": "1", "den": "1"}
                ],
            }
        )
    )
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)

    # divisor inside the key
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {"a": 1, "b": 1, "ins": [1, 3], "num": "1", "den": "1"}
                ],
            }
        )
    )
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)

    # weight-inadmissible key
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    {"a": 1, "b": 1, "ins": [3, 3, 8], "num": "1", "den": "1"}
                ],
            }
        )
    )
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"ins": "38"},
        {"ins": ["3", "8"]},
        {"ins": [3.0, 8]},
        {"ins": [True, 8]},
        {"ins": {"3": 8}},
        {"ins": None},
        {"a": "1"},
        {"b": 1.0},
        {"a": True},
    ],
)
def test_cache_rejects_entries_that_are_not_json_ints(tmp_path, fields):
    entry = {"a": 1, "b": 1, "ins": [3, 8], "num": "1", "den": "1"}
    entry.update(fields)
    path = tmp_path / "loose.json"
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    eng = Engine()
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)
    assert len(eng.memo) == 0


@pytest.mark.parametrize(
    "fields",
    [
        {"num": 2},
        {"num": 2.5},
        {"num": 1.9},
        {"num": float("inf")},
        {"num": None},
        {"den": 1},
        {"den": 1.0},
    ],
    ids=["int-num", "float-num", "float-num-low", "inf-num", "null-num",
         "int-den", "float-den"],
)
def test_cache_rejects_values_that_are_not_decimal_strings(tmp_path, fields):
    """``int()`` would truncate 2.5 to 2 on a key no base case pins, and
    ``json.load`` reads ``Infinity``, so num and den must be strings."""
    good = _unsolved_entries()[0]
    path = tmp_path / "numbers.json"
    _write(path, [good, dict(good, **fields)])
    eng = Engine()
    with pytest.raises(CacheFormatError):
        eng.load_cache(path)
    assert len(eng.memo) == 0


def test_cache_load_writes_every_key_through_set(tmp_path, monkeypatch):
    """The bulk load writes the memo by ``MemoStore.set`` like every other
    write, once per distinct key, so a wrapper around ``set`` sees it."""
    path = tmp_path / "warm.json"
    _warm_engine().save_cache(path)
    written = []
    original = MemoStore.set

    def counting_set(store, key, value):
        written.append(key)
        return original(store, key, value)

    monkeypatch.setattr(MemoStore, "set", counting_set)
    eng = Engine()
    count = eng.load_cache(path)
    assert len(written) == len(set(written)) == count == len(eng.memo)
    assert sorted(written) == [key for key, _ in eng.memo.items()]


def test_cache_rejects_nonzero_value_of_a_killed_key(tmp_path):
    path = tmp_path / "killed.json"
    entry = {"a": 0, "b": 2, "ins": [3] * 7, "num": "1", "den": "1"}
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    with pytest.raises(InconsistentSystem):
        Engine().load_cache(path)
    entry["num"] = "0"
    path.write_text(json.dumps({"target": "hilb2p2", "entries": [entry]}))
    assert Engine().load_cache(path) == 1


def test_cache_value_contradiction_is_inconsistency(tmp_path):
    path = tmp_path / "contradiction.json"
    path.write_text(
        json.dumps(
            {
                "target": "hilb2p2",
                "entries": [
                    # the two-point table pins this to 1, not 5
                    {"a": 1, "b": 1, "ins": [3, 8], "num": "5", "den": "1"}
                ],
            }
        )
    )
    eng = Engine()
    with pytest.raises(InconsistentSystem):
        eng.load_cache(path)

