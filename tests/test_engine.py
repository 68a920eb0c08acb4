"""Engine tests: base cases, normalization, equation building, stage
solving, the packed memo keys, the randomized property suites, and
caching."""

import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

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
from hilb2gw.oracles import boundary_value
from hilb2gw.rationals import Rat, qnorm

from properties_util import (
    check_dimension_vanishing,
    check_divisor_axiom,
    check_effectivity_rejection,
    check_permutation_invariance,
    check_wdvv_residuals,
    rescaled_hilb_datum,
)


# ----------------------------------------------------------------------
# base cases and normalization
# ----------------------------------------------------------------------


def test_base_case_values(engine):
    assert engine.invariant((2, 1), [6, 6]) == 4
    assert engine.invariant((3, 0), [3]) == Rat(1, 3)
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
        assert engine.invariant((a, 0), [3]) == Rat(3, a * a)
        assert engine.invariant((a, 0), [4]) == 0
        assert engine.invariant((a, 0), [5]) == Rat(-3, a * a)


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
        lambda eng: Engine(p2_datum),
        lambda eng: Engine("hilb2p2"),
        lambda eng: Engine({}),
    ],
    ids=[
        "invariant-class", "invariant-insertions", "normalize-insertions",
        "row-class", "build-frame", "build-extras", "residual-extras",
        "stage-class", "stage-str", "stage-float", "stage-bool",
        "stage-negative", "datum-uncalled", "datum-str", "datum-dict",
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


def test_frame_off_the_dimension_count_gives_the_zero_form():
    """A frame and extras whose weights miss budget(cls) - 1 give the zero
    form and residual 0, and resolve, solve and plan nothing."""
    eng = Engine()
    eng.value_of(((1, 1), (6, 6)))
    memo, plans = len(eng.memo), len(eng._signature_plans)
    for cls, frame, extras in (
        ((1, 3), (1, 4, 4, 5), (4, 4)),  # 5 of the 9 the count asks for
        ((1, 1), (1, 3, 4, 5), (4,)),  # 4 of 3
        ((1, 2), (8, 8, 8, 8), (8, 8)),  # 18 of 6
    ):
        form = eng.build_equation(cls, frame, extras)
        assert form.is_zero() and form == LinearForm()
        assert eng.wdvv_residual(cls, frame, extras) == 0
    assert len(eng.memo) == memo
    assert len(eng._signature_plans) == plans


def test_one_split_plan_serves_frames_of_every_weight():
    """Two frames at one class with the same divisor slots and non-divisor
    sides of different weights share one split plan, and each still builds
    the plain split sum's form."""
    eng = Engine()
    cls = (1, 2)
    specs = (((2, 4, 4, 4), (4, 4, 4)), ((2, 6, 7, 4), (4,)))
    want = [_plain_equation(eng, cls, frame, extras) for frame, extras in specs]
    before = set(eng._signature_plans)
    got = []
    for frame, extras in specs:
        form = eng.build_equation(cls, frame, extras)
        got.append((form.terms, form.constant))
    assert got == want
    assert set(eng._signature_plans) - before == {(cls, (2,), ())}


def test_signature_plans_share_their_class_plans_sub_tuples():
    """Every signature plan of the d <= 5 tables filters its class plan:
    each split keeps the class plan's own ``sub`` tuple, the same object,
    and a nonzero frame-divisor multiplier.  The plan's lcd is the lcm of
    its splits' denominators, and each split's scale lcd / den is one int
    object per distinct denominator of the plan."""
    eng = Engine()
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    pos = eng.datum.divisor_pos
    shared = 0
    fractional = 0
    for (cls, div1, div2), (lcd, splits) in eng._signature_plans.items():
        plan = {
            (b1, b2): (den, sub)
            for _v1, _v2, b1, b2, den, sub in eng._class_plans[cls]
        }
        scales = {}
        dens = []
        for _v1, _v2, b1, b2, m, scale, sub in splits:
            den, class_sub = plan[(b1, b2)]
            assert sub is class_sub, (cls, div1, div2, b1, b2)
            assert m == math.prod(b1[pos[x]] for x in div1) * math.prod(
                b2[pos[x]] for x in div2
            ) != 0
            assert scale * den == lcd
            assert scales.setdefault(den, scale) is scale
            dens.append(den)
            shared += 1
        assert lcd == math.lcm(*dens)
        fractional += lcd > 1
    assert len(eng._signature_plans) > len(eng._class_plans)
    assert shared > 500
    assert fractional > 0


def test_split_sum_skips_zero_classes_and_matches_the_plain_sum():
    """At (3, 2) and (4, 2) the splits include the zero classes (a, 1),
    a >= 3.  The lead equations of the stages n = 3..6 there build the plain
    split sum's form, which values those keys as 0, while the class plans
    leave the zero classes out, so building alone stores none of their
    keys."""
    datum = hilb_datum()
    probe = Engine()
    specs = set()
    for cls in ((3, 2), (4, 2)):
        assert any(datum.zero_class(b1) for b1, _b2 in datum.splits(cls))
        for n in range(3, 7):
            for _cls, ins in probe._stage_keys(cls, n):
                specs.add((cls, probe._lead_spec(ins)))
    assert len(specs) >= 100
    plain, built = Engine(), Engine()
    for cls, (frame, extras) in sorted(specs):
        want = _plain_equation(plain, cls, frame, extras)
        form = plain.build_equation(cls, frame, extras)
        assert (form.terms, form.constant) == want, (cls, frame, extras)
        built.build_equation(cls, frame, extras)
    assert any(datum.zero_class(cls) for (cls, _ins), _v in plain.memo.items())
    assert not any(datum.zero_class(cls) for (cls, _ins), _v in built.memo.items())
    for plan in built._class_plans.values():
        for _v1, _v2, b1, b2, _den, _sub in plan:
            assert not datum.zero_class(b1) and not datum.zero_class(b2)


def test_split_sum_rescales_closed_classes_like_the_plain_sum():
    """The split sum reads each closed class (a, 0) from a table of its
    values times a^2 and divides once per ordering.  At (2, 1), (3, 2) and
    (4, 2), whose splits have sides (a, 0) with a >= 2, the lead equations
    of the stages n = 3..6 build the plain split sum's form on a fresh
    engine, and building stores no closed key.  On Hilb^2 the fractions of
    each ordering cancel, so every constant is an int; with I_(2,0)(T3)
    changed to 1/3 they do not, and the forms, true-fraction constants
    among them, still match."""
    probe = Engine()
    specs = sorted({
        (cls, probe._lead_spec(ins))
        for cls in ((2, 1), (3, 2), (4, 2))
        for n in range(3, 7)
        for _cls, ins in probe._stage_keys(cls, n)
    })
    assert len(specs) >= 250
    fractions = []
    for datum in (hilb_datum(), rescaled_hilb_datum(Rat(1, 3))):
        plain, built = Engine(datum), Engine(datum)
        count = 0
        for cls, (frame, extras) in specs:
            want = _plain_equation(plain, cls, frame, extras)
            form = built.build_equation(cls, frame, extras)
            assert (form.terms, form.constant) == want, (cls, frame, extras)
            count += type(form.constant) is Rat
        assert not any(cls[1] == 0 for (cls, _ins), _v in built.memo.items())
        fractions.append(count)
    assert fractions[0] == 0 and fractions[1] > 0


def test_plane_closed_class_is_integral_and_keeps_the_counts():
    """On the plane the one closed class is (1,), whose one key
    I(pt, pt) = 1 is an int: its table has D = 1, no signature plan
    divides, and the engine still gives N_d for d <= 8."""
    eng = Engine(p2_datum())
    got = [engine_nd(d, eng) for d in range(1, 9)]
    assert got == [kontsevich_nd(d) for d in range(1, 9)]
    assert eng._closed == {(1,): ({eng.memo.code((2, 2)): 1}, 1)}
    assert all(lcd == 1 for lcd, _splits in eng._signature_plans.values())


def _overdetermined_residuals(engine, amax, bmax):
    """Each ``wdvv_residual`` over every class (a, b) with a <= amax and
    b <= bmax that is not declared zero, every n = 3..4, every extras
    multiset of n - 3 non-divisors, and every frame of positive-codimension
    indices on the dimension count with j != l, lazily, class by class."""
    datum = engine.datum
    weights = datum.weights
    positive = [e for e, c in enumerate(datum.codims) if c > 0]
    frames = [f for f in itertools.product(positive, repeat=4) if f[1] != f[3]]
    for cls in itertools.product(range(amax + 1), range(bmax + 1)):
        if datum.is_zero_class(cls) or datum.zero_class(cls):
            continue
        for n in (3, 4):
            for extras in itertools.combinations_with_replacement(
                datum.nondivisors, n - 3
            ):
                need = datum.weight_budget(cls) - 1 - sum(weights[e] for e in extras)
                for frame in frames:
                    if sum(weights[e] for e in frame) == need:
                        yield engine.wdvv_residual(cls, frame, extras)


def _residual_count(engine, amax, bmax):
    """``(count, nonzero)`` of the residuals of ``_overdetermined_residuals``."""
    residuals = list(_overdetermined_residuals(engine, amax, bmax))
    return len(residuals), sum(r != 0 for r in residuals)


def test_every_frame_of_the_small_stages_closes():
    """Over-determination: each key is solved from its lead equation, so
    every other frame is an independent check of the values, the scaled
    closed-class tables included.  All 52,216 residuals at a <= 6, b <= 3
    and n = 3..4 vanish on a fresh engine; with the (2, 0) base case
    I(T3) = 3/4 changed to 3/2, thousands of the 27,268 at a <= 4, b <= 2
    do not."""
    assert _residual_count(Engine(), 6, 3) == (52216, 0)
    count, nonzero = _residual_count(Engine(rescaled_hilb_datum(Rat(3, 2))), 4, 2)
    assert count == 27268 and nonzero > 1000


_BASE_CASES = [((a, 1), ins) for a, row in _A1_TABLE.items() for ins in row] + [
    ((1, 0), (3,)),
    ((1, 0), (4,)),
    ((2, 0), (3,)),
]


@pytest.mark.parametrize(
    "cls, ins",
    [
        pytest.param(
            cls,
            ins,
            id=f"({cls[0]},{cls[1]})-" + ",".join(f"T{e}" for e in ins),
            marks=[pytest.mark.slow] if cls[0] == 2 else [],
        )
        for cls, ins in _BASE_CASES
    ],
)
def test_every_base_case_is_load_bearing(cls, ins):
    """Each of the 18 two-point values of classes (a, 1), and the (1, 0)
    values of T3 and T4 and the (2, 0) value of T3, changed by +1 on a
    copied datum, leaves a nonzero residual in the a <= 4, b <= 2 sweep of
    ``_overdetermined_residuals``, which stops at the first one.  The
    d <= 5 tables miss the change of I_(0,1)(T6, T6); this sweep catches it
    at class (0, 2).  A change at a = 2 is found only after about 12,000
    zero residuals, so those seven cases are ``slow``."""
    value = hilb_datum().base_case(cls, ins) + 1
    eng = Engine(rescaled_hilb_datum(value, (cls, ins)))
    assert any(r != 0 for r in _overdetermined_residuals(eng, 4, 2))


def _random_collapsed_monomials(datum, rng, count):
    """``count`` monomials (cls, x, y, m, extras) shaped like a collapsed
    term: x, y and m any basis indices, the fundamental class included, and
    extras sorted non-divisors drawn until they fill the budget, or
    overshoot it, or stop short of it one time in twenty."""
    nond = datum.nondivisors
    for _ in range(count):
        cls = (0,) * datum.rank
        while datum.is_zero_class(cls):
            cls = tuple(rng.randint(0, 3) for _ in range(datum.rank))
        x, y, m = (rng.randrange(datum.basis_size) for _ in range(3))
        need = datum.weight_budget(cls) - sum(
            datum.weights[e] for e in (x, y, m) if datum.codims[e] >= 2
        )
        extras = []
        while need > 0 and rng.random() > 0.05:
            e = rng.choice(nond)
            extras.append(e)
            need -= datum.weights[e]
        yield cls, x, y, m, tuple(sorted(extras))


@pytest.mark.parametrize("datum", [hilb_datum(), p2_datum()], ids=["hilb2", "p2"])
def test_canon_code_agrees_with_canon_on_random_monomials(datum):
    """``_canon`` and ``_canon_code``, which both read the per-index table
    ``Engine._units``, against a reference that does not: ``_plain_strip``,
    the datum's weight budget, ``TargetDatum.vanishes`` and ``sorted``.
    ``_canon`` gives ``{code: multiplier}`` of the reference's key, empty
    where the reference is None, and ``_canon_code`` its code, insertion
    count and multiplier, None exactly where the reference is, on random
    monomials of both targets.
    They include the fundamental class T0 on and off the budget, divisors
    of zero intersection, monomials off the budget and, on Hilb^2, keys the
    projection to the base plane kills; the plane has no base divisor, so
    no order bound."""
    eng = Engine(datum)
    rng = random.Random(20240)
    seen = Counter()
    for cls, x, y, m, extras in _random_collapsed_monomials(datum, rng, 4000):
        mono = (x, y, m) + extras
        hit = _plain_strip(datum, cls, mono)
        if (
            hit is None
            or hit[1] != datum.weight_budget(cls)
            or datum.vanishes(cls, hit[0])
        ):
            want = None
        else:
            want = tuple(sorted(hit[0])), hit[2]
        sums, _groups = eng._partition_groups(extras)
        got = eng._canon_code(cls, x, y, m, sums)
        if want is None:
            assert eng._canon(cls, mono) == {}, (cls, mono)
            assert got is None, (cls, mono)
        else:
            ins, mult = want
            code = eng.memo.code(ins)
            assert eng._canon(cls, mono) == {code: mult}, (cls, mono)
            assert got == (code, len(ins), mult), (cls, mono)
        bare = [e for e in mono if datum.codims[e] >= 2]
        on_budget = sum(datum.weights[e] for e in bare) == datum.weight_budget(cls)
        if 0 in mono:
            seen["fundamental on budget" if on_budget else "fundamental"] += 1
        elif any(
            datum.codims[e] == 1 and not cls[datum.divisor_pos[e]] for e in mono
        ):
            seen["zero intersection"] += 1
        elif not on_budget:
            seen["off budget"] += 1
        elif datum.vanishes(cls, bare):
            seen["killed"] += 1
        else:
            seen["key"] += 1
            assert want is not None
    kinds = ["fundamental", "fundamental on budget", "off budget", "key"]
    if datum.base is not None:
        kinds += ["zero intersection", "killed"]
    else:  # no divisor of the plane meets a nonzero class in 0
        assert datum.order_bound((2,), 5) == math.inf
    assert all(seen[kind] >= 50 for kind in kinds), seen


def _random_insertion_list(datum, rng, cls):
    """Non-divisors drawn until they fill the weight budget of ``cls`` or
    overshoot it, up to two divisors and now and then the fundamental
    class, shuffled; up to two entries are replaced by a cohomology vector
    (a list or a tuple) on the entry, another index of its weight and any
    index, with random nonzero coefficients, so it expands to several
    monomials and, on Hilb^2, to several keys."""
    nond = datum.nondivisors
    need = datum.weight_budget(cls)
    ins = []
    while need > 0:
        e = rng.choice(nond)
        ins.append(e)
        need -= datum.weights[e]
    ins += [rng.choice(datum.divisors) for _ in range(rng.randrange(3))]
    if rng.random() < 0.05:
        ins.append(0)
    rng.shuffle(ins)
    coeffs = (-3, -2, -1, 1, 2, 3, Rat(1, 2), Rat(-2, 3))
    for pos in rng.sample(range(len(ins)), min(len(ins), rng.randrange(3))):
        e = ins[pos]
        twin = [
            x for x in range(datum.basis_size) if datum.weights[x] == datum.weights[e]
        ]
        vec = [0] * datum.basis_size
        for x in (e, rng.choice(twin), rng.randrange(datum.basis_size)):
            vec[x] += rng.choice(coeffs)
        ins[pos] = vec if rng.random() < 0.5 else tuple(vec)
    return ins


@pytest.mark.parametrize(
    "datum, classes",
    [
        (hilb_datum(), [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 1), (1, 2)]),
        (p2_datum(), [(1,), (2,), (3,), (4,)]),
    ],
    ids=["hilb2", "p2"],
)
def test_invariant_resolves_what_normalize_expands(datum, classes):
    """``invariant``, which resolves ``_canon``'s packed codes directly,
    equals the sum of ``normalize``'s keys valued by ``value_of`` on a
    second fresh engine, on seeded random insertion lists whose vectors
    expand to several monomials and, on Hilb^2, several keys."""
    eng, ref = Engine(datum), Engine(datum)
    rng = random.Random(31)
    seen = Counter()
    for _ in range(200):
        cls = rng.choice(classes)
        ins = _random_insertion_list(datum, rng, cls)
        terms = ref.normalize(cls, ins).terms
        want = qnorm(sum(c * ref.value_of(key) for key, c in terms.items()))
        assert eng.invariant(cls, ins) == want, (cls, ins)
        seen["vector"] += any(isinstance(x, (list, tuple)) for x in ins)
        seen["several keys"] += len(terms) > 1
        seen["nonzero"] += want != 0
    assert seen["vector"] >= 50 and seen["nonzero"] >= 30, seen
    if datum.base is not None:
        assert seen["several keys"] >= 20, seen


def test_tables_make_no_caller_gate_calls(monkeypatch):
    """The d <= 6 tables resolve every key the engine forms past the
    caller's gate: no ``Engine.value_of`` and no ``Engine._key_sums``, the
    key gate that ``value_of`` and ``load_cache`` share."""
    calls = {"value_of": 0, "_key_sums": 0}
    for name in calls:
        original = getattr(Engine, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Engine, name, counted)
    eng = Engine()
    for l in (0, 1, 2):
        for d in range(2, 7):
            invert_counts(eng, d, l)
    assert len(eng.memo) > 500
    assert calls == {"value_of": 0, "_key_sums": 0}


def test_partition_groups_share_the_list_record():
    """An insertion list's sums are kept once: after the d <= 6 tables,
    the sums ``_partition_groups`` cached for every extras list are the
    very record ``(code, weight, base-order sum, count)`` that
    ``_list_sums`` holds for it, and that record is the list's own."""
    eng = Engine()
    for l in (0, 1, 2):
        for d in range(2, 7):
            invert_counts(eng, d, l)
    assert len(eng._partition_cache) >= 10
    datum = eng.datum
    for extras, (sums, _groups) in eng._partition_cache.items():
        assert sums is eng._list_sums[extras], extras
        assert sums == (
            eng.memo.code(extras),
            sum(datum.weights[e] for e in extras),
            sum(datum.base_orders[e] for e in extras),
            len(extras),
        ), extras


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
            mult *= cls[datum.divisor_pos[e]]
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
            for m, cm in enumerate(datum.cup_table[u][v]):
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
    that the engine's stage visits solved, plus any that base cases answer
    at n >= 3 (keys of the zero classes (a, 1), a >= 3, which only an
    engine without ``zero_class`` or a direct query stores)."""
    return [key for key, _ in eng.memo.items() if len(key[1]) >= 3]


def _reached_stages(eng):
    return sorted({(cls, len(ins)) for cls, ins in _memo_stage_keys(eng)})


def _hilb_tables_to_d4(eng):
    for d in range(2, 5):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)


def _hilb_tables_to_d5_then_their_stages(eng):
    """Run the d <= 5 tables, then close every stage they reach with at most
    eight insertions: the split sum solves a factor only when its partner can
    be nonzero, so the tables alone leave fewer keys to draw specs from."""
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    for cls, n in _reached_stages(eng):
        if n <= 8:
            eng.solve_stage(cls, n)


def _plane_counts_to_d8(eng):
    for d in range(1, 9):
        engine_nd(d, eng)


@pytest.mark.parametrize(
    "datum, solve, min_specs",
    [
        (hilb_datum(), _hilb_tables_to_d5_then_their_stages, 2000),
        (p2_datum(), _plane_counts_to_d8, 7),
    ],
    ids=["hilb2", "p2"],
)
def test_build_equation_matches_plain_split_sum(datum, solve, min_specs):
    """The lead spec of every memo key solved by running the d <= 5 tables
    of Hilb^2 and closing the stages they reach up to n = 8 (the d <= 8
    counts of P^2, one spec per stage) builds the same affine
    form as the plain sum, on a fresh engine where part of each stage is
    still unknown."""
    solved = Engine(datum)
    solve(solved)
    specs = sorted({
        (cls, solved._lead_spec(ins)) for cls, ins in _memo_stage_keys(solved)
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
    the equation must then send no key outside the memo to ``_resolve``,
    which every key the engine forms goes to on a memo miss."""
    solved = Engine()
    for d in range(2, 4):
        for l in (0, 1, 2):
            invert_counts(solved, d, l)
    values = dict(solved.memo.items())
    specs = sorted({
        (cls, solved._lead_spec(ins)) for cls, ins in _memo_stage_keys(solved)
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
        for (c, ins), val in values.items():
            if (c, ins) not in withheld:
                fresh.memo.set(c, fresh.memo.code(ins), val)
        misses = []
        resolve = fresh._resolve

        def counting_resolve(cls, code):
            if code not in fresh.memo.class_values(cls):
                misses.append((cls, fresh.memo.decode(code)))
            return resolve(cls, code)

        fresh._resolve = counting_resolve
        fresh.build_equation(cls, frame, extras)
        assert not misses, (cls, frame, extras, misses[:3])
        checked += 1
    assert checked >= 20


def test_tables_and_memo_values_do_not_depend_on_query_order():
    """Which keys the split sum solves depends on the query order, since a
    factor is solved only while its partner is not a stored zero; the
    tables and the value of every key both orders solve do not."""
    queries = [(d, l) for d in range(2, 8) for l in (0, 1, 2)]
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
    """The Hilb^2 datum without its base divisor or its zero classes, so
    nothing is pruned: no key is killed by the projection, and the split
    plans keep the splits into the classes (a, 1), a >= 3, whose keys the
    base cases answer with 0."""
    d = hilb_datum()
    return TargetDatum(
        name=d.name,
        codims=d.codims,
        cup_table=d.cup_table,
        anticanonical=d.anticanonical,
        base_case=d.base_case,
    )


def test_unpruned_engine_solves_every_killed_key_to_zero():
    """The vanishing theorem against the equations: an engine that prunes
    nothing solves to 0 every admissible key that the theorem kills in
    every stage its d <= 5 tables reach, and both engines give the same
    tables, though only the unpruned one walks the splits into the zero
    classes.  The tables alone solve too few keys to test, so the keys come
    from the stages, not from the memo."""
    datum = hilb_datum()
    pruned, unpruned = Engine(), Engine(_unpruned_hilb_datum())
    for d in range(2, 6):
        for l in (0, 1, 2):
            want = invert_counts(unpruned, d, l)
            got = invert_counts(pruned, d, l)
            assert (got.invariants, got.counts) == (want.invariants, want.counts)
    in_zero_class = [k for k, _v in unpruned.memo.items() if datum.zero_class(k[0])]
    assert in_zero_class and all(unpruned.memo.get(k) == 0 for k in in_zero_class)
    assert not any(datum.zero_class(k[0]) for k, _v in pruned.memo.items())
    killed = [
        key
        for cls, n in _reached_stages(unpruned)
        for key in unpruned._stage_keys(cls, n)
        if datum.vanishes(*key)
    ]
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
        ((1, 2), (4.0, 8, 8)),  # equals the solved key ((1, 2), (4, 8, 8))
        5,
        None,
    ],
)
def test_value_of_rejects_a_key_that_is_not_canonical(key):
    """A key that is not canonical and admissible raises ValueError and
    leaves the memo as it was; a non-effective class is not stored as a
    killed 0 that load_cache would refuse.  The gate runs on every call;
    the memo here misses every bad key, the float that equals a solved
    key's index included, since its codes take ints only (a bad key the
    memo does hold is in
    ``test_memo_holds_only_canonical_keys_after_the_d6_tables``)."""
    eng = Engine()
    assert eng.invariant((1, 2), [4, 8, 8]) == 1
    before = dict(eng.memo.items())
    assert ((1, 2), (6, 7, 8)) not in before
    try:
        held = eng.memo.get(key)
    except (TypeError, ValueError):  # not a pair, or not a memo code
        held = None
    assert held is None
    with pytest.raises(ValueError):
        eng.value_of(key)
    assert dict(eng.memo.items()) == before
    assert eng.value_of(((1, 2), (4, 8, 8))) == 1


def test_memo_holds_only_canonical_keys_after_the_d6_tables():
    """The keys the engine forms itself skip ``value_of``'s gate; after the
    d <= 6 tables every key the memo holds passes it, so the internal path
    stores canonical admissible keys only, and every class with a cached
    budget is admissible.  A caller's bad key still raises ValueError on
    the warm engine and stores nothing, a non-canonical order of a key the
    memo holds included."""
    eng = Engine()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    items = list(eng.memo.items())
    assert len(items) >= 600
    for key, value in items:
        assert eng.value_of(key) == value
    for cls in eng._budgets:
        assert eng._check_class(cls) == cls
    assert eng.value_of(((1, 2), (6, 7, 8))) == 1
    before = len(eng.memo)
    for bad in (
        ((1, 2), (4, 4, 9)),  # not a basis index
        ((1, 2), (4, 4, 4)),  # off the dimension budget
        ((1, 2), (4.0, 8, 8)),  # equals a solved key
        ((0, 0), (3,)),  # the zero class
        ((2, 3), (1, 4, 8)),  # a divisor insertion
        ((1, 2), (8, 7, 6)),  # a solved key out of order
    ):
        with pytest.raises(ValueError):
            eng.value_of(bad)
    assert len(eng.memo) == before


def test_boundary_keys_solve_to_their_closed_form():
    """The closed form of ``oracles.boundary_value`` against the
    equations: the engine, which does not use it, solves every key on the
    boundary of the vanishing theorem (a = 0 and a >= 1) in every stage its
    d <= 5 tables reach to that value.  The keys come from the stages."""
    datum = hilb_datum()
    eng = Engine()
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    boundary = [
        (key, value)
        for cls, n in _reached_stages(eng)
        for key in eng._stage_keys(cls, n)
        if (value := boundary_value(datum, *key)) is not None
    ]
    assert len(boundary) >= 600
    for a_zero in (True, False):
        side = [v for (cls, _ins), v in boundary if (cls[0] == 0) == a_zero]
        assert len(side) >= 20 and any(side) and not all(side)
    assert [key for key, value in boundary if eng.value_of(key) != value] == []


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
    # a digit may reach 255 without spilling over
    store.set(full[0], store.code(full[1]), 7)
    assert store.decode(store.code(full[1])) == full[1]
    assert store.get(full) == 7 and store.get(((1, 1), (4,))) is None
    for bad in ((3,) * 256, (3,) * 200 + (8,) * 56):
        with pytest.raises(ValueError):
            store.code(bad)  # the one packer: no write can take such a key
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
    for bad in ((1, 3), (0,), (9,), (True,), (4.0,), (4.0, 8, 8)):
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
    assert type(third) is Rat and third == Rat(1, 3)
    half6 = [Rat(1, 2) if e == 6 else 0 for e in range(9)]
    two7 = [2 if e == 7 else 0 for e in range(9)]
    mixed = engine.invariant((1, 1), [half6, two7])
    assert type(mixed) is int and mixed == engine.invariant((1, 1), [6, 7])
    assert engine.invariant((1, 1), [half6, half6]) == Rat(1, 4)


def _assert_every_reached_stage_closes(eng):
    """solve_stage on every stage the engine has reached leaves no
    admissible key of those stages out of the memo."""
    stages = _reached_stages(eng)
    assert stages, eng.datum.name
    for cls, n in stages:
        eng.solve_stage(cls, n)
    for cls, n in stages:
        missing = [k for k in eng._stage_keys(cls, n) if eng.memo.get(k) is None]
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


def test_tables_retain_no_solver():
    """After the d <= 4 tables the memo is the only stage store: no
    ExactLinearSolver outlives its stage visit."""
    eng = Engine()
    _hilb_tables_to_d4(eng)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, ExactLinearSolver)]


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


# E^1(d, 1) and E(d, 2) for d = 8..10, as (d, l, g): no oracle checks these
# cells yet, so they only pin the engine's values against a regression
_D8_TO_10_CELLS = {
    (8, 1, 1): 96212546526096,
    (8, 0, 2): 346860150644700,
    (9, 1, 1): 220716443548094400,
    (9, 0, 2): 1301798459308709880,
    (10, 1, 1): 702901008498298112640,
    (10, 0, 2): 6383405726993645784000,
}


def test_d10_tables_meet_their_closed_forms():
    """The d <= 10 tables for l = 0, 1, 2 on one cold engine, past the
    frozen d <= 7 fixtures, against the closed forms with no fitted term:
    E^2(d, 0) = N_d (Kontsevich), E(d, d - 2) = 27 C(d, 4) and
    E^2(d, d - 2) = 1 (curves with a (d - 2)-fold point), and
    E^l(d, d - 1) = 0 (the vanishing theorem).  E^1(d, d - 2) is left out:
    its excess term is read off the engine's values, not derived.  The six
    cells of _D8_TO_10_CELLS have no oracle yet; integrality and sign are
    all that invert_counts checks of them.  The same run, in the query
    order of ``hilb2gw cache export``, pins the harvest's walk: it builds
    2,700 equations and leaves 3,051 memo entries, none of a closed class
    (a, 0), whose keys the split sum reads from its own tables."""

    class Counting(Engine):
        builds = 0

        def _build(self, cls, frame, extras):
            self.builds += 1
            return super()._build(cls, frame, extras)

    eng = Counting()
    counts = {
        (d, l): invert_counts(eng, d, l).counts
        for d in range(2, 11)
        for l in (0, 1, 2)
    }
    assert (eng.builds, len(eng.memo)) == (2700, 3051)
    assert not any(cls[1] == 0 for (cls, _ins), _v in eng.memo.items())
    for d in range(2, 11):
        assert counts[(d, 2)][0] == kontsevich_nd(d), d
        assert counts[(d, 0)][d - 2] == 27 * math.comb(d, 4), d
        assert counts[(d, 2)][d - 2] == 1, d
        assert [counts[(d, l)][d - 1] for l in (0, 1, 2)] == [0, 0, 0], d
    for (d, l, g), want in _D8_TO_10_CELLS.items():
        assert counts[(d, l)][g] == want, (d, l, g)


def test_d10_tables_fit_a_recursion_limit_of_200():
    """The harvest builds each lead equation inside its walk, so a key's
    walk, its build and the lower stages that build visits share one
    Python stack.  The d <= 10 tables on a cold engine peak at 111 frames;
    in a fresh interpreter under ``sys.setrecursionlimit(200)`` they must
    still finish, with the 3,051 memo entries of a default-limit run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from hilb2gw import Engine, invert_counts\n"
        "sys.setrecursionlimit(200)\n"
        "eng = Engine()\n"
        "for d in range(2, 11):\n"
        "    for l in (0, 1, 2):\n"
        "        invert_counts(eng, d, l)\n"
        "print(len(eng.memo))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["3051"]


def test_classes_past_the_line_a_eq_2b_vanish_on_every_stage_key():
    """Evidence, not a declaration: every admissible key of every stage of
    each class (a, b) with a > 2b and b >= 2 that the d <= 10 tables reach
    solves to 0 on a fresh engine.  ``TargetDatum.zero_class`` declares
    only b = 1; the engine still solves these classes in full."""
    tables = Engine()
    for d in range(2, 11):
        for l in (0, 1, 2):
            invert_counts(tables, d, l)
    classes = [(a, b) for a, b in tables.memo.classes() if a > 2 * b and b >= 2]
    assert classes == [
        (5, 2), (6, 2), (7, 2), (7, 3), (8, 2), (8, 3), (9, 2), (9, 3), (9, 4)
    ]
    eng = Engine()
    keys = 0
    for cls in classes:
        for n in range(eng.datum.weight_budget(cls) + 1):
            eng.solve_stage(cls, n)
            for key in eng._stage_keys(cls, n):
                assert eng.memo.get(key) == 0, key
                keys += 1
    assert keys == 3477


def test_solver_substitutes_and_solves_one_unknown():
    """The solver substitutes the memo's values of the keys solved since
    the equation was built, solves the one key left by one exact division
    and writes its value straight into the memo.  With two keys left it
    raises and leaves the memo as it was."""
    a, b = ((1, 1), (3, 8)), ((1, 1), (4, 8))
    c, d = ((1, 1), (5, 8)), ((1, 1), (6, 7))
    memo = MemoStore(hilb_datum().nondivisors)
    ca, cb, cc, cd = (memo.code(k[1]) for k in (a, b, c, d))
    solver = ExactLinearSolver(memo, (1, 1))
    solver.add({ca: 3}, -1)  # 3a - 1 = 0
    assert memo.get(a) == Rat(1, 3) and type(memo.get(a)) is Rat
    solver.add({cb: 2}, 2)  # 2b + 2 = 0
    assert memo.get(b) == -1 and type(memo.get(b)) is int
    solver.add({ca: 3, cb: 1, cc: 2}, 4)  # 1 - 1 + 2c + 4 = 0: c left
    assert memo.get(c) == -2 and type(memo.get(c)) is int
    before = dict(memo.items())
    with pytest.raises(UnderdeterminedStage, match="2 unsolved keys"):
        solver.add({ca: 3, cd: 1, memo.code((7, 7)): 1}, 0)  # d, (7, 7) left
    assert dict(memo.items()) == before and len(memo) == 3
    solver.add({}, 0)  # 0 = 0 holds
    solver.add({ca: 3, cb: 1}, 0)  # 1 - 1 = 0 holds
    with pytest.raises(InconsistentSystem):
        solver.add({}, 1)  # 0 = 1
    with pytest.raises(InconsistentSystem):
        solver.add({ca: 3}, 0)  # 3 * 1/3 = 0 contradicts the stored a
    assert dict(memo.items()) == {a: Rat(1, 3), b: -1, c: -2}


def test_solver_rejects_two_unknowns():
    memo = MemoStore(hilb_datum().nondivisors)
    solver = ExactLinearSolver(memo, (1, 1))
    with pytest.raises(
        UnderdeterminedStage, match=r"2 unsolved keys: \[\(3, 8\), \(4, 8\)\]"
    ):
        solver.add({memo.code((3, 8)): 1, memo.code((4, 8)): 1}, 2)
    assert len(memo) == 0


def _reference_unknowns(datum, key, spec):
    """The same-stage keys other than ``key`` that ``_build`` keeps
    symbolic for its lead spec, sorted, read off the cup table: the extras
    plus u, v and each cup term of T_dv . T_rho, and, when rho is not a
    divisor, the extras plus rho, u and each cup term of T_dv . T_v, less
    the keys ``TargetDatum.vanishes`` kills."""
    cls, ins = key
    (dv, rho, u, v), extras = spec
    out = {
        tuple(sorted(extras + (u, v, m))) for m, _c in datum.cup_terms[dv][rho]
    }
    if datum.codims[rho] >= 2:
        out |= {
            tuple(sorted(extras + (rho, u, m)))
            for m, _c in datum.cup_terms[dv][v]
        }
    out.discard(ins)
    return sorted((cls, x) for x in out if not datum.vanishes(cls, x))


def test_lead_equation_cycle_raises():
    """If two keys' lead equations each held the other's key, substitution
    could not order them: the harvest raises instead of looping or solving
    one from the other's equation."""
    eng = Engine()
    k1, k2 = ((1, 2), (3, 4, 8)), ((1, 2), (4, 5, 7))
    c1, c2 = eng.memo.code(k1[1]), eng.memo.code(k2[1])
    spec1, spec2 = eng._lead_spec(k1[1]), eng._lead_spec(k2[1])
    assert spec1 != spec2
    held = {spec1: {c1: 1, c2: 1}, spec2: {c2: 1, c1: 1}}
    eng._build = lambda cls, frame, extras: (held[(frame, extras)], 0)
    with pytest.raises(
        UnderdeterminedStage, match=r"cycle through \(\(1, 2\), \(3, 4, 8\)\)"
    ):
        eng._solve_for((1, 2), 3, c1)
    assert eng.memo.get(k1) is None and eng.memo.get(k2) is None


def test_visit_that_raises_partway_keeps_the_keys_it_solved():
    """The walk solves each lead equation as it leaves the key, so a cycle
    found after a key was solved leaves that key in the memo: k1's equation
    holds the solvable k3 and then k2, whose equation holds k1 back."""
    eng = Engine()
    k1, k2, k3 = eng._stage_keys((1, 2), 3)[:3]
    assert k1 == ((1, 2), (4, 8, 8))
    c1, c2, c3 = (eng.memo.code(ins) for _cls, ins in (k1, k2, k3))
    held = {
        eng._lead_spec(k1[1]): ({c1: 1, c3: 1, c2: 1}, 0),
        eng._lead_spec(k2[1]): ({c2: 1, c1: 1}, 0),
        eng._lead_spec(k3[1]): ({c3: 1}, -5),
    }
    assert len(held) == 3
    eng._build = lambda cls, frame, extras: held[(frame, extras)]
    with pytest.raises(
        UnderdeterminedStage, match=r"cycle through \(\(1, 2\), \(4, 8, 8\)\)"
    ):
        eng.value_of(k1)
    assert eng.memo.get(k3) == 5
    assert eng.memo.get(k1) is None and eng.memo.get(k2) is None


def test_stage_below_three_insertions_never_reaches_the_solver():
    """A datum that leaves a two-point key without a base case makes its
    visit raise before any harvest: n <= 2 must be covered by the datum."""
    key = ((1, 1), (3, 8))
    eng = Engine(rescaled_hilb_datum(None, key=key))
    with pytest.raises(UnderdeterminedStage, match="reached the solver"):
        eng.value_of(key)
    assert eng.memo.get(key) is None


def test_visit_that_leaves_its_key_unsolved_raises():
    """A lead equation that holds no unknown solves nothing; the visit
    then finds its own key unsolved and raises."""
    eng = Engine()
    eng._build = lambda cls, frame, extras: ({}, 0)
    with pytest.raises(UnderdeterminedStage, match="underdetermined; unsolved") as err:
        eng.value_of(((1, 2), (5, 8, 8)))
    assert "(5, 8, 8)" in str(err.value)


def test_lead_table_holds_one_spec_per_list():
    """For every multiset of 3 to 10 insertions from T3..T8, at a class
    with a = 0 and one with a >= 1 on one engine, and for plane keys, the
    harvest stores one ``_leads`` entry per insertion list, its
    ``_lead_spec``, builds the key's equation on it, and reads the same
    entry at the other class: ``_lead_spec`` runs once per list.  The
    build is stubbed to an equation in the key alone, which the visit
    solves."""
    checked = 0
    for datum, nondivisors, classes in (
        (hilb_datum(), range(3, 9), ((0, 3), (2, 3))),
        (p2_datum(), (2,), ((1,), (3,))),
    ):
        eng = Engine(datum)
        calls = Counter()
        built = []
        lead_spec = eng._lead_spec

        def counted(ins):
            calls[ins] += 1
            return lead_spec(ins)

        def stub(cls, frame, extras):
            built.append((cls, (frame, extras)))
            return {code: 1}, 0

        eng._lead_spec = counted
        eng._build = stub
        lists = 0
        for n in range(3, 11):
            for ins in itertools.combinations_with_replacement(nondivisors, n):
                code = eng.memo.code(ins)
                lists += 1
                for cls in classes:
                    st = ExactLinearSolver(eng.memo, cls)
                    eng._harvest_closure(cls, st, code, n)
                    spec = eng._leads[code]
                    assert spec == lead_spec(ins), (cls, ins)
                    assert built[-1] == (cls, spec) and st.seen == [code]
                    checked += 1
        assert len(eng._leads) == len(calls) == lists
        assert set(calls.values()) == {1}
    assert checked == 2 * 7980 + 2 * 8


def test_harvest_solves_each_key_after_its_other_unknowns():
    """Over the d <= 6 tables, each key a visit solves is solved from its
    own lead equation, and every other key that equation holds was solved
    earlier in the same visit; its keys lie inside the own key and the
    cup-table reference unknowns, not the engine's own reading of them.
    The visit's own key is solved last.  The 581 keys hold 137 insertion
    lists, and ``_lead_spec`` runs once per list, whose spec serves it at
    every class."""

    class Recording(Engine):
        def __init__(self):
            super().__init__()
            self.owner = {}  # spec -> insertions
            self.lists = []  # the insertions of each _lead_spec call
            self.built = {}  # (cls, spec) -> terms of its build
            self.visits = self.specs = 0

        def _lead_spec(self, ins):
            spec = super()._lead_spec(ins)
            assert self.owner.setdefault(spec, ins) == ins, spec
            self.lists.append(ins)
            return spec

        def _build(self, cls, frame, extras):
            terms, const = super()._build(cls, frame, extras)
            self.built[(cls, (frame, extras))] = terms
            return terms, const

        def _harvest_closure(self, cls, st, code, n):
            super()._harvest_closure(cls, st, code, n)
            decode = self.memo.decode
            solved = []
            for c in st.seen:
                key = (cls, decode(c))
                spec = self._leads[c]
                assert self.owner[spec] == key[1] and key not in solved, key
                held = {(cls, decode(x)) for x in self.built[(cls, spec)]}
                assert key in held, (key, held)
                assert held - {key} <= set(solved), (key, held)
                reference = _reference_unknowns(self.datum, key, spec)
                assert held <= {key, *reference}, (key, held)
                assert self.memo.get(key) is not None, key
                solved.append(key)
            assert solved[-1] == (cls, decode(code))
            self.visits += 1
            self.specs += len(solved)

    eng = Recording()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    assert eng.visits >= 100 and eng.specs == 581
    assert len(eng.lists) == len(set(eng.lists)) == len(eng._leads) == 137


def test_d5_tables_build_384_equations():
    """The d <= 5 tables in the CLI's query order build 384 equations, one
    per harvested key, and the same number on every run.  They take 19
    class plans, one per class whose splits a frame walks, and 122
    signature plans, one per (class, divisors of the two frame sides): a
    plan keyed by the sides' weights as well would take 411."""

    class Counting(Engine):
        builds = 0

        def _build(self, cls, frame, extras):
            self.builds += 1
            return super()._build(cls, frame, extras)

    counts = []
    for _run in range(2):
        eng = Counting()
        for l in (0, 1, 2):
            for d in range(2, 6):
                invert_counts(eng, d, l)
        counts.append(
            (eng.builds, len(eng._class_plans), len(eng._signature_plans))
        )
    assert counts == [(384, 19, 122), (384, 19, 122)]


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
                (dv, rho, u, v), extras = eng._lead_spec(ins)
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
    not the fallback is anchored on the rarest insertion whose frame fits
    (v in vkill exists, or rho is a divisor), ties going to the larger
    index, and leaves extras with the fewest sub-multisets, prod(m + 1)
    over the multiplicities m, of every (u, v) its frame allows: v any
    insertion besides t (one in vkill when rho is not a divisor), u any one
    after v.  Fewer sub-multisets mean fewer partitions A|B for the split
    sum to walk."""
    eng = Engine()
    rows = eng._lead_rows
    tops = {(dv, rho): (t, vkill) for t, (dv, rho, vkill) in rows.items()}

    def fits(ins, e):
        vkill = rows[e][2]
        rest = list(ins)
        rest.remove(e)
        return vkill is None or any(x in vkill for x in rest)

    checked = 0
    for n in range(3, 11):
        for ins in itertools.combinations_with_replacement(range(3, 9), n):
            (dv, rho, u, v), extras = eng._lead_spec(ins)
            t, vkill = tops[(dv, rho)]
            if vkill is not None and v not in vkill:
                continue  # the fallback frame
            anchors = [e for e in set(ins) if fits(ins, e)]
            assert t == min(anchors, key=lambda e: (ins.count(e), -e)), ins
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
    frame, extras = engine._lead_spec(key[1])
    assert frame == (1, 5, 7, 7) and extras == (7, 7)
    assert engine.value_of(key) == 0
    assert engine.value_of(((1, 5), (7,) * 8)) == 1
    assert engine.wdvv_residual((2, 3), (1, 5, 7, 7), (7, 7)) == 0
    assert engine.wdvv_residual((2, 3), (2, 6, 7, 7), (7, 7)) == 0
    assert engine.wdvv_residual((1, 5), (2, 7, 7, 7), (7,) * 5) == 0


def test_memo_values_are_in_normal_form(engine):
    """Every memo value is an int, or a Rat that is a true fraction.  The
    split sum stores no key of a closed class (a, 0), so a fraction is
    asked for explicitly."""
    for d in range(2, 6):
        for l in (0, 1, 2):
            invert_counts(engine, d, l)
    engine.invariant((2, 0), [3])
    values = [v for _, v in engine.memo.items()]
    assert values
    bad = [
        v for v in values
        if not (type(v) is int or (type(v) is Rat and v.denominator != 1))
    ]
    assert not bad, bad[:5]
    assert any(type(v) is Rat for v in values)


def test_lead_equation_constants_are_in_normal_form():
    """The split sum reads each closed class from a scaled integer table,
    divides once per ordering and normalises the constant once.  Every lead
    equation the d <= 6 tables build has a constant that is an int when
    integral and a Rat only when it is a true fraction, and some of them
    meet a split term with a true-fraction factor, a key of a class (a, 0)
    with a >= 2 (asked of the base case: the split sum stores no key of a
    closed class), and a nonzero partner."""

    class Recording(Engine):
        def __init__(self):
            super().__init__()
            self.built = []

        def _build(self, cls, frame, extras):
            terms, const = super()._build(cls, frame, extras)
            self.built.append((cls, frame, extras, const))
            return terms, const

    eng = Recording()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    assert len(eng.built) == 581
    bad = [
        b for b in eng.built
        if not (type(b[3]) is int or (type(b[3]) is Rat and b[3].denominator != 1))
    ]
    assert not bad, bad[:5]

    def meets_a_fraction(cls, frame, extras):
        for _coeff, key1, key2 in _plain_split_terms(eng.datum, cls, frame, extras):
            v1, v2 = (
                eng.datum.base_case(*key) if key[0][1] == 0 else eng.memo.get(key)
                for key in (key1, key2)
            )
            for (b, _ins), v, partner in ((key1, v1, v2), (key2, v2, v1)):
                if b[1] == 0 and b[0] >= 2 and type(v) is Rat and partner:
                    return True
        return False

    assert any(meets_a_fraction(*b[:3]) for b in eng.built)


def test_memo_set_normalises_integral_rationals():
    store = MemoStore(hilb_datum().nondivisors)
    store.set((1, 1), store.code((3, 8)), Rat(4, 2))
    assert type(store.get(((1, 1), (3, 8)))) is int


def test_memo_rejects_contradiction():
    store = MemoStore(hilb_datum().nondivisors)
    code = store.code((3, 8))
    store.set((1, 1), code, Rat(1))
    store.set((1, 1), code, Rat(1))  # idempotent
    with pytest.raises(
        InconsistentSystem, match=r"conflict at \(\(1, 1\), \(3, 8\)\)"
    ):
        store.set((1, 1), code, Rat(2))


def test_linear_form_zero_detection():
    assert LinearForm({}, Rat(0)).is_zero()
    assert not LinearForm({}, Rat(1)).is_zero()
    assert not LinearForm({((1, 1), (3, 8)): Rat(1)}, Rat(0)).is_zero()


def test_linear_form_defaults_are_fresh_and_equality_compares_fields():
    key = ((1, 1), (3, 8))
    a, b = LinearForm(), LinearForm()
    a.terms[key] = Rat(1)
    assert b.terms == {} and b.constant == 0
    form = LinearForm({key: Rat(1)}, Rat(2))
    assert form == LinearForm(terms={key: Rat(1)}, constant=Rat(2))
    assert form != LinearForm({key: Rat(1)}, Rat(3))
    assert form != LinearForm({key: Rat(2)}, Rat(2))
    assert form != ({key: Rat(1)}, Rat(2))


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
    entries, on a memo with ints, negative ints and true fractions.  The
    split sum stores no key of a closed class (a, 0), so the fraction is
    asked for explicitly."""
    eng = Engine()
    for d in range(2, 5):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    eng.invariant((2, 0), [3])
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


def test_cache_loads_and_drops_keys_of_zero_classes(tmp_path):
    """A file that holds keys of the zero classes (a, 1), a >= 3, as 0, as
    exports once did, still loads; it re-exports without them, as without
    killed keys."""
    datum = hilb_datum()
    old = Engine(_unpruned_hilb_datum())
    for l in (0, 1, 2):
        invert_counts(old, 4, l)
    items = sorted(old.memo.items())
    assert any(datum.zero_class(cls) for (cls, _ins), _v in items)
    legacy = tmp_path / "legacy.json"
    legacy.write_text(_dumps_text(items))
    fresh = Engine()
    assert fresh.load_cache(legacy) == len(items)
    again = tmp_path / "again.json"
    kept = [
        (key, v) for key, v in items
        if not datum.zero_class(key[0]) and not datum.vanishes(*key)
    ]
    assert fresh.save_cache(again) == len(kept)
    assert again.read_text() == _dumps_text(kept)


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
        (_entry((1, 1), (3, 9)), CacheFormatError),  # past the basis
        (_entry((1, 1), (-1, 3)), CacheFormatError),  # negative index
        (_entry((1, 1), (3,) * 256), CacheFormatError),  # over 255
        (_entry((-1, 1), (3, 8)), CacheFormatError),  # not effective
        (_entry((0, 0), (3, 8)), CacheFormatError),  # the zero class
    ],
    ids=["unsorted", "base-case", "killed", "index-9", "index-minus-1",
         "256-insertions", "class-minus-1-1", "class-0-0"],
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


@pytest.mark.parametrize("cache_first", [False, True], ids=["value-of", "cache"])
def test_shared_key_table_refuses_floats_and_bools(tmp_path, cache_first):
    """4.0 and True hash and compare like 4 and 1, so a float or bool copy
    of a list in the engine's shared table of key lists would find it
    there.  Whether ``value_of`` or a cache load put (4, 8, 8) in the
    table, ``value_of`` with 4.0 raises ValueError, and a cache entry with
    insertions [4.0, 8, 8] or [True, 8], or the class (True, 1), raises
    CacheFormatError and loads nothing, not even the valid entries before
    it."""
    eng = Engine()
    if cache_first:
        good = tmp_path / "good.json"
        _write(good, [_entry((1, 2), (4, 8, 8))])
        assert eng.load_cache(good) == 1
    else:
        assert eng.value_of(((1, 2), (4, 8, 8))) == 1
    before = dict(eng.memo.items())
    valid = _unsolved_entries()[:3]
    assert not any((e["a"], e["b"]) == (1, 2) and e["ins"] == [4, 8, 8] for e in valid)
    bad_entries = [
        _entry((1, 2), (4.0, 8, 8)),
        _entry((1, 1), (True, 8)),
        _entry((True, 1), (3, 8)),
    ]
    for bad in bad_entries:
        path = tmp_path / "bad.json"
        _write(path, [_entry((1, 2), (4, 8, 8))] + valid + [bad])
        with pytest.raises(CacheFormatError, match="must hold ints only"):
            eng.load_cache(path)
        assert dict(eng.memo.items()) == before
    with pytest.raises(ValueError, match="must hold ints only"):
        eng.value_of(((1, 2), (4.0, 8, 8)))
    assert dict(eng.memo.items()) == before
    assert eng.value_of(((1, 2), (4, 8, 8))) == 1


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


def test_plane_engine_saves_no_cache(tmp_path):
    """The cache schema holds two-parameter classes only: a plane engine's
    ``save_cache`` raises CacheFormatError and creates no file."""
    eng = Engine(p2_datum())
    assert eng.invariant((2,), [2] * 5) == 1
    path = tmp_path / "plane.json"
    with pytest.raises(CacheFormatError, match="two-parameter"):
        eng.save_cache(path)
    assert not path.exists()


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

    def counting_set(store, cls, code, value):
        written.append((cls, store.decode(code)))
        return original(store, cls, code, value)

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

