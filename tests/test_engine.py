"""Engine tests: base cases, normalization, equation building, stage
solving, the packed memo keys, the randomized property suites, and
caching."""

import itertools
import json
import math
import random
import time
from collections import Counter

import pytest

from hilb2gw import (
    CacheFormatError,
    Engine,
    InconsistentSystem,
    engine_nd,
    hilb_datum,
    invert_counts,
    kontsevich_nd,
    p2_datum,
)
from hilb2gw.chow import _A1_TABLE
from hilb2gw.engine import CACHE_SCHEMA, LinearForm, MemoStore
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


def _plain_equation(engine, cls, frame, extras):
    """S(i,j,k,l) - S(i,l,j,k) summed term by term with sorted-tuple keys.

    Keys of the stage (cls, len(extras) + 3) missing from the memo stay
    symbolic; every other key is valued with ``engine.value_of``.
    """
    datum = engine.datum
    budget = datum.weight_budget
    n = len(extras) + 3
    parts = list(_plain_partitions(datum, extras))
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
                if len(key[1]) == n and engine.memo.get(key) is None:
                    terms[key] = terms.get(key, 0) + coeff
                else:
                    const += coeff * engine.value_of(key)
        # I_b1(Tp, Tq, Te, A) * I_b2(Te^, Tr, Ts, B) over b1 + b2 = cls
        for b1, b2 in datum.splits(cls):
            for e in range(datum.basis_size):
                side1 = _plain_strip(datum, b1, [p, q, e])
                side2 = _plain_strip(datum, b2, [datum.dual[e], r, s])
                if side1 is None or side2 is None:
                    continue
                need1, need2 = budget(b1) - side1[1], budget(b2) - side2[1]
                for a, b, wa, wb, ways in parts:
                    if wa != need1 or wb != need2:
                        continue
                    v1 = engine.value_of((b1, tuple(sorted(side1[0] + a))))
                    if v1 == 0:
                        continue
                    v2 = engine.value_of((b2, tuple(sorted(side2[0] + b))))
                    const += sign * ways * side1[2] * side2[2] * v1 * v2
    return {key: c for key, c in terms.items() if c != 0}, const


def _hilb_tables_to_d4(eng):
    for d in range(2, 5):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)


def _plane_counts_to_d8(eng):
    for d in range(1, 9):
        engine_nd(d, eng)


@pytest.mark.parametrize(
    "datum, solve, min_specs",
    [
        (hilb_datum(), _hilb_tables_to_d4, 2000),
        (p2_datum(), _plane_counts_to_d8, 7),
    ],
    ids=["hilb2", "p2"],
)
def test_build_equation_matches_plain_split_sum(datum, solve, min_specs):
    """Every lead spec harvested while solving the d <= 4 tables of Hilb^2
    (the d <= 8 counts of P^2, one spec per stage) builds the same affine
    form as the plain sum, on a fresh engine where part of each stage is
    still unknown."""
    solved = Engine(datum)
    solve(solved)
    specs = sorted(
        (cls, spec)
        for (cls, _n), st in solved._stage_state.items()
        for spec in st.seen
    )
    assert len(specs) >= min_specs
    fresh = Engine(datum)
    symbolic = 0
    for cls, (frame, extras) in specs:
        want = _plain_equation(fresh, cls, frame, extras)
        form = fresh.build_equation(cls, frame, extras)
        assert (form.terms, form.constant) == want, (cls, frame, extras)
        symbolic += bool(form.terms)
    assert symbolic > 0


# ----------------------------------------------------------------------
# packed memo keys
# ----------------------------------------------------------------------


def test_memo_codes_round_trip_every_stage_key_to_d6():
    eng = Engine()
    for d in range(2, 7):
        for l in (0, 1, 2):
            invert_counts(eng, d, l)
    memo = eng.memo
    checked = 0
    for cls, n in sorted(eng._stage_state):
        keys = eng._stage_keys(cls, n)
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


def _assert_every_reached_stage_closes(eng):
    """solve_stage on every stage the engine has reached leaves no
    admissible key of those stages out of the memo."""
    stages = sorted(eng._stage_state)
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


def test_cache_roundtrip(tmp_path):
    eng = _warm_engine()
    path = tmp_path / "cache.json"
    written = eng.save_cache(path)
    assert written > 0

    fresh = Engine()
    loaded = fresh.load_cache(path)
    assert loaded == written
    assert dict(fresh.memo.items()) == dict(eng.memo.items())
    assert {k: type(v) for k, v in fresh.memo.items()} == {
        k: type(v) for k, v in eng.memo.items()
    }

    # deterministic bytes: saving the loaded store reproduces the file
    path2 = tmp_path / "cache2.json"
    fresh.save_cache(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_cache_file_carries_schema_tag(tmp_path):
    path = tmp_path / "cache.json"
    _warm_engine().save_cache(path)
    assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA == "hilb2gw-cache/1"


def test_cache_loads_untagged_legacy_file(tmp_path):
    """Files written before the schema tag existed still load, and re-export
    tagged but otherwise byte for byte."""
    eng = _warm_engine()
    tagged = tmp_path / "tagged.json"
    eng.save_cache(tagged)
    payload = json.loads(tagged.read_text())
    del payload["schema"]
    legacy = tmp_path / "legacy.json"
    legacy.write_text(
        json.dumps(payload, separators=(",", ":"), sort_keys=True) + "\n"
    )
    fresh = Engine()
    assert fresh.load_cache(legacy) == len(eng.memo)
    again = tmp_path / "again.json"
    fresh.save_cache(again)
    assert again.read_bytes() == tagged.read_bytes()


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

