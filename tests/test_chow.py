"""Intersection-ring tests: the derived cup table against an independent
polynomial-quotient oracle, plus the structural validations the datum
promises."""

from functools import partial

import pytest
import sympy

from hilb2gw.chow import build_cup_table, hilb_datum, p2_datum
from hilb2gw.oracles import boundary_value, fibre_classes, kontsevich_nd
from hilb2gw.rationals import Rat


# ----------------------------------------------------------------------
# independent oracle: sympy Groebner reduction in the quotient ring
# ----------------------------------------------------------------------

_T1, _T2 = sympy.symbols("t1 t2")
_IDEAL = [_T1**3, _T2**3 - 3 * _T1 * _T2**2 + 6 * _T1**2 * _T2]
_BASIS_POLYS = [
    sympy.Integer(1),
    _T1,
    _T2,
    _T1**2,
    _T1 * _T2 - 2 * _T1**2,
    _T1**2 - _T1 * _T2 + _T2**2,
    _T1**2 * _T2,
    _T1 * _T2**2 - 3 * _T1**2 * _T2,
    _T1**2 * _T2**2,
]


def _oracle_cup_table():
    """Compute all 81 products with sympy and express them in the basis."""
    groebner = sympy.groebner(_IDEAL, _T1, _T2, order="grevlex")

    def normal_form(poly):
        return groebner.reduce(sympy.expand(poly))[1]

    # coordinates of each basis class in the normal-form monomials
    basis_nf = [sympy.Poly(normal_form(p), _T1, _T2) for p in _BASIS_POLYS]
    monomials = sorted({m for p in basis_nf for m in p.monoms()})
    mat = sympy.Matrix(
        [[p.coeff_monomial(m) for p in basis_nf] for m in monomials]
    )
    assert mat.shape == (9, 9) and mat.rank() == 9

    table = {}
    for e in range(9):
        for f in range(9):
            prod = sympy.Poly(
                normal_form(_BASIS_POLYS[e] * _BASIS_POLYS[f]), _T1, _T2
            )
            rhs = sympy.Matrix([prod.coeff_monomial(m) for m in monomials])
            coords = mat.solve(rhs)
            table[(e, f)] = tuple(
                Rat(c.p, c.q) for c in (sympy.Rational(x) for x in coords)
            )
    return table


def cup_table_vs_oracle():
    """Exhaustive comparison; returns (failures, cells). Shared with acceptance."""
    datum = hilb_datum()
    oracle = _oracle_cup_table()
    failures = []
    for e in range(9):
        for f in range(9):
            if tuple(datum.cup_table[e][f]) != oracle[(e, f)]:
                failures.append(f"T{e} cup T{f}")
    return failures, 81


def test_cup_table_matches_polynomial_oracle():
    failures, cells = cup_table_vs_oracle()
    assert not failures, failures
    assert cells == 81


def test_cup_associativity_and_commutativity_exhaustive():
    datum = hilb_datum()
    basis = [datum.basis_vector(e) for e in range(9)]
    for e in range(9):
        for f in range(e, 9):
            assert datum.cup(basis[e], basis[f]) == datum.cup(basis[f], basis[e])
            for g in range(9):
                left = datum.cup(datum.cup(basis[e], basis[f]), basis[g])
                right = datum.cup(basis[e], datum.cup(basis[f], basis[g]))
                assert left == right, (e, f, g)


def test_pairing_is_the_duality_permutation():
    datum = hilb_datum()
    for e in range(9):
        for f in range(9):
            expected = 1 if f == datum.dual[e] else 0
            assert datum.integrate(datum.cup_table[e][f]) == expected


def test_specific_classical_products():
    datum = hilb_datum()

    def vec(coeffs: dict):
        out = [Rat(0)] * 9
        for k, v in coeffs.items():
            out[k] = Rat(v)
        return tuple(out)

    assert datum.cup_table[1][1] == vec({3: 1})
    assert datum.cup_table[1][2] == vec({3: 2, 4: 1})
    assert datum.cup_table[2][2] == vec({3: 1, 4: 1, 5: 1})
    assert datum.cup_table[1][3] == vec({})
    assert datum.cup_table[1][4] == vec({6: 1})
    assert datum.cup_table[1][5] == vec({6: 2, 7: 1})
    assert datum.cup_table[1][7] == vec({8: 1})
    assert datum.cup_table[2][6] == vec({8: 1})
    assert datum.cup_table[1][8] == vec({})


def test_presentation_relations_vanish():
    datum = hilb_datum()
    t1 = datum.basis_vector(1)
    t2 = datum.basis_vector(2)
    zero = (Rat(0),) * 9
    cup = datum.cup
    t1_sq = cup(t1, t1)
    t2_sq = cup(t2, t2)
    assert cup(t1_sq, t1) == zero
    lhs = cup(t2_sq, t2)
    mid = cup(cup(t1, t2), t2)
    top = cup(t1_sq, t2)
    combo = tuple(a - 3 * b + 6 * c for a, b, c in zip(lhs, mid, top))
    assert combo == zero


def test_ring_fields_are_derived_from_codims_and_cup_table():
    """dim, divisors, rank and dual are read off the codimensions and the
    cup table, and the engine finds each lead row there: the first
    (dv, rho) in index order whose product has t as its top term."""
    from hilb2gw.engine import Engine

    hilb, p2 = hilb_datum(), p2_datum()
    assert (hilb.dim, hilb.divisors, hilb.rank) == (4, (1, 2), 2)
    assert hilb.dual == (8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert (p2.dim, p2.divisors, p2.rank, p2.dual) == (2, (1,), 1, (2, 1, 0))
    kill = {3, 6, 8}
    assert Engine()._lead_rows == {
        3: (1, 1, None),
        4: (1, 2, None),
        5: (2, 2, None),
        6: (1, 4, kill),
        7: (1, 5, kill),
        8: (1, 7, kill),
    }
    assert Engine(p2)._lead_rows == {2: (1, 1, None)}


def _toy_datum(codims, products):
    """A datum on a made-up ring: T0 is the unit, ``products`` maps an
    index pair (e, f) to the coefficients {m: c} of T_e . T_f, and every
    other product of two positive-codimension classes is 0."""
    from hilb2gw.chow import TargetDatum

    size = len(codims)
    table = [[[0] * size for _ in range(size)] for _ in range(size)]
    for e in range(size):
        table[0][e][e] = table[e][0][e] = 1
    for (e, f), terms in products.items():
        for m, c in terms.items():
            table[e][f][m] = table[f][e][m] = c
    return TargetDatum(
        name="toy",
        codims=codims,
        cup_table=table,
        anticanonical=(1,) * codims.count(1),
        base_case=lambda cls, ins: None,
    )


def test_divisor_products_must_span_every_level():
    """T1 = H, T2 = A, T3 = B, T4 of codim 3, T5 the point: H^2 = A and
    H.B = 0, so the divisor products miss B in codimension 2, though the
    pairing (A^2 = B^2 = pt, A.B = 0, H.T4 = pt) is a permutation."""
    products = {
        (1, 1): {2: 1}, (1, 2): {4: 1}, (1, 4): {5: 1}, (2, 2): {5: 1}, (3, 3): {5: 1},
    }
    with pytest.raises(ValueError, match="span codim 2"):
        _toy_datum((0, 1, 2, 2, 3, 4), products)


def test_engine_refuses_a_level_without_a_lead_row():
    """Two divisors whose products T4, T4 and T3 + T4 span codimension 2,
    but none has T3 as its top term, so T3 has no lead row."""
    from hilb2gw.engine import Engine, EngineError

    products = {
        (1, 1): {4: 1}, (1, 2): {4: 1}, (2, 2): {3: 1, 4: 1},
        (1, 3): {5: 1}, (2, 4): {6: 1},
        (1, 6): {7: 1}, (2, 5): {7: 1}, (3, 3): {7: 1}, (4, 4): {7: 1},
    }
    datum = _toy_datum((0, 1, 1, 2, 2, 3, 3, 4), products)
    assert datum.dual == (7, 6, 5, 3, 4, 2, 1, 0)
    with pytest.raises(EngineError, match="T3"):
        Engine(datum)


def test_duality_violation_is_fatal():
    table = [list(map(list, row)) for row in build_cup_table()]
    table[1][7][8] = Rat(2)  # corrupt the integral of T1 cup T7
    with pytest.raises(ValueError, match="pairing"):
        from hilb2gw.chow import TargetDatum, _hilb_base_case

        TargetDatum(
            name="broken",
            codims=(0, 1, 1, 2, 2, 2, 3, 3, 4),
            cup_table=[[tuple(v) for v in row] for row in table],
            anticanonical=(0, 3),
            base_case=_hilb_base_case,
        )


@pytest.mark.parametrize(
    "codims, swap, message",
    [
        ((0, 1, 1), False, "pairing does not complement codimension"),
        ((0, 1, 2), True, "pairing is not an involution"),
    ],
)
def test_pairing_must_be_an_involution_complementing_codimension(codims, swap, message):
    """The plane's table read with codims (0, 1, 1) pairs T1 with itself
    across a 1-fold; with row 2 moved to T2 . T1 = pt, T2 and T0 no
    longer pair with each other."""
    from hilb2gw.chow import TargetDatum

    table = [list(row) for row in p2_datum().cup_table]
    if swap:
        table[2] = [(0, 0, 0), (0, 0, 1), (0, 0, 0)]
    with pytest.raises(ValueError, match=message):
        TargetDatum(
            name="bad pairing",
            codims=codims,
            cup_table=table,
            anticanonical=(3,) * codims.count(1),
            base_case=lambda cls, ins: None,
        )


def test_base_orders_are_derived_from_the_cup_table():
    hilb = hilb_datum()
    assert hilb.base == 1
    assert hilb.base_orders[3:] == (2, 1, 0, 2, 1, 2)
    assert hilb.vanishes((0, 1), (3, 8)) and not hilb.vanishes((0, 1), (5, 8))
    # a >= 1: the bound is 3a - 1 + n.  (3, 8) carries 4 against 4 at
    # (1, 1); (8^6, 6) carries 14 against 9, 12 and 15 at a = 1, 2, 3
    assert not hilb.vanishes((1, 1), (3, 8))
    seven = (6,) + (8,) * 6
    assert hilb.vanishes((1, 4), seven) and hilb.vanishes((2, 4), seven)
    assert not hilb.vanishes((3, 4), seven)
    p2 = p2_datum()
    assert p2.base is None and p2.base_orders == (0, 0, 0)
    assert not p2.vanishes((1,), (2, 2))


def test_base_divisor_must_cube_to_zero():
    """T2 cubes to 3 T1 T2^2 - 6 T1^2 T2, so it is no pullback from a plane;
    T3 is no divisor at all."""
    from hilb2gw.chow import TargetDatum, _hilb_base_case

    d = hilb_datum()
    with pytest.raises(ValueError, match="cube"):
        TargetDatum(
            name="wrong base",
            codims=d.codims,
            cup_table=d.cup_table,
            anticanonical=d.anticanonical,
            base_case=d.base_case,
            base=2,
        )
    with pytest.raises(ValueError, match="base class T3 is not a divisor"):
        TargetDatum(
            "x", (0, 1, 1, 2, 2, 2, 3, 3, 4), build_cup_table(), (0, 3),
            _hilb_base_case, base=3,
        )


def test_weight_budgets():
    hilb = hilb_datum()
    assert hilb.weight_budget((1, 4)) == 13
    assert hilb.weight_budget((3, 0)) == 1
    assert hilb.weight_budget((0, 1)) == 4
    p2 = p2_datum()
    assert p2.weight_budget((3,)) == 8
    assert p2.weight_budget((1,)) == 2


def test_splits_enumerates_proper_effective_pairs():
    datum = hilb_datum()
    got = set(datum.splits((2, 1)))
    want = {
        ((0, 1), (2, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (1, 0)),
        ((2, 0), (0, 1)),
    }
    assert got == want
    assert datum.splits((1, 0)) == ()


def test_p2_datum_ring():
    p2 = p2_datum()
    h = p2.basis_vector(1)
    pt = p2.basis_vector(2)
    assert p2.cup(h, h) == pt
    assert p2.cup(h, pt) == (Rat(0),) * 3
    assert p2.integrate(pt) == 1


def test_zero_classes_are_declared_by_the_datum():
    """Hilb^2 declares exactly the classes (a, 1) with a >= 3 zero, and its
    base cases read the same predicate: every insertion tuple gets 0 there.
    The plane declares no class zero."""
    from hilb2gw.chow import _hilb_base_case

    hilb = hilb_datum()
    classes = [(a, b) for a in range(9) for b in range(4) if a or b]
    assert [c for c in classes if hilb.zero_class(c)] == [
        (a, 1) for a in range(3, 9)
    ]
    for a in range(3, 9):
        for ins in ((3, 8), (6, 6), (4, 4, 8), (5,) * 4, (7, 8, 8, 8)):
            assert _hilb_base_case((a, 1), ins) == 0
    assert _hilb_base_case((2, 1), (6, 6)) == 4
    p2 = p2_datum()
    assert not any(p2.zero_class((d,)) for d in range(1, 20))


def test_fibre_classes_are_derived_from_the_cup_table():
    """On a fibre of the projection, T3 restricts to the fundamental class,
    T4 and T6 to the line and T5, T7 and T8 to the point, each once."""
    hilb = hilb_datum()
    assert fibre_classes(hilb)[3:] == ((0, 1), (1, 1), (2, 1), (1, 1), (2, 1), (2, 1))
    assert fibre_classes(p2_datum()) is None


def test_boundary_value_rules():
    """The closed form on the boundary of the vanishing theorem, and None
    off it (inside or past it) and without a base divisor."""
    bv = partial(boundary_value, hilb_datum())
    # a = 0: sum t = 2; T3 kills, T4/T6 count b, T5/T7/T8 are the 3b - 1 points
    assert bv((0, 1), (5, 5, 4, 4)) == 1
    assert bv((0, 2), (5,) * 5 + (4, 4)) == 4 * kontsevich_nd(2)
    assert bv((0, 2), (3,) + (5,) * 5) == 0
    assert bv((0, 2), (5,) * 5 + (6,)) == 2 * kontsevich_nd(2)
    assert bv((0, 1), (5, 5, 5, 5)) is None  # sum t = 0, inside
    # a >= 1: sum t = 3a - 1 + n; T5 kills, T4/T7 count a
    assert bv((1, 1), (3, 8)) == 1
    assert bv((2, 2), (3, 3, 3, 3, 8)) == kontsevich_nd(2)
    assert bv((2, 2), (3, 3, 3, 3, 4, 6)) == 2 * kontsevich_nd(2)
    assert bv((2, 2), (3,) * 6 + (5,)) == 0
    assert bv((2, 2), (4,) * 7) is None  # sum t = 7, 12 needed
    assert bv((2, 2), (3,) * 4 + (4, 4, 4)) is None  # 11 of 12
    assert boundary_value(p2_datum(), (1,), (2, 2)) is None
