"""Genus-0 invariant reconstruction by associativity relations.

The engine computes arbitrary genus-0 invariants I_beta(g1...gn) of a
TargetDatum whose cohomology is generated by divisors. The only inputs are
the two-point/one-point base cases carried by the datum; everything else is
reconstructed from the associativity (WDVV) equations of the genus-0
potential:

    S(i,j,k,l) = S(i,l,j,k),  where
    S(p,q,r,s) = sum over beta1 + beta2 = beta (both nonzero effective),
                 partitions A|B of the extra insertions, and basis e of
                   I_beta1(Tp,Tq,Te,A) * I_beta2(T_e^,Tr,Ts,B)
               + I_beta(Tp,Tq,(Tr cup Ts),extras)
               + I_beta(Tr,Ts,(Tp cup Tq),extras)

with T_e^ the pairing-dual of T_e. The two beta=0 collapses of the split sum
are the cup-product terms written explicitly above.

Invariants are canonicalized first: divisor insertions are stripped (each
multiplies by its intersection number with beta), fundamental-class
insertions kill the invariant, and the dimension count must balance; what
remains is a key (beta, sorted non-divisor indices). Keys are grouped into
stages (beta, n): both factors of every split term live at componentwise
smaller classes, and the collapsed terms stay at beta with at most n
insertions, so solving stages in order of (class, then n) is well-founded and
every stage reduces to an exact linear system in its own keys.

Each stage has one harvest. Every key contributes its lead equation: a frame
built on an anchor insertion t, the lead row of t (the first divisor
product T_dv . T_rho in index order whose top term is t), and two more
insertions.  One rule fills all three slots: rarest first, the insertion
with the fewest copies left (ties are settled by index).  Every other cup
term of a lead row has a smaller index than t by that choice, so every
other same-stage unknown of the equation has a strictly smaller index sum
than the key, whichever insertion anchors the frame (a few corner keys take
a frame that refers forward).  The rarest choices
leave the extras with the fewest sub-multisets, so the split sum walks the
fewest partitions and a query's closure reaches the fewest lower-stage keys
(see ``_lead_spec``).
A visit to a stage starts from one key, the one ``_resolve`` missed, and
is one depth-first pass on packed codes with one ExactLinearSolver.  The
walk builds each key's lead equation once, by ``_build`` on the spec that
``_leads`` holds for the key's insertion list (``_lead_spec``, run once per
list, since the spec depends on the insertions alone; ``_harvest_closure``
counts the lists the tables meet).  The codes
the equation keeps symbolic are its same-stage unknowns, so the walk reads
them off the equation itself, walks each one the memo still lacks, and
then hands the equation to the visit's ``add``: the stage is triangular in
that order.  ``add`` substitutes the memo's values of the keys solved
since the build and solves the one key left by one exact division into the
memo.  The memo is the only store of solved values and the walk's only
record of finished keys, and the walk stops at memo keys.  A cycle among
the lead equations, an equation left with two unknowns, or a visit that
leaves its key unsolved raises UnderdeterminedStage: reconstruction
guarantees solvability, so that is a fatal invariant violation, as is any
inconsistent equation.  A visit that fails partway keeps the exact keys it
solved before the failure.

The memo stores each canonical insertion multiset as a packed integer code,
one 8-bit digit per non-divisor basis index (see MemoStore), and ``_build``
forms every key it needs on such codes, never as a sorted tuple.  The split
sum adds two codes to get the key of a merged multiset.  One per-index
table, ``Engine._units``, holds what each basis index adds to a monomial:
its divisor multiplier slot, packed code, weight, base order and count.
Each sorted insertion list has one record of those four sums,
``_list_sums``, which the key gate and the split sum's extras share.  A
collapsed term adds the entries of its three new insertions to its
extras' record and checks the dimension count and the projection's order
bound on them (``_canon_code``); ``_canon`` folds the same table over each
monomial of a query's multilinear expansion, and the class plans read
their pair multipliers from it.  Each query passes its gates once:
``_check_class``, the index and vector checks of ``_canon``,
``_check_frame``, ``_check_extras``, and one key gate, ``_key_sums``, on
every ``value_of`` call and every ``load_cache`` entry; it runs
``_check_class`` and ``MemoStore.code`` only on a class and list it has
not seen.  Past them a key is its class and packed code alone,
and a key the engine forms itself skips ``value_of``'s gate: the codes of
``_canon`` that ``invariant`` resolves, those of ``_build``, the symbolic
ones of ``wdvv_residual`` among them, and those of the three-point rows of
``_row``, which share memo keys, not cached row tuples.
Every key goes to ``_resolve(cls, code)``: memo hit, base case,
projection rule, then a visit to the key's stage, whose harvest, symbolic
terms, solver and memo writes all take codes.  A code is decoded only at
the outward edges: the ``_resolve`` miss that ``base_case`` and
``vanishes`` read, the harvest's call to ``_lead_spec`` on a new list, the
LinearForms of ``normalize`` and ``build_equation``, ``MemoStore.items``,
``save_cache`` and error messages.

The split sum does no work it can see is zero.  A frame and extras off the
dimension count give the zero form before any term is walked.  On the
count every (split, e) pair balances its weights, so the work is planned
in two layers.  A class plan, built once per class from one
``TargetDatum.splits`` call, holds each split's two value dicts, their
denominator and its (e, e^) pairs whose own divisor multipliers are
nonzero, grouped by the weight of e (on Hilb^2, 7 pairs in 3 weights);
splits into a class the datum declares zero (``TargetDatum.zero_class``)
are left out, so their keys are never looked up or stored.  The
three-point rows of the quantum product, like the split plans, never look
up or store a key of a declared-zero class: a box (``_box_rows``) skips
every such class.  A class is closed when its weight budget is at most 2:
every key of it holds at most two insertions, so it is a base case or a
key the projection kills, and none is ever solved.  On Hilb^2 the closed
classes are the (a, 0), whose base cases +-3/a^2 are the only true
fractions the tables meet; on the plane, (1,).  A closed side's value dict
is a static table of ints, its values times their lcm denominator D, read
from the datum once per class; any other side's is the class's live memo
dict, with D = 1.  A signature plan, one per class and divisors of the
frame's two sides, keeps the splits whose frame-divisor multiplier is
nonzero, next to the class plan's own pair groups, and the lcm lcd of
their D1 * D2; each split carries lcd / (D1 * D2), one int per distinct
denominator.  Each (split, weight) looks up one partition group, and each
partition A in it adds its code to the two factors' frame codes once
before the weight's pairs are walked.  So the split sum adds ints only,
and divides by lcd once per ordering.  It never solves a key of a closed
class, nor looks one up or stores one in the memo unless the projection
kills it (no closed class of Hilb^2 or the plane has such a key), so the
memo holds a closed key only when a query asks for it.  Along the plan,
both factors of a term are looked up before either is solved: a stored
zero ends the term, and a missing factor is solved only while its partner
can still be nonzero.  The memo therefore never solves a key just to
multiply it by a known zero; which keys it holds depends slightly on the
query order, their values do not.  All arithmetic is exact and everything
runs on the calling thread.

About half of the keys the tables reach are zero by a theorem, and the
engine never solves one of them.  The Hilbert scheme is a P^2-bundle over
the dual plane, and the base divisor T1 is the pullback of its line class.
If T_e lies in T1^t(e) . H^* and a = T1 . beta, then by the functoriality
of stable maps under the projection the product of the pulled-back powers
of the line class comes from the space of stable maps to the plane.  So
the key vanishes when the sum of the t(e) exceeds 2 (a = 0, the composite
map is constant) or 3a - 1 + n, the dimension bound of the evaluation
image (a >= 1); see ``TargetDatum.vanishes`` and its bound
``TargetDatum.order_bound`` (``math.inf`` without a base divisor).
``_resolve`` stores such a key as 0 without visiting a stage, as it stores
a base case; ``_canon`` and ``_canon_code`` drop it like a dimension
mismatch, and so do ``normalize`` and ``invariant``, which expand with
``_canon``; the harvest never walks it and ``solve_stage`` skips it; a cache
entry that gives it a nonzero value is an InconsistentSystem, and
``save_cache`` leaves it out.  The split sum is unchanged: a killed factor
becomes a stored 0 the first time it is looked up.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from .chow import TargetDatum, check_datum, hilb_datum
from .rationals import _ONLY_INTS, binom, check_int, qdiv, qnorm, rat_from_parts


CACHE_SCHEMA = "hilb2gw-cache/1"


class EngineError(Exception):
    """Base class for engine failures."""


class UnderdeterminedStage(EngineError):
    """A stage's lead equations do not solve its keys by substitution.

    They form a cycle, one of them reaches the solver with two unsolved
    keys, or a requested key is left unsolved.

    Reconstruction from two-point invariants guarantees a unique solution,
    so this signals a bug (or an impossible request), never a soft failure.
    """


class InconsistentSystem(EngineError):
    """An equation reduced to 0 = c with c != 0, or a memo value conflict.

    Signals corrupted base cases, a broken multiplication table, or a bad
    cache file; never raised on healthy data.
    """


class CacheFormatError(EngineError):
    """A cache file failed schema or consistency validation."""


class LinearForm:
    """An affine form sum(coeff * unknown) + constant over invariant keys."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: dict | None = None, constant: object = 0):
        self.terms = {} if terms is None else terms
        self.constant = constant

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms and self.constant == other.constant

    def is_zero(self) -> bool:
        return not self.terms and self.constant == 0


class MemoStore:
    """Exact values by canonical key ``(cls, code)``, one dict per class.

    The insertions of a key are a multiset of non-divisor basis indices; the
    store packs them into an int ``code = sum(pack[e] for e in ins)`` with
    ``pack[e] = 1 << (8 * rank of e in nondivisors)``, so adding two codes
    gives the code of the merged multiset, and reading the 8-bit digits back
    in nondivisor order gives the sorted tuple. ``code`` raises ValueError
    for more than 255 insertions, which could overflow a digit, or for an
    insertion that is not a non-divisor index, an ``int`` (a float or bool
    equal to one included).
    The layout is ``{cls: {code: value}}``; a class dict, once created, is
    never replaced, so callers may hold on to it (``class_values``).
    The one write, ``set``, takes a code; ``get`` takes a ``(cls, sorted
    tuple)`` key and packs it, and ``items`` and a conflict's message
    decode.

    Values are stored in normal form (``int`` when integral, ``Rat``
    otherwise). An entry is never overwritten with a different value; a
    conflicting write raises InconsistentSystem. ``set`` writes one key and
    is the only write, for the engine's solves and ``Engine.load_cache``
    alike.
    """

    MAX_INSERTIONS = 255

    def __init__(self, nondivisors):
        self.nondivisors = tuple(nondivisors)
        self.pack = {e: 1 << (8 * r) for r, e in enumerate(self.nondivisors)}
        self._classes: dict = {}
        self._count = 0

    def code(self, ins) -> int:
        """The packed code of an insertion multiset."""
        if len(ins) > self.MAX_INSERTIONS:
            raise ValueError(
                f"a memo key holds at most {self.MAX_INSERTIONS} insertions, "
                f"got {len(ins)}"
            )
        pack = self.pack
        code = 0
        try:
            # 4.0 or True would hash and compare like an index: check types
            if not _ONLY_INTS.issuperset(map(type, ins)):
                raise TypeError
            for e in ins:
                code += pack[e]
        except (KeyError, TypeError):
            raise ValueError(
                f"insertions {ins!r} are not non-divisor basis indices"
            ) from None
        return code

    def decode(self, code: int) -> tuple:
        """The sorted insertion tuple of a packed code."""
        ins = []
        for e in self.nondivisors:
            ins += (e,) * (code & 255)
            code >>= 8
        return tuple(ins)

    def class_values(self, cls) -> dict:
        """The live ``{code: value}`` dict of one class, created if absent."""
        vals = self._classes.get(cls)
        if vals is None:
            vals = self._classes[cls] = {}
        return vals

    def get(self, key):
        """The value of the key ``(cls, sorted insertion tuple)``, or None."""
        cls, ins = key
        vals = self._classes.get(cls)
        return None if vals is None else vals.get(self.code(ins))

    def set(self, cls, code, value) -> None:
        vals = self.class_values(cls)
        value = qnorm(value)
        old = vals.get(code)
        if old is not None:
            if old != value:
                raise InconsistentSystem(
                    f"memo conflict at {(cls, self.decode(code))}: "
                    f"{old} vs {value}"
                )
            return
        vals[code] = value
        self._count += 1

    def items(self):
        """Every ``((cls, ins), value)`` in sorted key order, decoded lazily
        one class at a time, so only one class's tuples are alive at once."""
        decode = self.decode
        for cls in sorted(self._classes):
            for ins, value in sorted(
                (decode(code), value) for code, value in self._classes[cls].items()
            ):
                yield (cls, ins), value

    def classes(self) -> list:
        """The classes that hold entries, sorted."""
        return sorted(cls for cls, vals in self._classes.items() if vals)

    def __len__(self) -> int:
        return self._count


class ExactLinearSolver:
    """One visit to a stage of class ``cls``: its exact solver.

    ``_harvest_closure`` hands ``add`` each lead equation of the visit as
    its walk leaves the key, after the equations of its other unknowns;
    ``add`` solves the key into the memo and appends its code to ``seen``,
    so ``seen`` lists the keys the visit solved, in solving order.  Each
    visit makes a fresh object and drops it on return, so the memo is the
    only store of solved values.
    """

    __slots__ = ("memo", "cls", "seen")

    def __init__(self, memo: MemoStore, cls):
        self.memo = memo
        self.cls = cls
        self.seen = []  # codes of the keys solved, solving order

    def add(self, terms: dict, const) -> None:
        """Solve sum(terms * x) + const = 0 for its one unsolved key into
        the memo, and append the key's code to ``seen``.

        ``terms`` maps packed codes of the class to nonzero coefficients, as
        ``_build`` gives them.  The keys the memo has solved since the build
        are substituted; the one key left is solved by one exact division.
        Raises UnderdeterminedStage, leaving the memo unchanged, when two or
        more keys are left, and InconsistentSystem when none is and the
        constant is not 0.
        """
        vals = self.memo.class_values(self.cls)
        left = []
        for code, coef in terms.items():
            v = vals.get(code)
            if v is None:
                left.append((code, coef))
            else:
                const += coef * v
        if len(left) == 1:
            (code, coef), = left
            self.memo.set(self.cls, code, -qdiv(const, coef))
            self.seen.append(code)
        elif left:
            raise UnderdeterminedStage(
                f"an equation of class {self.cls} reached the solver with "
                f"{len(left)} unsolved keys: "
                f"{sorted(self.memo.decode(c) for c, _coef in left)[:5]}"
            )
        elif const != 0:
            raise InconsistentSystem(f"0 = {const} from a harvested equation")


class Engine:
    """Reconstruction engine over one TargetDatum, with a persistent memo.

    Each kind of input passes one gate that raises ValueError on a bad value:
    the constructor's datum check, ``_check_class``, ``normalize``,
    ``_check_frame`` and ``_check_extras``.
    """

    def __init__(self, datum: TargetDatum | None = None):
        self.datum = hilb_datum() if datum is None else check_datum(datum)
        self.memo = MemoStore(self.datum.nondivisors)
        # weight budget by class.  Every class in it is admissible (nonzero
        # and effective): each caller of _budget has checked its class or
        # took it from TargetDatum.splits or _list_box_classes.  So _key_sums
        # runs _check_class only on a class it does not find here.
        self._budgets: dict = {}
        self._list_sums: dict = {}  # (code, weight, order sum, count) by list
        self._partition_cache: dict = {}
        self._class_plans: dict = {}  # splits with values, den, sub, by cls
        self._signature_plans: dict = {}  # (lcd, splits) by (cls, div1, div2)
        self._closed: dict = {}  # (scaled values, D) by closed class
        self._boxes: dict = {}  # nonempty rows of a box, by (x, y, n1, n2)
        self._box_classes: dict = {}  # box classes by budget, by (n1, n2)
        self._leads: dict = {}  # lead spec by insertion code
        d = self.datum
        pack = self.memo.pack
        # _units[e]: what index e adds to a monomial, (slot, packed code,
        # weight, base order, count); read by _canon, _canon_code and
        # _class_plan.  The slot indexes cls + (1, 0) for the multiplier: a
        # divisor's position in the class (its intersection number), 1 for a
        # non-divisor, which adds the rest, and 0 for the fundamental class,
        # which kills the monomial.
        rank = d.rank
        self._units = tuple(
            (d.divisor_pos[e], 0, 0, 0, 0) if c == 1
            else (rank + 1, 0, 0, 0, 0) if c == 0
            else (rank, pack[e], d.weights[e], d.base_orders[e], 1)
            for e, c in enumerate(d.codims)
        )
        # _sides[p][q]: one frame side (p, q) of a split term as the sorted
        # divisors, the packed code and the weight of its non-divisor
        # entries, for every pair of positive-codimension indices; read by
        # _build
        one = [
            ((e,), 0, 0) if c == 1 else ((), pack.get(e, 0), d.weights[e])
            for e, c in enumerate(d.codims)
        ]
        self._sides = tuple(
            tuple((min(dp + dq, dq + dp), cp + cq, wp + wq) for dq, cq, wq in one)
            for dp, cp, wp in one
        )
        # For each non-divisor t, its lead row: the first (dv, rho) in index
        # order, dv a divisor, whose product T_dv . T_rho contains t and no
        # index above t.  The frame built on that row isolates the key
        # against keys with a strictly smaller index sum.  When the
        # row's second slot rho is itself a divisor, the frame's second family
        # of collapsed terms loses an insertion to the divisor axiom and lands
        # in an earlier stage, so the frame is safe for any fourth slot; that
        # case is marked with vkill = None.  Otherwise the frame is only safe
        # when the fourth slot holds an insertion whose product with the row
        # divisor vanishes, erasing the second family outright.
        self._lead_rows = {}
        for t in d.nondivisors:
            row = next(
                (
                    (dv, rho)
                    for dv in d.divisors
                    for rho in range(d.basis_size)
                    if [m for m, _c in d.cup_terms[dv][rho]][-1:] == [t]
                ),
                None,
            )
            if row is None:
                raise EngineError(f"no divisor product has T{t} as its top term")
            dv, rho = row
            vkill = None if d.codims[rho] < 2 else frozenset(
                x for x in d.nondivisors if not d.cup_terms[dv][x]
            )
            self._lead_rows[t] = (dv, rho, vkill)
        # _thirds[w]: the basis indices of weight w, the third insertions
        # of a three-point row whose pair leaves weight w of the budget; the
        # fundamental class, which kills every key, is left out
        thirds: dict = {}
        for e, c in enumerate(d.codims):
            if c:
                thirds[d.weights[e]] = thirds.get(d.weights[e], ()) + (e,)
        self._thirds = thirds

    # ------------------------------------------------------------------
    # canonicalization
    # ------------------------------------------------------------------

    def _budget(self, cls) -> int:
        b = self._budgets.get(cls)
        if b is None:
            b = self._budgets[cls] = self.datum.weight_budget(cls)
        return b

    def _canon(self, cls, insertions) -> dict:
        """Expand insertions multilinearly into ``{code: coefficient}``.

        Indices and cohomology vectors are checked as ``normalize`` states;
        ``cls`` must be admissible.  Each monomial folds the ``_units`` entry
        of each index: a divisor multiplies its coefficient by its
        intersection number with ``cls``, a non-divisor adds its packed code,
        weight, base order and count.  A monomial with a fundamental class or
        a divisor of zero intersection, off the weight budget, or past
        ``TargetDatum.order_bound`` adds nothing; more than 255 non-divisors
        on the budget raise ValueError first.  Coefficients are in normal
        form, zeros left out, and no code is decoded.
        """
        datum = self.datum
        indices = []
        vectors = []
        for ins in _as_tuple(insertions, "insertions"):
            if isinstance(ins, (tuple, list)):
                vec = datum.check_vector(ins)
                vectors.append(tuple((e, c) for e, c in enumerate(vec) if c != 0))
            else:
                indices.append(datum.check_index(ins))
        combos = [(indices, 1)]
        for pairs in vectors:
            combos = [(idx + [e], c * ce) for idx, c in combos for e, ce in pairs]
        units = self._units
        mults = cls + (1, 0)  # indexed by a unit's slot
        budget = self._budget(cls)
        order_bound = datum.order_bound
        terms: dict = {}
        for idxs, c in combos:
            code = w = t = n = 0
            for e in idxs:
                s, ce, we, te, ne = units[e]
                c *= mults[s]
                code += ce
                w += we
                t += te
                n += ne
            if not c or w != budget:
                continue
            if n > MemoStore.MAX_INSERTIONS:  # the packer refuses the list
                self.memo.code([e for e in idxs if units[e][4]])
            if t <= order_bound(cls, n):
                terms[code] = terms.get(code, 0) + c
        return {code: qnorm(c) for code, c in terms.items() if c != 0}

    def _canon_code(self, cls, x, y, m, sums):
        """``_canon`` of one monomial, for the collapsed terms of ``_build``.

        Canonicalizes the monomial (x, y, m) plus extras whose sums
        ``(code, weight, base-order sum, count)`` are given, as
        ``_partition_groups`` returns them: each of x, y and m adds its
        ``_units`` entry.  Returns ``(code, n, mult)``, the packed code and
        insertion count of the key and the divisor multiplier, or None
        where ``_canon`` leaves the monomial out.  No index is checked, and
        the three units are read unrolled.
        """
        code, w, t, n = sums
        units = self._units
        mults = cls + (1, 0)  # indexed by a unit's slot
        sx, cx, wx, tx, nx = units[x]
        sy, cy, wy, ty, ny = units[y]
        sm, cm, wm, tm, nm = units[m]
        mult = mults[sx] * mults[sy] * mults[sm]
        if not mult or w + wx + wy + wm != self._budget(cls):
            return None
        n += nx + ny + nm
        if t + tx + ty + tm > self.datum.order_bound(cls, n):
            return None
        return code + cx + cy + cm, n, mult

    def normalize(self, cls, insertions) -> LinearForm:
        """Expand insertions multilinearly into canonical keys.

        ``insertions`` may mix basis indices and cohomology vectors (tuples
        or lists), as ``TargetDatum.check_index`` and ``check_vector`` accept
        them; anything else raises ValueError, as does a key over the memo's
        insertion limit, even one that the projection to the base plane
        would drop. The class must be effective and nonzero; degree-0
        invariants exist only inside equation building, never as keys.
        Coefficients are in normal form and the constant is 0.  The codes
        of ``_canon``'s expansion are decoded here, at the public edge.
        """
        cls = self._check_class(cls)
        terms = self._canon(cls, insertions)
        return LinearForm({(cls, self.memo.decode(c)): v for c, v in terms.items()})

    def _check_class(self, cls) -> tuple:
        """The class as a tuple if effective and nonzero, else ValueError."""
        cls = _as_tuple(cls, "a class")
        if not self.datum.effective(cls):
            raise ValueError(f"class {cls} is not effective")
        if not any(cls):
            raise ValueError("the zero class carries no invariant keys")
        return cls

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------

    def value_of(self, key):
        """Exact value of a canonical admissible key, solving stages on demand.

        The entry point for a caller's key; the engine never calls it.
        Every call, hit or miss, checks that the key is a pair of tuples
        and passes ``_key_sums``, so a bad key raises ValueError and leaves
        the memo unchanged, on a cold engine and a warm one alike; then the
        class and the packed code the gate returns go to ``_resolve``.
        """
        if not (
            type(key) is tuple
            and len(key) == 2
            and type(key[0]) is tuple
            and type(key[1]) is tuple
        ):
            raise ValueError(
                f"an invariant key is a (class, insertions) pair of tuples "
                f"of ints, got {key!r}"
            )
        return self._resolve(key[0], self._key_sums(*key)[0])

    def _resolve(self, cls, code):
        """Exact value of the key of class ``cls`` and packed code ``code``:
        the one path of every key, a caller's or the engine's.

        The key must be canonical and admissible, as every key ``_canon``,
        ``_build`` and ``_row`` form is and as ``value_of`` checks.  A
        key the memo holds (it may have been solved since the caller's
        lookup) is returned undecoded.  A miss is decoded to the sorted
        tuple that ``base_case`` and ``vanishes`` read, the one decode on
        this path: a base case or a key the projection to the base plane
        kills is stored by its code without visiting a stage; any other key
        is solved by a visit to its stage, which takes the code.
        """
        vals = self.memo.class_values(cls)
        v = vals.get(code)
        if v is not None:
            return v
        ins = self.memo.decode(code)
        b = self.datum.base_case(cls, ins)
        if b is None and self.datum.vanishes(cls, ins):
            b = 0
        if b is not None:
            self.memo.set(cls, code, b)
            return b
        self._solve_for(cls, len(ins), code)
        return vals[code]

    def _key_sums(self, cls, ins) -> tuple:
        """The record ``(code, w, t, n)`` of a canonical admissible key
        ``(cls, ins)`` of two tuples: the packed memo code, weight (the
        class's budget), base-order sum (which the projection rule reads)
        and insertion count of ``ins``, as ``_list_record`` keeps it.
        Anything else raises ValueError: a class or insertion that is not an
        ``int``, checked first, since 4.0 and True hash and compare like 4
        and 1; a class that is zero or not effective; insertions that are
        not sorted non-divisor basis indices (at most 255 of them) whose
        weights fill the class's budget.

        The one key gate of ``value_of`` and ``load_cache``.  A class
        passes ``_check_class`` only while ``_budgets``, which holds
        admissible classes only, lacks it, and a list passes
        ``MemoStore.code`` and the sorted check only while ``_list_sums``
        lacks it; the weight is checked on every call."""
        if not _ONLY_INTS.issuperset(map(type, cls + ins)):
            raise ValueError(f"key {(cls, ins)!r} must hold ints only")
        budget = self._budgets.get(cls)
        if budget is None:
            budget = self._budget(self._check_class(cls))
        sums = self._list_sums.get(ins) or self._list_record(ins)
        if sums[1] != budget:
            raise ValueError(f"key {(cls, ins)!r} violates the dimension count")
        return sums

    def _list_record(self, ins) -> tuple:
        """Build, keep in ``_list_sums`` and return the one record ``(code,
        w, t, n)`` of a sorted list of non-divisor indices, which
        ``_key_sums`` and ``_partition_groups`` read; ValueError for a list
        ``MemoStore.code`` refuses or one out of order."""
        code = self.memo.code(ins)
        if list(ins) != sorted(ins):
            raise ValueError(f"key insertions {ins!r} are not sorted")
        weights, orders = self.datum.weights, self.datum.base_orders
        sums = self._list_sums[ins] = (
            code,
            sum(weights[e] for e in ins),
            sum(orders[e] for e in ins),
            len(ins),
        )
        return sums

    def invariant(self, cls, insertions):
        """I_cls(insertions): each packed code ``_canon`` forms goes to
        ``_resolve``, past ``value_of``'s gate.

        A bad class or insertion raises ``normalize``'s ValueError.  The
        value is in normal form: an ``int`` when integral, else a Rat.
        """
        cls = self._check_class(cls)
        total = 0
        for code, coeff in self._canon(cls, insertions).items():
            total += coeff * self._resolve(cls, code)
        return qnorm(total)

    def three_point_row(self, cls, x, y):
        """The three-point basis row of (T_x, T_y) at ``cls``.

        Returns ``((top - i, I_cls(T_x, T_y, T_i)), ...)`` over the i whose
        invariant is nonzero, the empty tuple when there is none; ``cls`` is
        a nonzero effective class and x, y are basis indices in either
        order, all checked on every call.  A class the datum declares zero
        (``TargetDatum.zero_class``) has the empty row, and none of its
        keys is looked up or stored.  Only ``_box_rows`` keeps rows.
        """
        cls = self._check_class(cls)
        self.datum.check_index(x)
        self.datum.check_index(y)
        if self.datum.zero_class(cls):
            return ()
        return self._row(cls, x, y)

    def _row(self, cls, x, y):
        """``three_point_row`` without the checks, for ``_box_rows``, at a
        class not declared zero: the one builder of a three-point row.

        By the divisor axiom the entry of i is x.cls times y.cls times
        i.cls (a divisor's intersection number, 1 for a non-divisor, 0 for
        the fundamental class) times the invariant of the non-divisor parts
        alone.  So the row runs over the i of ``_thirds`` that fill the
        weight budget and whose key the projection keeps
        (``TargetDatum.order_bound``), forms each key on packed codes and
        values it by ``_resolve``, the internal path, not the caller's gate
        of ``value_of``; zeros are left out.  A multiplier m scales an int
        value as ``m * val`` and a Rat as ``qdiv(m * numerator,
        denominator)``: the value and type of ``qnorm(m * val)`` without
        Fraction arithmetic (the (a, 0) base cases +-3/a^2 times a^2 are
        ints).  Pairs with one non-divisor part (T1 * T3 and T2 * T3; the
        three divisor pairs) share memo keys, not a cached row: only
        ``_box_rows`` keeps rows."""
        units = self._units
        mults = cls + (1, 0)  # indexed by a unit's slot
        sx, cx, wx, tx, nx = units[x]
        sy, cy, wy, ty, ny = units[y]
        mult = mults[sx] * mults[sy]
        if not mult:
            return ()
        code, t, n = cx + cy, tx + ty, nx + ny
        order_bound = self.datum.order_bound
        resolve = self._resolve
        top = self.datum.top
        entries = []
        for i in self._thirds.get(self._budget(cls) - wx - wy, ()):
            s, ci, _wi, ti, ni = units[i]
            m = mult * mults[s]
            if m and t + ti <= order_bound(cls, n + ni):
                val = resolve(cls, code + ci)
                if val:
                    if m != 1:
                        val = (
                            m * val
                            if type(val) is int
                            else qdiv(m * val.numerator, val.denominator)
                        )
                    entries.append((top - i, val))
        return tuple(entries)

    def _box_rows(self, x, y, n1, n2):
        """The three-point rows of the pair (x, y) over the classes (a, b)
        with a <= n1 and b <= n2, as q1-slices, for the quantum product:
        one ``(b, j, ((a, val), ...))`` for each q2 degree b and output
        index j with a nonzero entry, the ``(a, val)`` sorted by a and the
        slices by (b, j).  The degree-0 row is the cup product (the cup
        table's entries at a = b = 0); every other class gives its
        ``_row((a, b), x, y)``.  So ``quantum.star`` adds a whole slice into
        one dense list per output (b, j), the cup term included, and stops
        at the first a past the truncation.  Built once per basis pair and
        truncation; the box is the only store of rows, and the pairs of one
        non-divisor part share memo keys.  Memo values are never
        overwritten, so a kept box cannot go stale.

        A box visits only the classes that can hold a row: those
        ``_list_box_classes`` lists for the truncation (once, by budget, in
        ``_box_classes``) whose row weight, the budget less the weights of
        x and y, is the weight of an index of ``_thirds``.  So no row looks
        up or stores a key of a declared-zero class, and at (80, 2) the nine
        boxes of ``qcoh`` build 738 rows, not one per class and pair
        (2,178), and keep the 249 nonempty ones as 22 slices.  The classes
        (a, b) are admissible only on a two-parameter target, which the
        quantum product checks before it asks for a box."""
        key = (x, y, n1, n2)
        box = self._boxes.get(key)
        if box is None:
            groups = self._box_classes.get((n1, n2))
            if groups is None:
                groups = self._box_classes[(n1, n2)] = self._list_box_classes(n1, n2)
            datum = self.datum
            thirds = self._thirds
            wxy = datum.weights[x] + datum.weights[y]
            rows = []
            for budget, classes in groups.items():
                if budget - wxy in thirds:
                    for cls in classes:
                        row = self._row(cls, x, y)
                        if row:
                            rows.append((cls, row))
            # the degree-0 row is the cup product
            slices: dict = {(0, m): [(0, cm)] for m, cm in datum.cup_terms[x][y]}
            for (a, b), row in sorted(rows):
                for j, val in row:
                    slices.setdefault((b, j), []).append((a, val))
            box = self._boxes[key] = tuple(
                (b, j, tuple(s)) for (b, j), s in sorted(slices.items())
            )
        return box

    def _list_box_classes(self, n1, n2) -> dict:
        """The classes of a truncation that can hold a three-point row,
        grouped by budget: each (a, b) != (0, 0) with a <= n1 and b <= n2
        that the datum does not declare zero and whose budget is at most
        the largest weight of a pair plus the largest of ``_thirds`` (a
        row's three weights fill the budget).  The budget is
        ``k1 * a + k2 * b`` plus that of (0, 0), (k1, k2) the anticanonical
        class, so a class is grouped by the sum its loop forms (with no
        ``_budgets`` entry), and each loop stops once the budget can only
        grow past the bound: on Hilb^2, -K = (0, 3) keeps b <= 2 and a
        truncation at q2^(10^6) lists 12 classes at n1 = 4.  A negative
        entry bounds nothing, and its loop runs to the truncation."""
        d = self.datum
        zero_class = d.zero_class
        k1, k2 = d.anticanonical
        base = d.weight_budget((0, 0))
        room = 2 * max(d.weights) + max(self._thirds) - base
        groups: dict = {}
        for a in range(n1 + 1):
            if min(k1, k2) >= 0 and k1 * a > room:
                break
            for b in range(n2 + 1):
                k = k1 * a + k2 * b
                if k > room:
                    if k2 >= 0:
                        break
                    continue
                cls = (a, b)
                if (a or b) and not zero_class(cls):
                    groups.setdefault(base + k, []).append(cls)
        return groups

    # ------------------------------------------------------------------
    # equation building
    # ------------------------------------------------------------------

    def build_equation(self, cls, frame, extras) -> LinearForm:
        """One associativity relation as an affine form in current-stage keys.

        The current stage is (cls, len(extras) + 3); every key outside it is
        resolved to its exact value (solving earlier stages as needed), and
        by construction no key of a later stage can occur. Frames with equal
        second and fourth entries give the zero form.
        """
        cls = self._check_class(cls)
        frame = self._check_frame(frame)
        extras = self._check_extras(extras)
        terms, const = self._build(cls, frame, extras)
        decode = self.memo.decode
        return LinearForm(
            {(cls, decode(c)): qnorm(v) for c, v in terms.items()}, qnorm(const)
        )

    def wdvv_residual(self, cls, frame, extras):
        """Value of a fully resolved associativity relation, always zero: the
        relation of ``build_equation``, past its gates, with each code that
        ``_build`` leaves symbolic resolved by ``_resolve``."""
        cls = self._check_class(cls)
        frame = self._check_frame(frame)
        extras = self._check_extras(extras)
        terms, total = self._build(cls, frame, extras)
        for code, coeff in terms.items():
            total += coeff * self._resolve(cls, code)
        return qnorm(total)

    def _check_frame(self, frame):
        frame = _as_tuple(frame, "a frame")
        if len(frame) != 4:
            raise ValueError("a frame has exactly four basis indices")
        for e in frame:
            if self.datum.codims[self.datum.check_index(e)] == 0:
                raise ValueError(f"frame entry {e} is not a positive-codimension index")
        return frame

    def _check_extras(self, extras):
        extras = _as_tuple(extras, "extras")
        self.memo.code(extras)  # the packer refuses what a key may not hold
        return tuple(sorted(extras))

    def _build(self, cls, frame, extras):
        """Assemble S(i,j,k,l) - S(i,l,j,k) at stage (cls, len(extras) + 3):
        the stage keys outside the memo stay symbolic, the rest resolve;
        split terms follow each ordering's signature plan over
        ``_partition_groups``.  No collapsed key can lie past the stage: it
        holds the extras and at most the three non-divisors x, y and m.
        A frame and extras whose weights miss ``budget(cls) - 1`` give the
        zero form: no collapsed term meets the dimension count and no split
        term balances.

        Each ordering (p, q, r, s) reads its two frame sides, (p, q) and
        (r, s), from ``_sides``: the divisors, packed code and weight of
        each side.  The divisors pick the signature plan
        ``_signature_plans[(cls, div1, div2)]``, built by ``_split_plan`` on
        a miss; the codes enter every factor's key, and w(kept1) picks the
        partition group of each (split, weight of e) entry of the plan.  The
        walk is partition-first: per partition A of the group, the two
        factors' codes without e and e^ are summed once, and the entry's
        pairs add code(e) and code(e^) to them.

        Every key is formed on packed codes and none is decoded: a
        collapsed term by ``_canon_code`` from the extras' cached sums, a
        split factor by adding codes along the plan.  A key is looked up in
        its class's live value dict: a miss below the stage goes to
        ``_resolve`` on its code, and a miss in the stage stays symbolic,
        keyed by its code in the returned ``{code: coefficient}``.  A closed
        side of a split (``_side_values``) is read from its plan's static
        table instead: an int dict of its values times their denominator,
        never the memo.  So each split's sum ``acc`` and each ordering's
        ``part``, lcd times its value, are ints whenever the memo's values
        are, as every value of a class that is not closed has been on the
        tables.  ``part`` is divided by the plan's lcd once per ordering
        (``qdiv``), only when lcd > 1, and the constant is brought to normal
        form once, at return."""
        i, j, k, l = frame
        if j == l:
            return {}, 0
        sums, groups = self._partition_groups(extras)
        code_x, w_x = sums[0], sums[1]
        stage_n = sums[3] + 3
        datum = self.datum
        weights = datum.weights
        if (
            weights[i] + weights[j] + weights[k] + weights[l] + w_x
            != self._budget(cls) - 1
        ):
            return {}, 0
        cup_terms = datum.cup_terms
        canon_code = self._canon_code
        vals = self.memo.class_values(cls)
        resolve = self._resolve
        sides = self._sides
        signature_plans = self._signature_plans
        terms: dict = {}
        const = 0

        for (p, q, r, s), sign in (((i, j, k, l), 1), ((i, l, j, k), -1)):
            # collapsed degree-0 terms: I(x, y, (u cup v), extras)
            for x, y, u, v in ((p, q, r, s), (r, s, p, q)):
                for m, cm in cup_terms[u][v]:
                    canon = canon_code(cls, x, y, m, sums)
                    if canon is None:
                        continue
                    code, n, mult = canon
                    coeff = sign * cm * mult
                    val = vals.get(code)
                    if val is None:
                        if n == stage_n:
                            terms[code] = terms.get(code, 0) + coeff
                            continue
                        val = resolve(cls, code)
                    const += coeff * val

            # split terms over beta1 + beta2 = cls, both nonzero effective,
            # walked along the signature plan of the two frame sides (see
            # _split_plan): only the (split, e) pairs whose divisor
            # multipliers are nonzero, grouped by w(e).  A split's sum is
            # multiplied once by its frame-divisor multiplier m, each term by
            # the multiplier f of e and e^, and the sign is applied once to
            # the ordering's sum.  On the dimension count every pair
            # balances, and w(A) = need - w(kept1) picks one partition group
            # per (split, weight), kept1 being the non-divisor entries of
            # (p, q).
            div1, code1, w1 = sides[p][q]
            div2, code2, _w2 = sides[r][s]
            plan = signature_plans.get((cls, div1, div2))
            if plan is None:
                plan = self._split_plan(cls, div1, div2)
            lcd, splits = plan
            part = 0
            # Python-level calls stay out of this loop (_resolve runs only on
            # a memo miss): it runs at the deepest point of the stage
            # recursion, where a call can make the interpreter map and unmap
            # a fresh frame-stack chunk every time.  A factor's key is its
            # class plus the packed code of its insertions, the sum of the
            # partition side's and the frame's codes, looked up in the
            # class's live value dict.  Both factors are looked up before
            # either is solved: a term with a stored zero is skipped, and a
            # missing factor is solved only while its partner can still be
            # nonzero (v1 first, then v2 if v1 came out nonzero), so no key
            # is solved just to be multiplied by a known zero.  A closed
            # side's dict holds its values times its denominator, so acc and
            # part stay int; scale lifts each split to the plan's lcd.
            for vals1, vals2, b1, b2, m, scale, sub in splits:
                acc = 0
                for need, pairs in sub:
                    grp = groups.get(need - w1)
                    if grp is None:
                        continue
                    for code_a, mult in grp:
                        # code(B) + code(r, s) = code(extras) - code(A) + code2
                        key1 = code1 + code_a
                        key2 = code2 + code_x - code_a
                        for pe, peh, f in pairs:
                            v1 = vals1.get(key1 + pe)
                            if v1 == 0:
                                continue
                            v2 = vals2.get(key2 + peh)
                            if v2 == 0:
                                continue
                            if v1 is None:
                                v1 = resolve(b1, key1 + pe)
                                if v1 == 0:
                                    continue
                            if v2 is None:
                                v2 = resolve(b2, key2 + peh)
                                if v2 == 0:
                                    continue
                            acc += f * mult * v1 * v2
                if acc:
                    part += m * scale * acc
            if lcd > 1:
                part = qdiv(part, lcd)
            const += sign * part

        return {k: v for k, v in terms.items() if v != 0}, qnorm(const)

    def _split_plan(self, cls, div1, div2):
        """The splits of ``_class_plan(cls)`` that a frame with divisors div1
        on its first side and div2 on its second can reach, with their
        common denominator: ``(lcd, splits)``.

        Each split is ``(vals1, vals2, b1, b2, m, scale, sub)`` with m the
        frame-divisor multiplier, the product of b1[pos[x]] over x in div1
        and b2[pos[x]] over x in div2; splits with m = 0 are left out.  lcd
        is the lcm of the kept splits' denominators D1 * D2 (1 when no
        closed side holds a true fraction), and ``scale = lcd // (D1 * D2)``
        is one int object per distinct denominator, so a split term summed
        over the scaled closed values and multiplied by scale is lcd times
        its value.  ``sub`` is the class plan's own tuple of pairs grouped
        by weight, so every signature of a class shares its entries.  Built
        once per signature, on ``_build``'s first miss in
        ``_signature_plans``, and stored there.
        """
        pos = self.datum.divisor_pos
        kept = []
        dens = set()
        for vals1, vals2, b1, b2, den, sub in self._class_plan(cls):
            m = 1
            for x in div1:
                m *= b1[pos[x]]
            for x in div2:
                m *= b2[pos[x]]
            if m:
                kept.append((vals1, vals2, b1, b2, m, den, sub))
                dens.add(den)
        lcd = math.lcm(*dens)
        scales = {den: lcd // den for den in dens}
        splits = tuple(
            (vals1, vals2, b1, b2, m, scales[den], sub)
            for vals1, vals2, b1, b2, m, den, sub in kept
        )
        plan = self._signature_plans[(cls, div1, div2)] = (lcd, splits)
        return plan

    def _class_plan(self, cls):
        """The splits b1 + b2 = cls of every frame, built once per class.

        One ``(vals1, vals2, b1, b2, den, sub)`` per split from one
        ``TargetDatum.splits`` call.  A side whose class is closed (weight
        budget <= 2) gets the static dict of ``_side_values``, holding its
        values times its denominator D; any other side gets its class's live
        memo value dict and D = 1; den = D1 * D2.  ``sub`` groups the basis
        pairs whose multiplier f is nonzero by weight: ``((need, ((code(e),
        code(e^), f), ...)), ...)``, one entry per w(e) in increasing order
        with need = budget(b1) - w(e), so the partition side A of the first
        factor has weight ``need - w(kept1)`` for every pair of an entry
        and ``_build`` looks its group up once per entry.  Within an entry
        the pairs keep the index order of e.  Code, weight and f come from
        ``_units``: f is the slot multiplier of e in b1 times that of e^ in
        b2, which is b1 . T_e for a divisor e, 1 for a non-divisor and 0 for
        the fundamental class, so a pair with a fundamental-class end drops
        out by itself.  A split with a side in a class that
        ``TargetDatum.zero_class`` declares zero is left out, so the split
        sum never looks up or stores keys of such a class; so is a split
        with no surviving pair.  Cached in ``_class_plans``.
        """
        plan = self._class_plans.get(cls)
        if plan is not None:
            return plan
        datum = self.datum
        units = self._units
        zero_class = datum.zero_class
        out = []
        for b1, b2 in datum.splits(cls):
            if zero_class(b1) or zero_class(b2):
                continue
            bud1 = self._budget(b1)
            mults1 = b1 + (1, 0)  # indexed by a unit's slot
            mults2 = b2 + (1, 0)
            by_weight: dict = {}
            for e, eh in enumerate(datum.dual):
                s1, pe, we, _t, _n = units[e]
                s2, peh, _w, _t, _n = units[eh]
                f = mults1[s1] * mults2[s2]
                if f:
                    by_weight.setdefault(we, []).append((pe, peh, f))
            if by_weight:
                vals1, den1 = self._side_values(b1)
                vals2, den2 = self._side_values(b2)
                sub = tuple(
                    (bud1 - we, tuple(pairs))
                    for we, pairs in sorted(by_weight.items())
                )
                out.append((vals1, vals2, b1, b2, den1 * den2, sub))
        plan = self._class_plans[cls] = tuple(out)
        return plan

    def _side_values(self, cls):
        """``(values, D)`` for one side of a split: the class's live memo
        value dict and D = 1, or for a closed class a static dict of its
        values times D, the lcm of their denominators, so every entry is an
        int.

        A class is closed when its weight budget is at most 2.  Every
        non-divisor has weight >= 1, so a key of it holds at most two
        insertions and is a base case or a key the projection to the base
        plane kills; ``_solve_for`` refuses any other.  The table holds the
        base cases of the class's ``_stage_keys``, read from the datum once
        per class and never through the memo.  A key it lacks, one the
        projection kills or one no base case covers, goes to ``_resolve``
        when the split sum reaches it, which stores the first as 0 and
        refuses the second.  On Hilb^2 the closed classes are the (a, 0),
        whose keys are the base cases T3, T4 and T5 with values +-3/a^2 and
        0, the only true fractions the tables meet; on the plane, (1,).
        """
        budget = self._budget(cls)
        if budget > 2:
            return self.memo.class_values(cls), 1
        table = self._closed.get(cls)
        if table is None:
            values = {}
            for n in range(budget + 1):
                for _cls, ins in self._stage_keys(cls, n):
                    v = self.datum.base_case(cls, ins)
                    if v is not None:
                        values[self.memo.code(ins)] = qnorm(v)
            den = math.lcm(*(v.denominator for v in values.values()))
            table = self._closed[cls] = (
                {c: v.numerator * (den // v.denominator) for c, v in values.items()},
                den,
            )
        return table

    def _partition_groups(self, extras):
        """Partitions A|B of an insertion multiset, grouped by weight of A.

        Returns ``(sums, groups)``: sums is the record ``(code(extras),
        w(extras), t(extras), len(extras))`` of ``_list_sums``, with t the
        sum of base orders, as ``_canon_code`` reads it, and groups is ``{w(A): ((code(A), mult),
        ...)}`` with the memo's packed codes, where mult counts the ways to
        pick A among the labeled copies of equal classes. B is the
        complement: code(B) = code(extras) - code(A) and w(B) = w(extras) -
        w(A).  ``_build`` reads w(extras) in its frame's dimension check;
        the split sum finds a group by w(A) alone.  The result is cached per
        multiset in ``_partition_cache``.
        """
        cached = self._partition_cache.get(extras)
        if cached is not None:
            return cached
        sums = self._list_sums.get(extras) or self._list_record(extras)
        weights = self.datum.weights
        pack = self.memo.pack
        combos = [(0, 0, 1)]
        for e, m in sorted(Counter(extras).items()):
            pe, we = pack[e], weights[e]
            combos = [
                (ca + pe * take, wa + we * take, mu * binom(m, take))
                for ca, wa, mu in combos
                for take in range(m + 1)
            ]
        groups: dict = {}
        for ca, wa, mu in combos:
            groups.setdefault(wa, []).append((ca, mu))
        cached = self._partition_cache[extras] = (
            sums,
            {wa: tuple(grp) for wa, grp in groups.items()},
        )
        return cached

    # ------------------------------------------------------------------
    # stage solving
    # ------------------------------------------------------------------

    def solve_stage(self, cls, n) -> None:
        """Solve every admissible key of stage (cls, n >= 0) into the memo.

        Each key goes to ``_resolve``, the one path of every key: a memo key
        is skipped, a base case or a key the projection kills is stored, and
        any other key starts its own visit to the stage."""
        cls = self._check_class(cls)
        if check_int(n, "a stage size") < 0:
            raise ValueError(f"a stage size must be non-negative, got {n}")
        code = self.memo.code
        for _cls, ins in self._stage_keys(cls, n):
            self._resolve(cls, code(ins))

    def _solve_for(self, cls, n, code) -> None:
        """Visit stage (cls, n) to solve the key of packed ``code``: one
        ExactLinearSolver and one harvest walk from the key, which solves
        each lead equation as it leaves it.  ``_resolve`` is the only
        caller; the key must be solved when the walk returns."""
        if n < 3:
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) reached the solver; base cases "
                "and dimension vanishing must cover every key with n <= 2"
            )
        self._harvest_closure(cls, ExactLinearSolver(self.memo, cls), code, n)
        if code not in self.memo.class_values(cls):
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) underdetermined; "
                f"unsolved: {self.memo.decode(code)}"
            )

    # -- harvesting ------------------------------------------------------

    def _harvest_closure(self, cls, st, code, n) -> None:
        """Solve the key of packed ``code``, of stage (cls, n), and every
        same-stage key its lead equation needs, depth first.

        ``st`` is the visit's ExactLinearSolver.  A key's lead equation is
        built once, by ``_build`` on the spec ``_leads`` holds for its
        insertion list (``_lead_spec``, decoded once per list: 137 lists
        serve the 581 keys of the d <= 6 tables, 361 the 2,700 of the
        d <= 10 tables, since the spec depends on the insertions alone).
        The codes the equation keeps symbolic are the same-stage keys
        outside the memo, so the walk takes its unknowns from the equation
        itself: it walks each one the memo still lacks, then hands
        ``(terms, const)`` to ``st.add``, which solves the key into the
        memo.  The memo is the walk's record of finished keys.  Reaching a
        key whose walk is still open means the lead equations form a cycle,
        which substitution cannot solve; that raises UnderdeterminedStage,
        and decoding for its message is the walk's only other decode.  The
        keys solved before the raise stay in the memo.  A build runs inside
        the walk, so the lower-stage visits it makes stack on top of the
        walk's open path: the d <= 10 tables peak at 111 Python frames.
        """
        leads = self._leads
        build = self._build
        vals = self.memo.class_values(cls)
        walking = set()

        def walk(code):
            walking.add(code)
            spec = leads.get(code)
            if spec is None:
                spec = leads[code] = self._lead_spec(self.memo.decode(code))
            terms, const = build(cls, *spec)
            for nb in terms:
                if nb == code or nb in vals:
                    continue
                if nb in walking:
                    raise UnderdeterminedStage(
                        f"lead equations of stage (cls={cls}, n={n}) form a "
                        f"cycle through {(cls, self.memo.decode(nb))}"
                    )
                walk(nb)
            walking.discard(code)
            st.add(terms, const)

        walk(code)

    def _lead_spec(self, ins):
        """The lead equation spec ``(frame, extras)`` of sorted insertions.

        Triangular frame ``(dv, rho, u, v)``: an anchor insertion t, its
        lead row (``_lead_rows``: the first divisor product T_dv . T_rho in
        index order that contains t and no index above t), and two more
        insertions.  A frame is accepted only when its second family of
        same-stage unknowns is ruled out: the row's rho is a divisor (the
        family drops a stage) or the fourth slot erases it (v in vkill).

        One rule fills all three slots, rarest first.  Anchors are tried by
        fewest copies in the key, ties to the larger index; v is the
        candidate (any remaining insertion, or any in vkill) with the fewest
        copies among the remaining insertions, u the rarest of those left
        after v, ties to the smaller index.  Taking a copy of an index held
        m times divides the extras' count of sub-multisets, prod(m + 1), by
        (m + 1) / m, most for the smallest m, so the split sum walks the
        fewest partitions A|B and reaches the fewest lower-stage keys.

        Any anchor is safe.  For every lead row, each cup term m of
        T_dv . T_rho other than t has a smaller index than t, because the
        row is chosen so (on Hilb^2: T4 -> T3; T5 -> T3, T4; T7 -> T6; T3,
        T6 and T8 have no other term).  So each first-family unknown,
        extras + u + v + m = the key minus t plus m, has a strictly smaller
        index sum than the key, whichever insertion anchors the frame; the
        second family is erased by v in vkill, or it drops a stage.  The
        cycle check of ``_harvest_closure`` stays the guard.

        Keys that no anchor fits fall back to the frame of the first t
        tried whose fourth slot is not rho.  Only this frame refers
        forward (7 of the 2,700 specs of the d <= 10 tables); the harvest
        walk solves the keys it references before it.

        The fallback exists for every key with n >= 3 insertions, so the
        error below cannot fire there.  rho(t) has codimension one less than
        t, so it is not t.  If every insertion besides one copy of the first
        t tried were r = rho(t), then t would occur once and r n - 1 >= 2
        times.  r is tried next, and the insertions besides one copy of r
        hold r itself, which is not rho(r), so a frame on r is accepted or
        the fallback takes it.
        """
        lead_rows = self._lead_rows
        fallback = None
        for t in sorted(set(ins), key=lambda e: (ins.count(e), -e)):
            dv, rho, vkill = lead_rows[t]
            i = ins.index(t)
            rest = ins[:i] + ins[i + 1 :]
            count = rest.count
            if vkill is None:
                v = min(rest, key=count)
            else:
                v = min((x for x in rest if x in vkill), key=count, default=None)
                if v is None:
                    if fallback is None:
                        w = next((x for x in rest if x != rho), None)
                        if w is not None:
                            jw = rest.index(w)
                            remw = rest[:jw] + rest[jw + 1 :]
                            fallback = ((dv, rho, remw[0], w), remw[1:])
                    continue
            j = rest.index(v)
            rem = rest[:j] + rest[j + 1 :]
            u = min(rem, key=rem.count)
            j = rem.index(u)
            return (dv, rho, u, v), rem[:j] + rem[j + 1 :]
        if fallback is None:  # pragma: no cover - impossible for n >= 3
            raise UnderdeterminedStage(f"no lead frame fits insertions {ins}")
        return fallback

    def _stage_keys(self, cls, n):
        """All admissible keys of stage (cls, n) that the base plane does not
        kill, sorted."""
        budget = self._budget(cls)
        datum = self.datum
        nond = datum.nondivisors
        weights = datum.weights
        vanishes = datum.vanishes
        out = []

        def rec(pos, left, wleft, acc):
            if left == 0:
                if wleft == 0 and not vanishes(cls, acc):
                    out.append((cls, tuple(acc)))
            elif pos < len(nond):
                e = nond[pos]
                w = weights[e]  # >= 1: a non-divisor has codimension >= 2
                for k in range(min(left, wleft // w) + 1):  # k copies of e
                    rec(pos + 1, left - k, wleft - w * k, acc + [e] * k)

        rec(0, n, budget, [])
        return sorted(out)

    # ------------------------------------------------------------------
    # cache persistence
    # ------------------------------------------------------------------

    def save_cache(self, path) -> int:
        """Write the memo store as deterministic JSON; returns entry count.

        The file holds ``json.dumps(payload, separators=(",", ":"),
        sort_keys=True)`` and a newline, where ``payload`` has the keys
        ``schema``, ``target`` and ``entries``, one ``{"a", "b", "ins",
        "num", "den"}`` object per key in sorted key order, with the value
        as decimal strings. A key the projection to the base plane kills,
        or any key of a class the datum declares zero
        (``TargetDatum.zero_class``), is left out: ``value_of`` stores it as
        0 again without visiting a stage. The text is built from strings
        one class at a time, each code's insertion list rendered once. An
        ``int`` or ``bool`` path raises ValueError: ``open`` would take it
        as a file descriptor.
        """
        _check_path(path)
        if self.datum.rank != 2:
            raise CacheFormatError(
                "cache schema is defined for the two-parameter target only"
            )
        memo = self.memo
        decode = memo.decode
        vanishes = self.datum.vanishes
        rendered: dict = {}  # code -> (sorted insertions, their JSON list)
        entries = []
        for cls in memo.classes():
            if self.datum.zero_class(cls):
                continue
            rows = []
            for code, val in memo.class_values(cls).items():
                ins = rendered.get(code)
                if ins is None:
                    tup = decode(code)
                    ins = rendered[code] = (tup, ",".join(map(str, tup)))
                if val == 0 and vanishes(cls, ins[0]):
                    continue
                rows.append((ins, val))
            rows.sort()  # by insertions, unique within a class
            head = '{"a":%d,"b":%d,"den":"' % cls
            for (_tup, text), val in rows:
                num = str(val.numerator)
                den = str(val.denominator)
                entries.append(f'{head}{den}","ins":[{text}],"num":"{num}"}}')
        text = (
            '{"entries":[' + ",".join(entries)
            + '],"schema":' + json.dumps(CACHE_SCHEMA)
            + ',"target":' + json.dumps(self.datum.name) + "}\n"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return len(entries)

    def load_cache(self, path) -> int:
        """Load and validate a cache file into the memo; returns entry count.

        A file tagged with a ``schema`` other than CACHE_SCHEMA raises
        CacheFormatError; an untagged file, as written before the tag
        existed, loads, and so does one that holds killed keys as 0. Every
        entry must be canonical and dimension-admissible, with ``a``, ``b``
        and the ``ins`` list made of JSON integers and ``num`` and ``den``
        decimal strings (anything else, such as a string of digits for
        ``a`` or a number for ``num``, raises CacheFormatError); entries the
        base cases can derive must match them exactly, entries the
        projection to the base plane kills must be 0, and two entries of one
        key must agree, or InconsistentSystem is raised.

        The load is all or nothing, and one pass checks it. Each key passes
        ``_key_sums``, the gate of ``value_of`` too, whose ValueError becomes
        a CacheFormatError; the projection rule compares the base-order sum
        it returns with ``TargetDatum.order_bound``, as ``vanishes`` does. A
        value that conflicts with one already in the memo raises
        InconsistentSystem, as ``MemoStore.set`` would; the values are
        staged per class by code, and only after every entry has passed does
        ``MemoStore.set``, the memo's one write, store them, so a refused
        file loads nothing. Text the JSON parser rejects, bytes that are not
        UTF-8 included, raises CacheFormatError; an ``int`` or ``bool`` path
        raises ValueError before anything is opened.
        """
        _check_path(path)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            # not JSON or not UTF-8 (ValueError), or nested too deep
            except (ValueError, RecursionError) as exc:
                raise CacheFormatError(f"not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CacheFormatError("a cache file must hold one JSON object")
        if "schema" in payload and payload["schema"] != CACHE_SCHEMA:
            raise CacheFormatError(
                f"cache schema {payload['schema']!r} is not {CACHE_SCHEMA!r}"
            )
        if payload.get("target") != self.datum.name:
            raise CacheFormatError(
                f"cache target {payload.get('target')!r} does not match "
                f"{self.datum.name!r}"
            )
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise CacheFormatError("cache entries must be a list")
        base_case = self.datum.base_case
        order_bound = self.datum.order_bound
        key_sums = self._key_sums
        memo = self.memo
        staged: dict = {}  # admissible cls -> {code: value}
        for entry in entries:
            try:
                a = entry["a"]
                b = entry["b"]
                ins = entry["ins"]
                num = entry["num"]
                den = entry["den"]
                if type(num) is not str or type(den) is not str:
                    raise TypeError("num and den must be strings")
                val = rat_from_parts(num, den)
            except (KeyError, TypeError, ValueError) as exc:
                raise CacheFormatError(f"malformed entry {entry!r}") from exc
            if type(ins) is not list:
                raise CacheFormatError(f"entry insertions {ins!r} are not a list")
            ins = tuple(ins)
            cls = (a, b)
            try:
                code, _weight, order, _n = key_sums(cls, ins)
            except ValueError as exc:
                raise CacheFormatError(
                    f"entry ({cls}, {ins}) is not a canonical key: {exc}"
                ) from exc
            derivable = base_case(cls, ins)
            if derivable is not None and derivable != val:
                raise InconsistentSystem(
                    f"cache entry ({cls}, {ins}) = {val} contradicts base "
                    f"case {derivable}"
                )
            if val != 0 and order > order_bound(cls, len(ins)):
                raise InconsistentSystem(
                    f"cache entry ({cls}, {ins}) = {val} but the "
                    "projection to the base plane forces 0"
                )
            old = memo.class_values(cls).get(code)
            if old is not None and old != val:
                raise InconsistentSystem(
                    f"memo conflict at {(cls, ins)}: {old} vs {val}"
                )
            old = staged.setdefault(cls, {}).setdefault(code, val)
            if old != val:
                raise InconsistentSystem(
                    f"cache entries for ({cls}, {ins}) disagree: {old} vs {val}"
                )
        for cls, vals in staged.items():
            for code, val in vals.items():
                memo.set(cls, code, val)
        return len(entries)


def _as_tuple(x, what):
    """``tuple(x)``; a value that is not a sequence raises ValueError."""
    try:
        return tuple(x)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {x!r}") from None


def _check_path(path) -> None:
    """ValueError for an int or bool, which ``open`` takes as a descriptor."""
    if isinstance(path, int):
        raise ValueError(f"a cache path must name a file, got {path!r}")

