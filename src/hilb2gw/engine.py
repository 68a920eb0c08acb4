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
built on its largest insertion t, the decomposition row of t whose divisor
product contains t, and two more insertions, so that every other unknown of
the equation carries strictly fewer copies of the top indices (a few corner
keys take a frame that refers forward to keys with more).  Those two are the
rarest insertions the frame allows: that leaves the extras with the fewest
sub-multisets, so the split sum walks the fewest partitions and the closure
of a query reaches the fewest lower-stage keys, and it does not change which
same-stage keys the equation touches (see ``_lead_spec``).
The harvest walks the closure of the requested keys depth first and queues
each key's equation after the equations of its other unknowns, so the stage
is triangular in that order.  The solver writes each key into the memo as
it solves it and ``_build`` reads the earlier ones back as constants, so
each equation reaches the solver with one key left, which one exact
division solves.  The memo is the only store of solved values, and the
harvest stops at memo keys. A cycle among the lead equations, an equation
left with two unknowns, or a requested key left unsolved raises
UnderdeterminedStage: reconstruction guarantees solvability, so that is a
fatal invariant violation, as is any inconsistent equation.  A visit that
fails partway keeps the exact keys it solved before the failure.

The memo stores each canonical insertion multiset as a packed integer code,
one 8-bit digit per non-divisor basis index (see MemoStore), so the split sum
forms the key of a merged multiset by adding two codes instead of sorting a
tuple; the cached partitions of the spectator insertions share one object per
distinct (code, multiplicity) pair.

The split sum does no work it can see is zero.  Which (split, e) pairs of a
frame ordering can contribute (nonzero divisor multipliers, balanced
weights) depends only on the class, the frame and the weight of the extras,
so each is computed once into a cached plan.  Along the plan, both factors
of a term are looked up before either is solved: a stored zero ends the
term, and a missing factor is solved only while its partner can still be
nonzero.  The memo therefore never solves a key just to multiply it by a
known zero; which keys it holds depends slightly on the query order, their
values do not.  All arithmetic is exact and everything runs on the calling
thread.

About half of the keys the tables reach are zero by a theorem, and the
engine never solves one of them.  The Hilbert scheme is a P^2-bundle over
the dual plane, and the base divisor T1 is the pullback of its line class.
If T_e lies in T1^t(e) . H^* and a = T1 . beta, then by the functoriality
of stable maps under the projection the product of the pulled-back powers
of the line class comes from the space of stable maps to the plane.  So
the key vanishes when the sum of the t(e) exceeds 2 (a = 0, the composite
map is constant) or 3a - 1 + n, the dimension bound of the evaluation
image (a >= 1); see ``TargetDatum.vanishes``.  ``value_of`` stores such a
key as 0 without visiting a stage, as it stores a base case; ``_canon``
and ``normalize`` drop it like a dimension mismatch; the harvest and
``solve_stage`` never queue it; a cache entry that gives it a nonzero
value is an InconsistentSystem, and ``save_cache`` leaves it out.  The
split sum is unchanged: a killed factor becomes a stored 0 the first time
it is looked up.
"""

from __future__ import annotations

import json
from collections import Counter

from .chow import TargetDatum, hilb_datum
from .rationals import binom, check_int, qdiv, qnorm, rat_from_parts


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
    """Exact values by canonical key ``(cls, ins)``, one dict per class.

    The insertions of a key are a multiset of non-divisor basis indices; the
    store packs them into an int ``code = sum(pack[e] for e in ins)`` with
    ``pack[e] = 1 << (8 * rank of e in nondivisors)``, so adding two codes
    gives the code of the merged multiset, and reading the 8-bit digits back
    in nondivisor order gives the sorted tuple. A key with more than 255
    insertions, which could overflow a digit, or with an insertion that is
    not a non-divisor index raises ValueError.
    The layout is ``{cls: {code: value}}``; a class dict, once created, is
    never replaced, so callers may hold on to it (``class_values``).

    Values are stored in normal form (``int`` when integral, ``Rat``
    otherwise). An entry is never overwritten with a different value; a
    conflicting write raises InconsistentSystem. ``set`` writes one key and
    is the only write; ``merge`` checks a whole validated cache file against
    the store before it sets any of its keys, so it loads all or nothing.
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
        cls, ins = key
        vals = self._classes.get(cls)
        return None if vals is None else vals.get(self.code(ins))

    def set(self, key, value) -> None:
        cls, ins = key
        code = self.code(ins)
        vals = self.class_values(cls)
        value = qnorm(value)
        old = vals.get(code)
        if old is not None:
            if old != value:
                raise InconsistentSystem(
                    f"memo conflict at {key}: {old} vs {value}"
                )
            return
        vals[code] = value
        self._count += 1

    def merge(self, staged) -> None:
        """Write ``{cls: {ins: value}}`` into the store, all or nothing.

        The insertion tuples must be canonical and the values in normal
        form. Every value is checked against the store before any is
        written, so a conflict raises InconsistentSystem and leaves the store
        unchanged; then each key is written by ``set``, the one write path.
        """
        classes = self._classes
        code = self.code
        for cls, vals in staged.items():
            live = classes.get(cls)
            if live:
                for ins, value in vals.items():
                    old = live.get(code(ins))
                    if old is not None and old != value:
                        raise InconsistentSystem(
                            f"memo conflict at {(cls, ins)}: {old} vs {value}"
                        )
        for cls, vals in staged.items():
            for ins, value in vals.items():
                self.set((cls, ins), value)

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

    def __contains__(self, key) -> bool:
        return self.get(key) is not None


class ExactLinearSolver:
    """Exact solver of one stage visit's equations, writing into the memo.

    Each equation comes after those of its other unknowns, whose solved
    values ``_build`` reads from the memo, so one key is left, and one exact
    division solves it.
    """

    __slots__ = ("memo",)

    def __init__(self, memo: MemoStore):
        self.memo = memo

    def add(self, terms: dict, const) -> None:
        """Solve sum(terms * x) + const = 0 for its one key into the memo.

        ``terms`` maps keys to nonzero coefficients, as ``_build`` gives them.
        Raises UnderdeterminedStage, leaving the memo unchanged, when two or
        more keys are left, and InconsistentSystem when none is and the
        constant is not 0.
        """
        if len(terms) == 1:
            (k, coef), = terms.items()
            self.memo.set(k, -qdiv(const, coef))
        elif terms:
            raise UnderdeterminedStage(
                f"an equation reached the solver with {len(terms)} unsolved "
                f"keys: {sorted(terms)[:5]}"
            )
        elif const != 0:
            raise InconsistentSystem(f"0 = {const} from a harvested equation")


class _StageState:
    """Solving state of one visit to a stage.

    Every visit builds a fresh state and drops it on return: the memo is the
    only store of solved values.  ``seen`` lists the lead specs the harvest
    queued, each after the specs of its other unknowns; the drain solves
    every one of them into the memo, so a later visit to the same stage
    starts from the memo alone.  Each of the 2,479 visits of the d <= 6
    count tables in the CLI's query order (2,515 in the benchmark's seed-7
    order) solves exactly as many keys as it queued specs.
    """

    __slots__ = ("seen",)

    def __init__(self):
        self.seen = []  # lead specs in solving order


class Engine:
    """Reconstruction engine over one TargetDatum, with a persistent memo.

    Each kind of input passes one gate that raises ValueError on a bad value:
    ``_check_class``, ``normalize``, ``_check_frame`` and ``_check_extras``.
    """

    def __init__(self, datum: TargetDatum | None = None):
        self.datum = datum if datum is not None else hilb_datum()
        self.memo = MemoStore(self.datum.nondivisors)
        self._budgets: dict = {}
        self._key_budgets: dict = {}  # budgets of the classes _check_key passed
        self._partition_cache: dict = {}
        self._pairs: dict = {}  # shared (code(A), mult) pairs of the groups
        self._plans: dict = {}  # split plans by (cls, p, q, r, s, w_x)
        self._signature_plans: dict = {}  # their shared splits tuples
        self._plan_parts: dict = {}  # shared plan entries and sub tuples
        self._boxes: dict = {}  # nonempty rows of a box, by (x, y, n1, n2)
        d = self.datum
        self._vanishes = d.vanishes
        self._codims = d.codims
        self._weights = d.weights
        self._cup_terms = d.cup_terms
        # split-sum diagonal: (e, dual, both codims, both packed codes, the
        # code 0 standing for a divisor end), degenerate ends dropped
        pack = self.memo.pack
        self._epairs = tuple(
            (e, eh, d.codims[e], d.codims[eh], pack.get(e, 0), pack.get(eh, 0))
            for e, eh in enumerate(d.dual)
            if d.codims[e] != 0 and d.codims[eh] != 0
        )
        # For each non-divisor t, the decomposition row whose divisor product
        # contains t itself: the frame built on that row isolates keys holding
        # t against keys whose top indices are strictly smaller.  When the
        # row's second slot rho is itself a divisor, the frame's second family
        # of collapsed terms loses an insertion to the divisor axiom and lands
        # in an earlier stage, so the frame is safe for any fourth slot; that
        # case is marked with vkill = None.  Otherwise the frame is only safe
        # when the fourth slot holds an insertion whose product with the row
        # divisor vanishes, erasing the second family outright.
        self._lead_rows = {}
        for t in d.nondivisors:
            for dv, rho, _c in d.decompositions[t]:
                if any(m == t for m, _cm in d.cup_terms[dv][rho]):
                    if d.codims[rho] >= 2:
                        vkill = frozenset(
                            x for x in d.nondivisors if not d.cup_terms[dv][x]
                        )
                    else:
                        vkill = None
                    self._lead_rows[t] = (dv, rho, vkill)
                    break
            else:  # pragma: no cover - decomposition sums exactly to t
                raise EngineError(f"no self-supporting row for index {t}")

    # ------------------------------------------------------------------
    # canonicalization
    # ------------------------------------------------------------------

    def _budget(self, cls) -> int:
        b = self._budgets.get(cls)
        if b is None:
            b = self.datum.weight_budget(cls)
            self._budgets[cls] = b
        return b

    def _strip(self, cls, idxs):
        """Strip divisors off a basis-index monomial: (bare, weight, mult).

        Each divisor multiplies ``mult`` by its intersection with ``cls``;
        ``bare`` lists the other indices unsorted, of total ``weight``.
        ``None`` means a fundamental class or a zero intersection kills the
        monomial.
        """
        codims = self._codims
        weights = self._weights
        pos = self.datum.divisor_pos
        mult = 1
        bare = []
        w = 0
        for e in idxs:
            c = codims[e]
            if c == 0:
                return None
            if c == 1:
                t = cls[pos[e]]
                if t == 0:
                    return None
                mult *= t
            else:
                bare.append(e)
                w += weights[e]
        return bare, w, mult

    def _canon(self, cls, idxs):
        """Canonicalize a basis-index monomial: returns (ins, mult) or None.

        Divisors are stripped into the integer multiplier, a fundamental
        class, a dimension mismatch or the projection to the base plane
        (``TargetDatum.vanishes``) kills the monomial, the rest is sorted.
        ``None`` means the monomial contributes zero.
        """
        stripped = self._strip(cls, idxs)
        if stripped is None:
            return None
        bare, w, mult = stripped
        if w != self._budget(cls) or self._vanishes(cls, bare):
            return None
        bare.sort()
        return tuple(bare), mult

    def normalize(self, cls, insertions) -> LinearForm:
        """Expand insertions multilinearly into canonical keys.

        ``insertions`` may mix basis indices and cohomology vectors (tuples
        or lists), as ``TargetDatum.check_index`` and ``check_vector`` accept
        them; anything else raises ValueError, as does a key over the memo's
        insertion limit, even one that the projection to the base plane
        would drop. The class must be effective and nonzero; degree-0
        invariants exist only inside equation building, never as keys.
        Coefficients are in normal form and the constant is 0.
        """
        cls = self._check_class(cls)
        datum = self.datum
        indices = []
        vectors = []
        for ins in _as_tuple(insertions, "insertions"):
            if isinstance(ins, (tuple, list)):
                vec = datum.check_vector(ins)
                vectors.append(tuple((e, c) for e, c in enumerate(vec) if c != 0))
            else:
                indices.append(datum.check_index(ins))
        # basis indices are stripped once; only the vectors expand
        fixed = self._strip(cls, indices)
        if fixed is None:
            return LinearForm()
        bare0, w0, mult0 = fixed
        need = self._budget(cls) - w0
        combos = [((), 1)]
        for pairs in vectors:
            combos = [
                (idx + (e,), c * ce) for idx, c in combos for e, ce in pairs
            ]
        terms: dict = {}
        for idxs, c in combos:
            stripped = self._strip(cls, idxs)
            if stripped is None or stripped[1] != need:
                continue
            bare, _w, mult = stripped
            ins = tuple(sorted(bare0 + bare))
            self.memo.code(ins)  # the insertion limit comes first
            if self._vanishes(cls, ins):
                continue
            key = (cls, ins)
            terms[key] = terms.get(key, 0) + c * mult0 * mult
        return LinearForm({k: qnorm(v) for k, v in terms.items() if v != 0})

    def _check_class(self, cls) -> tuple:
        """The class as a tuple if effective and nonzero, else ValueError."""
        cls = _as_tuple(cls, "a class")
        if not self.datum.effective(cls):
            raise ValueError(f"class {cls} is not effective")
        if self.datum.is_zero_class(cls):
            raise ValueError("the zero class carries no invariant keys")
        return cls

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------

    def value_of(self, key):
        """Exact value of a canonical admissible key, solving stages on demand.

        A base case or a key that the projection to the base plane kills is
        stored without visiting a stage.  A key the memo does not hold passes
        ``_check_key`` first, so a bad one raises ValueError and leaves the
        memo unchanged; a memo hit skips the gate.
        """
        try:
            v = self.memo.get(key)
        except (TypeError, ValueError):  # no key at all: _check_key says why
            v = None
        if v is not None:
            return v
        self._check_key(key)
        b = self.datum.base_case(*key)
        if b is None and self._vanishes(*key):
            b = 0
        if b is not None:
            self.memo.set(key, b)
            return b
        cls, ins = key
        self._solve_for(cls, len(ins), (key,))
        return self.memo.get(key)

    def _check_key(self, key) -> None:
        """ValueError unless ``key`` is a canonical admissible key: a pair of
        tuples ``(cls, ins)``, cls nonzero and effective, ins the sorted
        non-divisor basis indices (ints, at most 255 of them) whose weights
        fill the class's dimension budget.  It runs on every memo miss, so
        each class passes ``_check_class`` once and keeps its budget in
        ``_key_budgets``, and the insertions are checked in one pass."""
        if not (
            type(key) is tuple
            and len(key) == 2
            and type(key[0]) is tuple
            and type(key[1]) is tuple
            and _ONLY_INTS.issuperset(map(type, key[0]))
        ):
            raise ValueError(
                f"an invariant key is a (class, insertions) pair of tuples "
                f"of ints, got {key!r}"
            )
        cls, ins = key
        budget = self._key_budgets.get(cls)
        if budget is None:
            self._check_class(cls)
            budget = self._key_budgets[cls] = self._budget(cls)
        if len(ins) > MemoStore.MAX_INSERTIONS:
            raise ValueError(
                f"a key holds at most {MemoStore.MAX_INSERTIONS} insertions, "
                f"got {len(ins)}"
            )
        pack = self.memo.pack
        weights = self._weights
        w = prev = 0
        for e in ins:
            if type(e) is not int or e < prev or e not in pack:
                raise ValueError(
                    f"key insertions {ins!r} are not sorted non-divisor "
                    "basis indices"
                )
            prev = e
            w += weights[e]
        if w != budget:
            raise ValueError(f"key {key!r} violates the dimension count")

    def invariant(self, cls, insertions):
        """I_cls(insertions): canonicalize, then resolve every key.

        The value is in normal form: an ``int`` when integral, else a Rat.
        """
        cls = self._check_class(cls)
        form = self.normalize(cls, insertions)
        total = 0
        for key, coeff in sorted(form.terms.items()):
            total += coeff * self.value_of(key)
        return qnorm(total)

    def three_point_row(self, cls, x, y):
        """The three-point basis row of (T_x, T_y) at ``cls``.

        Returns ``((top - i, I_cls(T_x, T_y, T_i)), ...)`` over the i whose
        invariant is nonzero, the empty tuple when there is none; ``cls`` is
        a nonzero effective class and x, y are basis indices in either
        order, all checked on every call.  Only ``_box_rows`` keeps rows.
        """
        cls = self._check_class(cls)
        self.datum.check_index(x)
        self.datum.check_index(y)
        return self._row(cls, x, y)

    def _row(self, cls, x, y):
        """``three_point_row`` without the checks, for ``_box_rows``."""
        d = self.datum
        weights = self._weights
        need = self._budget(cls) - weights[x] - weights[y]
        entries = []
        for i in range(d.basis_size):
            if weights[i] != need:
                continue
            canon = self._canon(cls, (x, y, i))
            if canon is not None:
                ins, mult = canon
                val = qnorm(mult * self.value_of((cls, ins)))
                if val:
                    entries.append((d.top - i, val))
        return tuple(entries)

    def _box_rows(self, x, y, n1, n2):
        """``((a, b, row), ...)`` for each class (a, b) != (0, 0) with
        a <= n1 and b <= n2 whose ``_row((a, b), x, y)`` is nonempty, in
        increasing (a, b); built once per basis pair and truncation, for the
        quantum product.  Memo values are never overwritten, so a kept box
        cannot go stale."""
        key = (x, y, n1, n2)
        box = self._boxes.get(key)
        if box is None:
            entries = []
            for a in range(n1 + 1):
                for b in range(n2 + 1):
                    if a or b:
                        row = self._row((a, b), x, y)
                        if row:
                            entries.append((a, b, row))
            box = self._boxes[key] = tuple(entries)
        return box

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
        terms, const = self._build(cls, frame, extras, len(extras) + 3)
        return LinearForm(
            {k: qnorm(v) for k, v in terms.items()}, qnorm(const)
        )

    def wdvv_residual(self, cls, frame, extras):
        """Value of a fully resolved associativity relation, always zero: the
        relation of ``build_equation`` with each symbolic key resolved."""
        form = self.build_equation(cls, frame, extras)
        total = form.constant
        for key, coeff in form.terms.items():
            total += coeff * self.value_of(key)
        return qnorm(total)

    def _check_frame(self, frame):
        frame = _as_tuple(frame, "a frame")
        if len(frame) != 4:
            raise ValueError("a frame has exactly four basis indices")
        for e in frame:
            if self._codims[self.datum.check_index(e)] == 0:
                raise ValueError(f"frame entry {e} is not a positive-codimension index")
        return frame

    def _check_extras(self, extras):
        extras = _as_tuple(extras, "extras")
        for e in extras:
            if self._codims[self.datum.check_index(e)] < 2:
                raise ValueError(f"extra {e!r} is not a non-divisor basis index")
        return tuple(sorted(extras))

    def _build(self, cls, frame, extras, stage_n):
        """Assemble S(i,j,k,l) - S(i,l,j,k) at stage (cls, stage_n): the
        stage keys outside the memo stay symbolic, the rest resolve."""
        i, j, k, l = frame
        if j == l:
            return {}, 0
        cup_terms = self._cup_terms
        memo_get = self.memo.get
        decode = self.memo.decode
        value_of = self.value_of
        plans = self._plans
        code_x, w_x, groups = self._partition_groups(extras)
        terms: dict = {}
        const = 0
        # true fractions (the few non-integral memo values) are summed apart,
        # so one of them does not turn every later addition into Rat work
        frac = 0

        for (p, q, r, s), sign in (((i, j, k, l), 1), ((i, l, j, k), -1)):
            # collapsed degree-0 terms: I(x, y, (u cup v), extras)
            for x, y, u, v in ((p, q, r, s), (r, s, p, q)):
                for m, cm in cup_terms[u][v]:
                    canon = self._canon(cls, (x, y, m) + extras)
                    if canon is None:
                        continue
                    ins_t, mult = canon
                    coeff = sign * cm * mult
                    key = (cls, ins_t)
                    if len(ins_t) > stage_n:
                        raise AssertionError(
                            f"key {key} outside stage (cls={cls}, n={stage_n})"
                        )
                    val = value_of(key) if len(ins_t) < stage_n else memo_get(key)
                    if val is None:
                        terms[key] = terms.get(key, 0) + coeff
                    else:
                        const += coeff * val

            # split terms over beta1 + beta2 = cls, both nonzero effective,
            # walked along the frame's plan (see _plan): only the (split, e)
            # pairs whose divisor multipliers are nonzero and whose weights
            # balance, each with its unsigned multiplier, so the sign is
            # applied once to the ordering's sum.
            plan = plans.get((cls, p, q, r, s, w_x))
            if plan is None:
                plan = self._plan(cls, p, q, r, s, w_x)
            splits, code1, code2 = plan
            part = 0
            part_frac = 0
            # Python-level calls stay out of this loop (value_of and decode
            # run only on a memo miss, Rat methods only on true fractions):
            # it runs at the deepest point of the stage recursion, where a
            # call can make the interpreter map and unmap a fresh frame-stack
            # chunk every time.  A factor's key is its class plus the packed
            # code of its insertions, the sum of the partition side's and the
            # frame's codes, looked up in the class's live value dict.  Both
            # factors are looked up before either is solved: a term with a
            # stored zero is skipped, and a missing factor is solved only
            # while its partner can still be nonzero (v1 first, then v2 if
            # v1 came out nonzero), so no key is solved just to be
            # multiplied by a known zero.
            for vals1, vals2, b1, b2, sub in splits:
                for pe, peh, scale, w_a in sub:
                    grp = groups.get(w_a)
                    if grp is None:
                        continue
                    add1 = code1 + pe
                    add2 = code2 + peh + code_x
                    for code_a, mult in grp:
                        v1 = vals1.get(code_a + add1)
                        if v1 == 0:
                            continue
                        # code(B) + add2 - code(extras) = add2 - code(A)
                        v2 = vals2.get(add2 - code_a)
                        if v2 == 0:
                            continue
                        if v1 is None:
                            v1 = value_of((b1, decode(code_a + add1)))
                            if v1 == 0:
                                continue
                        if v2 is None:
                            v2 = value_of((b2, decode(add2 - code_a)))
                            if v2 == 0:
                                continue
                        term = scale * mult * v1 * v2
                        if type(term) is int:
                            part += term
                        else:
                            part_frac += term
            const += sign * part
            if part_frac:
                frac += sign * part_frac

        if frac:
            const = qnorm(const + frac)
        return {k: v for k, v in terms.items() if v != 0}, const

    def _plan(self, cls, p, q, r, s, w_x):
        """The split plan of one frame ordering, cached under its key.

        Returns ``(splits, code(kept1), code(kept2))``: kept1 and kept2 are
        the non-divisor entries of (p, q) and (r, s), and ``splits`` holds
        one ``(vals1, vals2, b1, b2, sub)`` per split b1 + b2 = cls that has
        a surviving basis pair, with the two classes' live memo value dicts.
        ``sub`` lists ``(code(e), code(e^), scale, w(A))`` for every e whose
        divisor multipliers are nonzero and whose weights balance against
        ``w_x``; ``scale`` is the product of the divisor multipliers, unsigned.
        Which pairs survive depends on the frame only through the divisors
        and weight of each side, so frames of one signature share the splits
        tuple, and equal entries and ``sub`` tuples are shared across plans.
        """
        codims = self._codims
        weights = self._weights
        code = self.memo.code
        kept1 = tuple(x for x in (p, q) if codims[x] >= 2)
        kept2 = tuple(x for x in (r, s) if codims[x] >= 2)
        div1 = tuple(sorted(x for x in (p, q) if codims[x] == 1))
        div2 = tuple(sorted(x for x in (r, s) if codims[x] == 1))
        w1 = sum(weights[x] for x in kept1)
        w2 = sum(weights[x] for x in kept2)
        sig = (cls, div1, w1, div2, w2, w_x)
        splits = self._signature_plans.get(sig)
        if splits is None:
            splits = self._signature_plans[sig] = self._split_plan(*sig)
        plan = self._plans[(cls, p, q, r, s, w_x)] = (
            splits, code(kept1), code(kept2)
        )
        return plan

    def _split_plan(self, cls, div1, w1, div2, w2, w_x):
        """The surviving (split, e) pairs of one signature; see _plan."""
        pos = self.datum.divisor_pos
        weights = self._weights
        values = self.memo.class_values
        share = self._plan_parts.setdefault
        out = []
        for b1, b2 in self.datum.splits(cls):
            m1 = 1
            for x in div1:
                m1 *= b1[pos[x]]
            m2 = 1
            for x in div2:
                m2 *= b2[pos[x]]
            if m1 == 0 or m2 == 0:
                continue
            bud1 = self._budget(b1) - w1
            bud2 = self._budget(b2) - w2
            sub = []
            for e, eh, ce, ceh, pe, peh in self._epairs:
                me1, w_a = m1, bud1
                if ce == 1:
                    me1 *= b1[pos[e]]
                else:
                    w_a -= weights[e]
                me2, w_b = m2, bud2
                if ceh == 1:
                    me2 *= b2[pos[eh]]
                else:
                    w_b -= weights[eh]
                # w(A) + w(B) = w(extras), both parts of the extras
                if me1 == 0 or me2 == 0 or w_a + w_b != w_x or not 0 <= w_a <= w_x:
                    continue
                entry = (pe, peh, me1 * me2, w_a)
                sub.append(share(entry, entry))
            if sub:
                sub = tuple(sub)
                out.append((values(b1), values(b2), b1, b2, share(sub, sub)))
        return tuple(out)

    def _partition_groups(self, extras):
        """Partitions A|B of an insertion multiset, grouped by weight of A.

        Returns (code(extras), w(extras), {w(A): ((code(A), mult), ...)})
        with the memo's packed codes, where mult counts the ways to pick A
        among the labeled copies of equal classes. B is the complement:
        code(B) = code(extras) - code(A) and w(B) = w(extras) - w(A).
        Equal pairs recur across multisets (about one in five is new at
        d <= 6), so every group holds the engine's one shared pair object.
        """
        cached = self._partition_cache.get(extras)
        if cached is not None:
            return cached
        code_x = self.memo.code(extras)
        weights = self._weights
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
        share = self._pairs.setdefault
        for ca, wa, mu in combos:
            pair = (ca, mu)
            groups.setdefault(wa, []).append(share(pair, pair))
        cached = (
            code_x,
            sum(weights[e] for e in extras),
            {wa: tuple(grp) for wa, grp in groups.items()},
        )
        self._partition_cache[extras] = cached
        return cached

    # ------------------------------------------------------------------
    # stage solving
    # ------------------------------------------------------------------

    def solve_stage(self, cls, n) -> None:
        """Solve every admissible key of stage (cls, n >= 0) into the memo;
        the keys of a stage with n <= 2 are base cases, stored by value_of."""
        cls = self._check_class(cls)
        if check_int(n, "a stage size") < 0:
            raise ValueError(f"a stage size must be non-negative, got {n}")
        keys = [k for k in self._stage_keys(cls, n) if self.memo.get(k) is None]
        if n <= 2:
            for key in keys:
                self.value_of(key)
        elif keys:
            self._solve_for(cls, n, keys)

    def _solve_for(self, cls, n, requested) -> None:
        if n < 3:
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) reached the solver; base cases "
                "and dimension vanishing must cover every key with n <= 2"
            )
        st = _StageState()
        self._harvest_closure(cls, st, requested)
        self._drain(cls, n, st)
        missing = [k for k in requested if k not in self.memo]
        if missing:
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) underdetermined; "
                f"unsolved: {missing[:5]}{'...' if len(missing) > 5 else ''}"
            )

    def _drain(self, cls, n, st) -> None:
        """Build the queued lead equations in order and solve each one.

        The harvest queued every spec after those of its other unknowns and
        the solver writes each key into the memo, so every equation reaches
        it with its own key the one key left.  If an equation fails, the
        exact keys solved before it stay in the memo.
        """
        add = ExactLinearSolver(self.memo).add
        for frame, extras in st.seen:
            add(*self._build(cls, frame, extras, n))

    # -- harvesting ------------------------------------------------------

    def _harvest_closure(self, cls, st, seeds) -> None:
        """Queue the lead specs of the seeds' closure in dependency order.

        A depth-first walk from each seed: a key's lead spec is queued
        (appended to ``st.seen``) after the specs of that spec's other
        unknowns, and the walk stops at memo keys and at keys already
        queued.  Reaching a key whose walk is still open means the lead
        equations form a cycle, which substitution cannot solve; that
        raises UnderdeterminedStage.  The walk recurses once per key on its
        path, at most 3(d - 1) deep for the degree-d tables (18 at d = 7).
        """
        memo = self.memo
        queue = st.seen
        queued = set()
        walking = set()

        def walk(key):
            walking.add(key)
            spec = self._lead_spec(key)
            for nb in self._spec_unknowns(cls, spec):
                if nb == key or nb in queued or nb in memo:
                    continue
                if nb in walking:
                    raise UnderdeterminedStage(
                        f"lead equations of stage (cls={cls}, "
                        f"n={len(key[1])}) form a cycle through {nb}"
                    )
                walk(nb)
            walking.discard(key)
            queued.add(key)
            queue.append(spec)

        for seed in sorted(set(seeds)):
            if seed not in queued:
                walk(seed)

    def _lead_spec(self, key):
        """The key's lead equation spec ``(frame, extras)``.

        Triangular frame ``(dv, rho, u, v)``: take the largest insertion t,
        the row of its decomposition whose product contains t, and fill the
        last two slots from the remaining insertions.  A frame is accepted
        only when its second family of same-stage unknowns is ruled out —
        either the row's rho is a divisor (the family drops a stage) or the
        fourth slot erases it (v in vkill) — so every other key the equation
        touches carries strictly fewer copies of the top indices.

        The two free slots take the rarest insertions: v is the candidate
        (any remaining insertion, or any in vkill) with the fewest copies
        among the remaining insertions, u the one with the fewest copies
        among those left after v, ties going to the smaller index.  Taking a
        copy of an index held m times divides the extras' count of
        sub-multisets, prod(m + 1), by (m + 1) / m, most for the smallest m,
        so the split sum walks the fewest partitions A|B and reaches the
        fewest lower-stage keys.  Every such choice is safe: the first
        family of same-stage unknowns is extras + u + v + m with m in
        cup(dv, rho), that is the key minus t plus m, whatever u and v are;
        the second is erased by v in vkill, or drops a stage when rho is a
        divisor.  So the triangularity, and with it the harvest order, does
        not depend on u and v; the cycle check of ``_harvest_closure``
        stays the guard.

        Keys built solely from insertions with non-divisor rows and no
        erasing partner fall back to the first frame, largest t first, whose
        fourth slot is not rho; the harvest walk solves the keys it
        references forward before it.

        The fallback exists for every key with n >= 3 insertions, so the
        error below cannot fire there.  rho(t) has codimension one less than
        t, so it is not t.  If every insertion besides one copy of the
        largest t were r = rho(t), then t would occur once and r n - 1 >= 2
        times; the insertions besides one copy of r would then hold r
        itself, which is not rho(r), and the fallback takes it.
        """
        _, ins = key
        lead_rows = self._lead_rows
        fallback = None
        for t in sorted(set(ins), reverse=True):
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
            raise UnderdeterminedStage(f"no lead frame fits key {key}")
        return fallback

    def _spec_unknowns(self, cls, spec):
        """Current-stage keys that _build would keep symbolic for this spec;
        keys the base plane kills are dropped, as _canon drops them."""
        (d, rho, u, v), extras = spec
        cup_terms = self._cup_terms
        out = set()
        for m, _cm in cup_terms[d][rho]:
            out.add(_merged(extras, (u, v, m)))
        if self._codims[rho] >= 2:
            for m, _cm in cup_terms[d][v]:
                out.add(_merged(extras, (rho, u, m)))
        vanishes = self._vanishes
        return sorted((cls, ins) for ins in out if not vanishes(cls, ins))

    def _stage_keys(self, cls, n):
        """All admissible keys of stage (cls, n) that the base plane does not
        kill, sorted."""
        budget = self._budget(cls)
        nond = self.datum.nondivisors
        weights = self._weights
        vanishes = self._vanishes
        out = []

        def rec(pos, left, wleft, acc):
            if left == 0:
                if wleft == 0 and not vanishes(cls, acc):
                    out.append((cls, tuple(acc)))
                return
            if pos >= len(nond):
                return
            e = nond[pos]
            w = weights[e]
            # take k copies of e
            max_k = left
            for k in range(max_k + 1):
                wk = w * k
                if wk > wleft:
                    break
                rec(pos + 1, left - k, wleft - wk, acc + [e] * k)

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
        as decimal strings. A key the projection to the base plane kills is
        left out: ``value_of`` stores it as 0 again without visiting a
        stage. The text is built from strings one class at a time, each
        code's insertion list rendered once. An ``int`` or ``bool`` path
        raises ValueError: ``open`` would take it as a file descriptor.
        """
        _check_path(path)
        if self.datum.rank != 2:
            raise CacheFormatError(
                "cache schema is defined for the two-parameter target only"
            )
        memo = self.memo
        decode = memo.decode
        vanishes = self._vanishes
        rendered: dict = {}  # code -> (sorted insertions, their JSON list)
        entries = []
        for cls in memo.classes():
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

        The load is all or nothing. Each distinct class and insertion list
        is validated once; the values are staged per class and handed to
        ``MemoStore.merge`` only after every entry has passed, which raises
        InconsistentSystem, loading nothing, if a value conflicts with one
        already in the memo, and otherwise writes each key by
        ``MemoStore.set``. Text the JSON parser rejects, bytes that are not
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
        datum = self.datum
        size = datum.basis_size
        codims = self._codims
        weights = self._weights
        base_case = datum.base_case
        vanishes = self._vanishes
        only_ints = {int}
        classes: dict = {}  # admissible cls -> (budget, staged {ins: value})
        weight_of: dict = {}  # canonical ins -> weight
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
            # types before the lookups: 1.0 and True hash and compare as 1
            known = None
            if type(a) is int and type(b) is int:
                known = classes.get(cls)
                if known is None and (
                    datum.effective(cls) and not datum.is_zero_class(cls)
                ):
                    known = classes[cls] = (self._budget(cls), {})
            if known is None:
                raise CacheFormatError(f"entry class {cls} is not admissible")
            budget, vals = known
            if not only_ints.issuperset(map(type, ins)):
                raise CacheFormatError(f"entry insertions {ins} not canonical")
            weight = weight_of.get(ins)
            if weight is None:
                if len(ins) > MemoStore.MAX_INSERTIONS or not all(
                    0 <= e < size and codims[e] >= 2 for e in ins
                ) or tuple(sorted(ins)) != ins:
                    raise CacheFormatError(f"entry insertions {ins} not canonical")
                weight = weight_of[ins] = sum(weights[e] for e in ins)
            if weight != budget:
                raise CacheFormatError(
                    f"entry ({cls}, {ins}) violates the dimension count"
                )
            derivable = base_case(cls, ins)
            if derivable is not None and derivable != val:
                raise InconsistentSystem(
                    f"cache entry ({cls}, {ins}) = {val} contradicts base "
                    f"case {derivable}"
                )
            if val != 0 and vanishes(cls, ins):
                raise InconsistentSystem(
                    f"cache entry ({cls}, {ins}) = {val} but the projection "
                    "to the base plane forces 0"
                )
            old = vals.setdefault(ins, val)
            if old != val:
                raise InconsistentSystem(
                    f"cache entries for ({cls}, {ins}) disagree: {old} vs {val}"
                )
        self.memo.merge({cls: vals for cls, (_b, vals) in classes.items()})
        return len(entries)


_ONLY_INTS = frozenset((int,))


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


def _merged(sorted_tuple, small):
    return tuple(sorted(sorted_tuple + tuple(small)))
