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
product contains t, and two more insertions chosen so that every other
unknown of the equation carries strictly fewer copies of the top indices.
The stage is therefore triangular, and the engine solves the closure of the
requested keys under these equations by substitution. A stage whose requested
keys stay unsolved raises UnderdeterminedStage: reconstruction guarantees
solvability, so that is a fatal invariant violation, as is any inconsistent
equation.

The memo stores each canonical insertion multiset as a packed integer code,
one 8-bit digit per non-divisor basis index (see MemoStore), so the split sum
forms the key of a merged multiset by adding two codes instead of sorting a
tuple. All arithmetic is exact and everything runs on the calling thread.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice

from .chow import TargetDatum, hilb_datum
from .rationals import RAT_ONE, RAT_ZERO, binom, qdiv, qnorm, rat_from_parts


CACHE_SCHEMA = "hilb2gw-cache/1"


class EngineError(Exception):
    """Base class for engine failures."""


class UnderdeterminedStage(EngineError):
    """A stage's harvested equations left requested keys unsolved.

    Reconstruction from two-point invariants guarantees a unique solution,
    so this signals a bug (or an impossible request), never a soft failure.
    """


class InconsistentSystem(EngineError):
    """Exact elimination found 0 = c with c != 0, or a memo value conflict.

    Signals corrupted base cases, a broken multiplication table, or a bad
    cache file; never raised on healthy data.
    """


class CacheFormatError(EngineError):
    """A cache file failed schema or consistency validation."""


@dataclass
class LinearForm:
    """An affine form sum(coeff * unknown) + constant over invariant keys."""

    terms: dict = field(default_factory=dict)
    constant: object = RAT_ZERO

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
    conflicting write raises InconsistentSystem.
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

    def items(self):
        """Every ``((cls, ins), value)`` in sorted key order, decoded lazily
        one class at a time, so only one class's tuples are alive at once."""
        decode = self.decode
        for cls in sorted(self._classes):
            for ins, value in sorted(
                (decode(code), value) for code, value in self._classes[cls].items()
            ):
                yield (cls, ins), value

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key) -> bool:
        return self.get(key) is not None


class ExactLinearSolver:
    """Incremental exact Gaussian elimination over invariant keys.

    Rows are kept fully reduced against each other; a row whose free part
    empties out becomes a solved value and is substituted everywhere. Pivot
    choice (largest key) and substitution are order-independent, so the
    solved values do not depend on equation arrival order beyond the math.
    """

    def __init__(self):
        self.rows: dict = {}    # pivot key -> (terms dict, constant)
        self.solved: dict = {}  # key -> exact value
        self._uses: dict = {}   # free key -> set of pivot keys using it

    def add(self, terms: dict, const) -> None:
        """Insert the equation sum(terms * x) + const = 0."""
        acc: dict = {}
        c = const
        stack = list(terms.items())
        while stack:
            k, coef = stack.pop()
            if coef == 0:
                continue
            if k in self.solved:
                c += coef * self.solved[k]
                continue
            row = self.rows.get(k)
            if row is not None:
                rterms, rconst = row
                c += coef * rconst
                stack.extend((k2, coef * c2) for k2, c2 in rterms.items())
                continue
            acc[k] = acc.get(k, 0) + coef
        acc = {k: v for k, v in acc.items() if v != 0}
        if not acc:
            if c != 0:
                raise InconsistentSystem(f"0 = {c} from a harvested equation")
            return
        pivot = max(acc)
        pc = acc.pop(pivot)
        rterms = {k: -qdiv(v, pc) for k, v in acc.items()}
        rconst = -qdiv(c, pc)
        for p in tuple(self._uses.get(pivot, ())):
            self._substitute(p, pivot, rterms, rconst)
        self.rows[pivot] = (rterms, rconst)
        for k in rterms:
            self._uses.setdefault(k, set()).add(pivot)
        self._promote()

    def _substitute(self, p, key, kterms, kconst) -> None:
        """Replace x_key by its expansion inside row p."""
        pterms, pconst = self.rows[p]
        coef = pterms.pop(key)
        self._uses[key].discard(p)
        pconst = pconst + coef * kconst
        for k2, c2 in kterms.items():
            nv = pterms.get(k2, 0) + coef * c2
            if nv == 0:
                if k2 in pterms:
                    del pterms[k2]
                    self._uses[k2].discard(p)
            else:
                if k2 not in pterms:
                    self._uses.setdefault(k2, set()).add(p)
                pterms[k2] = nv
        self.rows[p] = (pterms, pconst)

    def _promote(self) -> None:
        queue = [p for p, (t, _) in self.rows.items() if not t]
        while queue:
            p = queue.pop()
            if p not in self.rows:
                continue
            t, c = self.rows.pop(p)
            if t:
                continue
            self.solved[p] = c
            for r in tuple(self._uses.get(p, ())):
                rterms, rconst = self.rows[r]
                coef = rterms.pop(p)
                self._uses[p].discard(r)
                self.rows[r] = (rterms, rconst + coef * c)
                if not rterms:
                    queue.append(r)
            self._uses.pop(p, None)


class _StageState:
    """Per-stage solving state kept alive across solve calls.

    A stage may be visited many times (each sibling key triggers a visit);
    the solver, the keys whose lead spec was harvested, the specs generated,
    and the queue of generated but not yet consumed equations all persist,
    so each equation is built at most once per engine.
    """

    __slots__ = ("solver", "seen", "expanded", "pending", "committed")

    def __init__(self):
        self.solver = ExactLinearSolver()
        self.seen = set()       # specs generated
        self.expanded = set()   # keys given their lead spec
        self.pending = deque()
        self.committed = 0      # solver.solved entries offered to the memo


class Engine:
    """Reconstruction engine over one TargetDatum, with a persistent memo.

    ``threads`` is accepted for compatibility and ignored: the engine always
    runs on the calling thread.
    """

    def __init__(self, datum: TargetDatum | None = None, threads: int = 1):
        self.datum = datum if datum is not None else hilb_datum()
        self.memo = MemoStore(self.datum.nondivisors)
        self._budgets: dict = {}
        self._split_cache: dict = {}
        self._partition_cache: dict = {}
        self._stage_state: dict = {}
        self._rows: dict = {}
        d = self.datum
        self._codims = d.codims
        self._weights = d.weights
        self._dual = d.dual
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
        class or a dimension mismatch kills the monomial, the rest is
        sorted. ``None`` means the monomial contributes zero.
        """
        stripped = self._strip(cls, idxs)
        if stripped is None:
            return None
        bare, w, mult = stripped
        if w != self._budget(cls):
            return None
        bare.sort()
        return tuple(bare), mult

    def normalize(self, cls, insertions) -> LinearForm:
        """Expand insertions multilinearly into canonical keys.

        ``insertions`` may mix basis indices (ints in 0..basis_size-1) and
        cohomology vectors of length basis_size; anything else raises
        ValueError. The class must be effective and nonzero; degree-0
        invariants exist only inside equation building, never as keys.
        """
        self._check_class(cls)
        size = self.datum.basis_size
        indices = []
        vectors = []
        for ins in insertions:
            if isinstance(ins, (bool, float)):
                raise ValueError(f"insertion {ins!r} is not a basis index")
            if isinstance(ins, int):
                if not 0 <= ins < size:
                    raise ValueError(
                        f"basis index {ins} out of range 0..{size - 1}"
                    )
                indices.append(ins)
            else:
                if not isinstance(ins, (tuple, list)) or len(ins) != size:
                    raise ValueError(
                        f"insertion {ins!r} is neither a basis index nor a "
                        f"cohomology vector of length {size}"
                    )
                vectors.append(tuple((e, c) for e, c in enumerate(ins) if c != 0))
        # basis indices are stripped once; only the vectors expand
        fixed = self._strip(cls, indices)
        if fixed is None:
            return LinearForm({}, RAT_ZERO)
        bare0, w0, mult0 = fixed
        need = self._budget(cls) - w0
        combos = [((), RAT_ONE)]
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
            key = (cls, tuple(sorted(bare0 + bare)))
            terms[key] = terms.get(key, RAT_ZERO) + c * mult0 * mult
        return LinearForm({k: v for k, v in terms.items() if v != 0}, RAT_ZERO)

    def _check_class(self, cls) -> None:
        if not self.datum.effective(cls):
            raise ValueError(f"class {cls} is not effective")
        if self.datum.is_zero_class(cls):
            raise ValueError("the zero class carries no invariant keys")

    # ------------------------------------------------------------------
    # values
    # ------------------------------------------------------------------

    def base_case(self, key):
        """Hardcoded value for a canonical key, or None if not a base case."""
        cls, ins = key
        return self.datum.base_case(cls, ins)

    def value_of(self, key):
        """Exact value of a canonical admissible key, solving stages on demand."""
        v = self.memo.get(key)
        if v is not None:
            return v
        b = self.base_case(key)
        if b is not None:
            self.memo.set(key, b)
            return b
        cls, ins = key
        self._solve_for(cls, len(ins), (key,))
        return self.memo.get(key)

    def invariant(self, cls, insertions):
        """I_cls(insertions): canonicalize, then resolve every key."""
        cls = tuple(cls)
        form = self.normalize(cls, insertions)
        total = RAT_ZERO
        for key, coeff in sorted(form.terms.items()):
            total += coeff * self.value_of(key)
        return total

    def three_point_row(self, cls, x, y):
        """The three-point basis row of (T_x, T_y) at ``cls``, cached.

        Returns ``((top - i, I_cls(T_x, T_y, T_i)), ...)`` over the i whose
        invariant is nonzero, the empty tuple when there is none; ``cls`` is
        a nonzero effective class tuple and x, y are basis indices in either
        order.  A row is derived from memo values, which are never
        overwritten, so a cached row cannot go stale.
        """
        if x > y:
            x, y = y, x
        key = (cls, x, y)
        row = self._rows.get(key)
        if row is None:
            self._check_class(cls)
            d = self.datum
            if not 0 <= x <= y < d.basis_size:
                raise ValueError(f"basis indices {x}, {y} out of range")
            need = self._budget(cls) - self._weights[x] - self._weights[y]
            entries = []
            for i in range(d.basis_size):
                if self._weights[i] != need:
                    continue
                canon = self._canon(cls, (x, y, i))
                if canon is not None:
                    ins, mult = canon
                    val = qnorm(mult * self.value_of((cls, ins)))
                    if val:
                        entries.append((d.top - i, val))
            row = self._rows[key] = tuple(entries)
        return row

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
        cls = tuple(cls)
        self._check_class(cls)
        frame = self._check_frame(frame)
        extras = self._check_extras(extras)
        terms, const = self._build(cls, frame, extras, len(extras) + 3)
        return LinearForm(terms, const)

    def wdvv_residual(self, cls, frame, extras):
        """Value of a fully resolved associativity relation; always zero."""
        cls = tuple(cls)
        self._check_class(cls)
        frame = self._check_frame(frame)
        _, const = self._build(cls, frame, self._check_extras(extras), None)
        return const

    def _check_frame(self, frame):
        frame = tuple(frame)
        if len(frame) != 4:
            raise ValueError("a frame has exactly four basis indices")
        for e in frame:
            if (
                type(e) is not int
                or not 0 <= e < self.datum.basis_size
                or self._codims[e] == 0
            ):
                raise ValueError(f"frame entry {e} is not a positive-codimension index")
        return frame

    def _check_extras(self, extras):
        extras = tuple(extras)
        size = self.datum.basis_size
        for e in extras:
            if type(e) is not int or not 0 <= e < size or self._codims[e] < 2:
                raise ValueError(f"extra {e!r} is not a non-divisor basis index")
        return tuple(sorted(extras))

    def _build(self, cls, frame, extras, stage_n):
        """Assemble S(i,j,k,l) - S(i,l,j,k) over the memo and stage unknowns."""
        i, j, k, l = frame
        if j == l:
            return {}, 0
        codims = self._codims
        weights = self._weights
        cup_terms = self._cup_terms
        memo_get = self.memo.get
        code = self.memo.code
        decode = self.memo.decode
        value_of = self.value_of
        pos = self.datum.divisor_pos
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
                    if stage_n is not None and len(ins_t) == stage_n:
                        v_known = memo_get(key)
                        if v_known is None:
                            terms[key] = terms.get(key, 0) + coeff
                            continue
                        const += coeff * v_known
                    else:
                        if stage_n is not None and len(ins_t) > stage_n:
                            raise AssertionError(
                                f"key {key} outside stage (cls={cls}, n={stage_n})"
                            )
                        const += coeff * value_of(key)

            # split terms over beta1 + beta2 = cls, both nonzero effective
            kept1 = tuple(x for x in (p, q) if codims[x] >= 2)
            div1 = tuple(x for x in (p, q) if codims[x] == 1)
            kept2 = tuple(x for x in (r, s) if codims[x] >= 2)
            div2 = tuple(x for x in (r, s) if codims[x] == 1)
            w1 = sum(weights[x] for x in kept1)
            w2 = sum(weights[x] for x in kept2)
            code1 = code(kept1)
            code2 = code(kept2)
            # Python-level calls stay out of this loop (value_of and decode
            # run only on a memo miss, Rat methods only on true fractions):
            # it runs at the deepest point of the stage recursion, where a
            # call can make the interpreter map and unmap a fresh frame-stack
            # chunk every time.  A factor's key is its class plus the packed
            # code of its insertions, the sum of the partition side's and the
            # frame's codes, looked up in the class's live value dict.
            for b1, b2, bud1, bud2, vals1, vals2 in self._splits(cls):
                m1 = 1
                for x in div1:
                    m1 *= b1[pos[x]]
                if m1 == 0:
                    continue
                m2 = 1
                for x in div2:
                    m2 *= b2[pos[x]]
                if m2 == 0:
                    continue
                for e, eh, ce, ceh, pe, peh in self._epairs:
                    if ce == 1:
                        t = b1[pos[e]]
                        if t == 0:
                            continue
                        me1 = m1 * t
                        w_a = bud1 - w1
                    else:
                        me1 = m1
                        w_a = bud1 - w1 - weights[e]
                    if ceh == 1:
                        t = b2[pos[eh]]
                        if t == 0:
                            continue
                        me2 = m2 * t
                        w_b_need = bud2 - w2
                    else:
                        me2 = m2
                        w_b_need = bud2 - w2 - weights[eh]
                    # w(A) + w(B) = w(extras), so B's budget fixes A's group
                    if w_a + w_b_need != w_x:
                        continue
                    grp = groups.get(w_a)
                    if grp is None:
                        continue
                    add1 = code1 + pe
                    add2 = code2 + peh + code_x
                    scale = sign * me1 * me2
                    for code_a, mult in grp:
                        v1 = vals1.get(code_a + add1)
                        if v1 is None:
                            v1 = value_of((b1, decode(code_a + add1)))
                        if v1 == 0:
                            continue
                        # code(B) + add2 - code(extras) = add2 - code(A)
                        v2 = vals2.get(add2 - code_a)
                        if v2 is None:
                            v2 = value_of((b2, decode(add2 - code_a)))
                        if v2 == 0:
                            continue
                        term = scale * mult * v1 * v2
                        if type(term) is int:
                            const += term
                        else:
                            frac += term

        if frac:
            const = qnorm(const + frac)
        return {k: v for k, v in terms.items() if v != 0}, const

    def _splits(self, cls):
        """The datum's splits b1 + b2 = cls, cached with both weight budgets
        and both classes' live memo value dicts."""
        cached = self._split_cache.get(cls)
        if cached is None:
            values = self.memo.class_values
            cached = tuple(
                (b1, b2, self._budget(b1), self._budget(b2),
                 values(b1), values(b2))
                for b1, b2 in self.datum.splits(cls)
            )
            self._split_cache[cls] = cached
        return cached

    def _partition_groups(self, extras):
        """Partitions A|B of an insertion multiset, grouped by weight of A.

        Returns (code(extras), w(extras), {w(A): ((code(A), mult), ...)})
        with the memo's packed codes, where mult counts the ways to pick A
        among the labeled copies of equal classes. B is the complement:
        code(B) = code(extras) - code(A) and w(B) = w(extras) - w(A).
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
        for ca, wa, mu in combos:
            groups.setdefault(wa, []).append((ca, mu))
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
        """Solve every admissible key of stage (cls, n) into the memo."""
        cls = tuple(cls)
        self._check_class(cls)
        keys = tuple(
            k for k in self._stage_keys(cls, n) if self.memo.get(k) is None
        )
        if keys:
            self._solve_for(cls, n, keys)

    def _solve_for(self, cls, n, requested) -> None:
        if n < 3:
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) reached the solver; base cases "
                "and dimension vanishing must cover every key with n <= 2"
            )
        st = self._stage_state.get((cls, n))
        if st is None:
            st = _StageState()
            self._stage_state[(cls, n)] = st
        solver = st.solver
        memo = self.memo
        need = [k for k in requested if k not in memo and k not in solver.solved]
        done = not need
        if not done:
            self._harvest_closure(cls, st, need)
            done = self._drain(cls, n, st, need)
        # solver.solved only grows, in insertion order: offer the new tail
        solved = solver.solved
        for key, val in islice(solved.items(), st.committed, None):
            if key not in memo:
                memo.set(key, val)
        st.committed = len(solved)
        if not done:
            missing = [k for k in requested if memo.get(k) is None]
            raise UnderdeterminedStage(
                f"stage (cls={cls}, n={n}) underdetermined; "
                f"unsolved: {missing[:5]}{'...' if len(missing) > 5 else ''}"
            )

    def _drain(self, cls, n, st, need) -> bool:
        """Consume pending equations until the needed keys are solved.

        Unconsumed equations stay queued for later visits.
        """
        solver = st.solver
        memo = self.memo

        def satisfied() -> bool:
            solved = solver.solved
            return all(k in solved or k in memo for k in need)

        if satisfied():
            return True
        pend = st.pending
        while pend:
            frame, extras = pend.popleft()
            terms, const = self._build(cls, frame, extras, n)
            if terms or const != 0:
                solver.add(terms, const)
                if satisfied():
                    return True
        return satisfied()

    # -- harvesting ------------------------------------------------------

    def _harvest_closure(self, cls, st, seeds) -> None:
        """Expand seeds through the key graph, queueing lead equations.

        Each key contributes its lead spec, whose other unknowns join the
        walk. Keys already valued (memo), eliminated (stage solver) or
        expanded before terminate it. Fresh specs jump ahead of backlog
        from earlier visits.
        """
        memo = self.memo
        solved = st.solver.solved
        expanded = st.expanded
        seen = st.seen
        fresh = []
        frontier = deque(sorted(set(seeds)))
        while frontier:
            key = frontier.popleft()
            if key in expanded:
                continue
            expanded.add(key)
            spec = self._lead_spec(key)
            if spec is None:
                continue
            if spec not in seen:
                seen.add(spec)
                fresh.append(spec)
            for nb in self._spec_unknowns(cls, spec):
                if nb not in expanded and nb not in memo and nb not in solved:
                    frontier.append(nb)
        st.pending.extendleft(reversed(fresh))

    def _lead_spec(self, key):
        """The key's lead equation spec ``(frame, extras)``, or None.

        Triangular frame: take the largest insertion t, the row of its
        decomposition whose product contains t, and fill the last two slots
        from the remaining insertions.  A frame is accepted only when its
        second family of same-stage unknowns is ruled out — either the row's
        rho is a divisor (the family drops a stage) or the fourth slot
        erases it (vkill) — so every other key the equation touches carries
        strictly fewer copies of the top indices and the stage solves by
        pure substitution.  Keys built solely from insertions with
        non-divisor rows and no erasing partner fall back to the largest-t
        frame anyway; the handful of forward references it creates resolve
        by one extra round of substitution inside the same harvested
        closure.  None means no frame fits: every other insertion equals
        rho, so the key is left to its neighbours' equations.
        """
        _, ins = key
        lead_rows = self._lead_rows
        fallback = None
        for t in sorted(set(ins), reverse=True):
            dv, rho, vkill = lead_rows[t]
            i = ins.index(t)
            rest = ins[:i] + ins[i + 1 :]
            if vkill is None:
                j = 0
            else:
                v = next((x for x in rest if x in vkill), None)
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
            return (dv, rho, rem[0], rest[j]), rem[1:]
        return fallback

    def _spec_unknowns(self, cls, spec):
        """Current-stage keys that _build would keep symbolic for this spec."""
        (d, rho, u, v), extras = spec
        cup_terms = self._cup_terms
        out = set()
        for m, _cm in cup_terms[d][rho]:
            out.add((cls, _merged(extras, (u, v, m))))
        if self._codims[rho] >= 2:
            for m, _cm in cup_terms[d][v]:
                out.add((cls, _merged(extras, (rho, u, m))))
        return sorted(out)

    def _stage_keys(self, cls, n):
        """All admissible keys of stage (cls, n), sorted."""
        budget = self._budget(cls)
        nond = self.datum.nondivisors
        weights = self._weights
        out = []

        def rec(pos, left, wleft, acc):
            if left == 0:
                if wleft == 0:
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
        """Write the memo store as deterministic JSON; returns entry count."""
        if self.datum.rank != 2:
            raise CacheFormatError(
                "cache schema is defined for the two-parameter target only"
            )
        entries = []
        for (cls, ins), val in self.memo.items():
            entries.append(
                {
                    "a": cls[0],
                    "b": cls[1],
                    "ins": list(ins),
                    "num": str(val.numerator),
                    "den": str(val.denominator),
                }
            )
        payload = {
            "schema": CACHE_SCHEMA,
            "target": self.datum.name,
            "entries": entries,
        }
        # json.dumps takes the C encoder; json.dump streams through the
        # pure-Python one, several times slower for the same bytes
        text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        return len(entries)

    def load_cache(self, path) -> int:
        """Load and validate a cache file into the memo; returns entry count.

        A file tagged with a ``schema`` other than CACHE_SCHEMA raises
        CacheFormatError; an untagged file, as written before the tag
        existed, loads. Every entry must be canonical and
        dimension-admissible, with ``a``,
        ``b`` and the ``ins`` list made of JSON integers (anything else,
        such as a string of digits, raises CacheFormatError); entries the
        base cases can derive must match them exactly. A value conflicting
        with one already in the memo raises InconsistentSystem.
        """
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
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
        size = self.datum.basis_size
        codims = self._codims
        count = 0
        for entry in entries:
            try:
                cls = (entry["a"], entry["b"])
                ins = entry["ins"]
                val = rat_from_parts(entry["num"], entry["den"])
            except (KeyError, TypeError, ValueError) as exc:
                raise CacheFormatError(f"malformed entry {entry!r}") from exc
            if type(ins) is not list:
                raise CacheFormatError(f"entry insertions {ins!r} are not a list")
            ins = tuple(ins)
            if not self.datum.effective(cls) or self.datum.is_zero_class(cls):
                raise CacheFormatError(f"entry class {cls} is not admissible")
            # one pass: JSON ints only (no bools), in range, non-divisor
            if len(ins) > MemoStore.MAX_INSERTIONS or any(
                type(e) is not int or not 0 <= e < size or codims[e] < 2
                for e in ins
            ) or tuple(sorted(ins)) != ins:
                raise CacheFormatError(f"entry insertions {ins} not canonical")
            if sum(self._weights[e] for e in ins) != self._budget(cls):
                raise CacheFormatError(
                    f"entry ({cls}, {ins}) violates the dimension count"
                )
            derivable = self.datum.base_case(cls, ins)
            if derivable is not None and derivable != val:
                raise InconsistentSystem(
                    f"cache entry ({cls}, {ins}) = {val} contradicts base "
                    f"case {derivable}"
                )
            self.memo.set((cls, ins), val)
            count += 1
        return count


def _merged(sorted_tuple, small):
    return tuple(sorted(sorted_tuple + tuple(small)))
