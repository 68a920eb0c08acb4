"""Randomized property checks shared by the topic tests and the acceptance run,
and a Hilb^2 datum with one base case replaced.

Each function returns (failures, samples) where ``failures`` is a list of
human-readable descriptions (empty = pass).  Randomness is always driven by
a caller-supplied ``random.Random`` so every run is reproducible.
"""

from hilb2gw.chow import TargetDatum, hilb_datum
from hilb2gw.rationals import binom


def random_class(rng, max_a=3, max_b=2):
    while True:
        a, b = rng.randint(0, max_a), rng.randint(0, max_b)
        if a or b:
            return (a, b)


def random_admissible_ins(rng, datum, cls, bias_heavy=False):
    """A random non-divisor multiset whose weights exactly fill the budget."""
    left = datum.weight_budget(cls)
    ins = []
    while left > 0:
        choices = [e for e in datum.nondivisors if datum.weights[e] <= left]
        if bias_heavy:
            top = max(datum.weights[e] for e in choices)
            if rng.random() < 0.7:
                choices = [e for e in choices if datum.weights[e] == top]
        e = rng.choice(choices)
        ins.append(e)
        left -= datum.weights[e]
    return sorted(ins)


def check_permutation_invariance(engine, rng, samples=200):
    """invariant() is blind to insertion order, divisors included."""
    datum = engine.datum
    failures = []
    for _ in range(samples):
        cls = random_class(rng)
        ins = random_admissible_ins(rng, datum, cls)
        ins += [rng.choice(datum.divisors) for _ in range(rng.randint(0, 2))]
        reference = engine.invariant(cls, ins)
        shuffled = list(ins)
        rng.shuffle(shuffled)
        value = engine.invariant(cls, shuffled)
        if value != reference:
            failures.append(f"{cls} {ins} -> {reference} vs {shuffled} -> {value}")
    return failures, samples


def check_dimension_vanishing(engine, rng, samples=200):
    """Keys whose weights miss the budget evaluate to exactly zero."""
    datum = engine.datum
    failures = []
    for _ in range(samples):
        cls = random_class(rng)
        ins = random_admissible_ins(rng, datum, cls)
        if rng.random() < 0.5 or len(ins) == 1:
            ins.append(rng.choice(datum.nondivisors))  # overshoot the budget
        else:
            ins.pop(rng.randrange(len(ins)))  # undershoot
        value = engine.invariant(cls, ins)
        if value != 0:
            failures.append(f"{cls} {sorted(ins)} -> {value}, expected 0")
    return failures, samples


def check_effectivity_rejection(engine):
    """Classes outside the effective cone are rejected at the API."""
    failures = []
    for cls in ((-1, 3), (2, -1), (0, 0)):
        try:
            engine.invariant(cls, [3])
        except ValueError:
            continue
        failures.append(f"{cls} accepted")
    return failures, 3


def check_divisor_axiom(engine, rng, samples=100):
    """Prepending a divisor D multiplies the invariant by D . class."""
    datum = engine.datum
    failures = []
    for _ in range(samples):
        cls = random_class(rng)
        ins = random_admissible_ins(rng, datum, cls)
        d = rng.choice(datum.divisors)
        with_div = engine.invariant(cls, [d] + ins)
        bare = engine.invariant(cls, ins)
        if with_div != cls[datum.divisor_pos[d]] * bare:
            failures.append(f"{cls} D=T{d} {ins}")
    return failures, samples


def check_wdvv_residuals(engine, rng, samples=100, max_a=3, max_b=4):
    """Fully resolved associativity equations evaluate to exactly zero."""
    datum = engine.datum
    failures = []
    done = 0
    while done < samples:
        cls = random_class(rng, max_a=max_a, max_b=max_b)
        budget = datum.weight_budget(cls)
        i = rng.choice(datum.divisors)
        j, k, l = (rng.choice(datum.nondivisors) for _ in range(3))
        if j == l:
            continue
        rem = budget - 1 - datum.weights[j] - datum.weights[k] - datum.weights[l]
        if rem < 0:
            continue
        extras = []
        left = rem
        while left > 0:
            choices = [e for e in datum.nondivisors if datum.weights[e] <= left]
            top = max(datum.weights[e] for e in choices)
            e = rng.choice([e for e in choices if datum.weights[e] == top])
            extras.append(e)
            left -= datum.weights[e]
        if len(extras) > 6:
            continue
        done += 1
        residual = engine.wdvv_residual(cls, (i, j, k, l), extras)
        if residual != 0:
            failures.append(f"{cls} frame ({i},{j},{k},{l}) extras {sorted(extras)} -> {residual}")
    return failures, samples


def check_binomial_roundtrip(tables, max_degree=7):
    """Forward binomial transform of the counts reproduces the invariants."""
    failures = []
    cells = 0
    for d in range(2, max_degree + 1):
        for l in (0, 1, 2):
            table = tables[(d, l)]
            for g in range(d):
                cells += 1
                total = sum(
                    binom(2 * h + 2, h - g) * table.counts[h] for h in range(g, d)
                )
                if total != table.invariants[g]:
                    failures.append(f"d={d} l={l} g={g}")
    return failures, cells


def rescaled_hilb_datum(value, key=((2, 0), (3,))):
    """The Hilb^2 datum with the base case ``key`` = (class, insertions), by
    default I_(2,0)(T3) = 3/4, replaced by ``value``, and everything else
    kept."""
    d = hilb_datum()

    def base_case(cls, ins):
        if (cls, ins) == key:
            return value
        return d.base_case(cls, ins)

    return TargetDatum(
        name=d.name,
        codims=d.codims,
        cup_table=d.cup_table,
        anticanonical=d.anticanonical,
        base_case=base_case,
        base=d.base,
        zero_class=d.zero_class,
    )
