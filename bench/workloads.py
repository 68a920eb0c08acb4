"""The benchmark workloads: inputs from a seed, a timed section, checks.

Every workload runs on a cold ``Engine()`` in a fresh interpreter (see
child.py).  ``run`` returns the timed samples and the checks it attempted
and failed; the expected values below are the frozen tables for d <= 6,
kept here so the benchmark does not grade the program against its own data.
"""

from __future__ import annotations

import filecmp
import os
import random
import time

import hilb2gw

MAX_DEGREE = 6
PAIRS = (0, 1, 2)

# (l, d) -> I(d, g, l) and E^l(d, g) for g = 0 .. d-2
EXPECTED_INVARIANTS = {
    (0, 2): (0,), (0, 3): (0, 0), (0, 4): (405, 162, 27),
    (0, 5): (560385, 224910, 37935, 135),
    (0, 6): (1096808499, 460743174, 89898984, 3933549, 405),
    (1, 2): (0,), (1, 3): (4, 1), (1, 4): (975, 255, 5),
    (1, 5): (500070, 147780, 10138, 12),
    (1, 6): (510209009, 172751014, 21081609, 558749, 22),
    (2, 2): (1,), (2, 3): (16, 1), (2, 4): (1279, 167, 1),
    (2, 5): (317408, 63228, 2536, 1),
    (2, 6): (187613888, 49635964, 4254399, 65417, 1),
}
EXPECTED_COUNTS = {
    (0, 2): (0,), (0, 3): (0, 0), (0, 4): (0, 0, 27),
    (0, 5): (0, 0, 36855, 135),
    (0, 6): (0, 0, 58444767, 3929499, 405),
    (1, 2): (0,), (1, 3): (0, 1), (1, 4): (0, 225, 5),
    (1, 5): (0, 87192, 10042, 12),
    (1, 6): (0, 57435240, 16612387, 558529, 22),
    (2, 2): (1,), (2, 3): (12, 1), (2, 4): (620, 161, 1),
    (2, 5): (87304, 48032, 2528, 1),
    (2, 6): (26312976, 25417860, 3731098, 65407, 1),
}


class Checks:
    """Attempted and failed check counts, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def table_queries(seed: int, max_degree: int = MAX_DEGREE):
    """The (d, l) tables for 2 <= d <= max_degree, l in 0..2, seed-permuted."""
    queries = [(d, l) for d in range(2, max_degree + 1) for l in PAIRS]
    random.Random(seed).shuffle(queries)
    return queries


def table_checks(max_degree: int = MAX_DEGREE) -> int:
    """Checks one pass over the tables makes: cells, then the N_d oracle."""
    cells = sum(2 * (d - 1) for d in range(2, max_degree + 1)) * len(PAIRS)
    return cells + max_degree - 1


def query_tables(engine, queries) -> dict:
    return {(d, l): hilb2gw.invert_counts(engine, d, l) for d, l in queries}


def check_tables(tables, checks: Checks) -> None:
    """Frozen cells g <= d-2 of every table, and E^2(d, 0) = N_d."""
    for (d, l), table in sorted(tables.items()):
        want_i = EXPECTED_INVARIANTS[(l, d)]
        want_e = EXPECTED_COUNTS[(l, d)]
        for g in range(d - 1):
            checks.check(table.invariants[g] == want_i[g], f"I({d},{g},{l})")
            checks.check(table.counts[g] == want_e[g], f"E^{l}({d},{g})")
        if l == 2:
            checks.check(
                table.counts[0] == hilb2gw.kontsevich_nd(d), f"N_{d} oracle"
            )


class TablesD6:
    """Three hyperelliptic columns, d = 2..6, in a seed-permuted order."""

    name = "tables-d6"

    def __init__(self, max_degree: int = MAX_DEGREE):
        self.max_degree = max_degree

    def checks_per_rep(self) -> int:
        return table_checks(self.max_degree)

    def run(self, engine, seed, checks, samples, ctx) -> None:
        queries = table_queries(seed, self.max_degree)
        t0 = time.perf_counter()
        tables = query_tables(engine, queries)
        samples.append(time.perf_counter() - t0)
        check_tables(tables, checks)


class QcohWide:
    """The quantum product table and ring relations to q1^80 q2^2."""

    name = "qcoh-wide"

    def __init__(self, n1: int = 80, n2: int = 2):
        self.n1, self.n2 = n1, n2

    def checks_per_rep(self) -> int:
        return 9 + 2

    def run(self, engine, seed, checks, samples, ctx) -> None:
        calls = [hilb2gw.verify_product_table, hilb2gw.verify_relations]
        random.Random(seed).shuffle(calls)
        t0 = time.perf_counter()
        reports = [fn(engine, self.n1, self.n2) for fn in calls]
        samples.append(time.perf_counter() - t0)
        for report in reports:
            for entry in getattr(report, "entries", ()):
                checks.check(entry.passed, f"product {entry.name}")
            for k, residual in enumerate(getattr(report, "residuals", ())):
                checks.check(residual.is_zero(), f"relation {k + 1}")


class CacheRoundtrip:
    """Load the d <= 6 memo, answer the tables from it, save it back.

    ``ctx["cache"]`` is the file the prep step wrote with the code under
    test; ``ctx["cycles"]`` fixes the cycle count, otherwise cycles run
    until ``ctx["seconds"]`` have been measured.
    """

    name = "cache-roundtrip"

    def __init__(self, max_degree: int = MAX_DEGREE):
        self.max_degree = max_degree

    def checks_per_rep(self) -> int:
        return table_checks(self.max_degree) + 1

    def prepare(self, path) -> None:
        """Compute the memo on a cold engine and save it (untimed)."""
        engine = hilb2gw.Engine()
        query_tables(engine, table_queries(0, self.max_degree))
        engine.save_cache(path)

    def run(self, engine, seed, checks, samples, ctx) -> None:
        src = ctx["cache"]
        out = ctx["output"]
        queries = table_queries(seed, self.max_degree)
        cycles = ctx.get("cycles")
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            fresh = hilb2gw.Engine()
            fresh.load_cache(src)
            tables = query_tables(fresh, queries)
            fresh.save_cache(out)
            dt = time.perf_counter() - t0
            samples.append(dt)
            spent += dt
            check_tables(tables, checks)
            checks.check(filecmp.cmp(src, out, shallow=False), "byte-identical re-export")
            os.remove(out)
            if len(samples) >= cycles if cycles else spent >= ctx["seconds"]:
                break


WORKLOADS = {w.name: w for w in (TablesD6, QcohWide, CacheRoundtrip)}
