"""Command-line front end.

Subcommands:

* ``invariant``      — one genus-0 invariant of the target for a curve class
                       and a list of basis insertions.
* ``hyperelliptic``  — the (I, E) table over genus for one degree.
* ``tables``         — regenerate every headline table and diff it against
                       the frozen expected values.
* ``qcoh``           — verify the small-quantum-product table and the two
                       cubic relations.
* ``oracle``         — the closed-form count of rational plane curves.
* ``cache``          — export/import the engine's memo store as JSON.

Exit codes: 0 success; 2 usage or input-format error; 3 a count failed an
integrality/positivity sanity check; 4 a verification found a value-level
mismatch; 1 internal invariant violation; 141 (128 + SIGPIPE) standard
output was closed before the output was written, which ends silently.

Every integer argument is ASCII ``-?[0-9]+`` (``rationals.ascii_int``).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .chow import hilb_datum
from .engine import (
    CacheFormatError,
    Engine,
    EngineError,
    InconsistentSystem,
)
from .fixtures import COUNT_TABLES, INVARIANT_TABLES
from .hyperelliptic import NegativeCount, NonIntegralCount, invert_counts
from .oracles import engine_nd, kontsevich_nd
from .quantum import verify_product_table, verify_relations
from .rationals import ascii_int, rat_str

SCHEMA = "hilb2gw/1"

__all__ = ["main", "build_parser", "SCHEMA"]


# ----------------------------------------------------------------------
# argument parsing helpers
# ----------------------------------------------------------------------


def _parse_class(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"class must be 'a,b', got {text!r}")
    a, b = (ascii_int(x, "class component") for x in parts)
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("class must be non-negative and non-zero")
    return (a, b)


# Insertions one ``invariant`` call may list in total, repeats included; the
# total is checked before any repeat is expanded.
MAX_INSERTIONS = 100_000


def _parse_insertions(text: str, top: int):
    """Parse '4,8' / '4x13' / '4×13' / mixes into a list of basis indices.

    More than MAX_INSERTIONS insertions in total raise ValueError before
    the list is built.
    """
    parsed = []
    for token in text.split(","):
        body = token.replace("×", "x")
        if "x" in body:
            left, _, right = body.partition("x")
            idx, count = ascii_int(left, "insertion index"), ascii_int(right, "repeat")
            if count < 0:
                raise ValueError(f"negative repeat in {token!r}")
        else:
            idx, count = ascii_int(body, "insertion index"), 1
        if not 0 <= idx <= top:
            raise ValueError(f"insertion index {idx} out of range 0..{top}")
        parsed.append((idx, count))
    total = sum(count for _idx, count in parsed)
    if total > MAX_INSERTIONS:
        raise ValueError(
            f"{total} insertions requested; at most {MAX_INSERTIONS} are accepted"
        )
    out = []
    for idx, count in parsed:
        out.extend([idx] * count)
    return out


def _int_arg(text: str) -> int:
    """The argparse type of every integer option: ``ascii_int``."""
    try:
        return ascii_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _engine(args) -> Engine:
    """A fresh engine, preloaded from ``--cache`` when given."""
    engine = Engine()
    if args.cache:
        engine.load_cache(args.cache)
    return engine


def _emit_json(payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    json.dump(payload, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_invariant(args) -> int:
    cls = _parse_class(args.cls)
    ins = _parse_insertions(args.insertions, hilb_datum().top)
    engine = _engine(args)
    t0 = time.perf_counter()
    value = engine.invariant(cls, ins)
    elapsed = time.perf_counter() - t0
    if args.json:
        _emit_json(
            {
                "command": "invariant",
                "class": list(cls),
                "insertions": ins,
                "value": rat_str(value),
                "seconds": round(elapsed, 3),
            }
        )
    else:
        print(rat_str(value))
    return 0


def _cmd_hyperelliptic(args) -> int:
    if args.degree < 2:
        raise ValueError("--degree must be at least 2")
    # no fixture or oracle covers three or more conjugate pairs
    if not 0 <= args.pairs <= min(2, args.degree):
        raise ValueError("--pairs must lie in 0..min(2, degree)")
    engine = _engine(args)
    t0 = time.perf_counter()
    table = invert_counts(engine, args.degree, args.pairs)
    elapsed = time.perf_counter() - t0
    rows = [
        {"g": g, "invariant": rat_str(inv), "count": str(count)}
        for g, inv, count in table.rows()
    ]
    if args.json:
        _emit_json(
            {
                "command": "hyperelliptic",
                "degree": args.degree,
                "pairs": args.pairs,
                "rows": rows,
                "seconds": round(elapsed, 3),
            }
        )
    elif args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["g", "invariant", "count"])
        for row in rows:
            writer.writerow([row["g"], row["invariant"], row["count"]])
    else:
        print(f"degree {args.degree}, conjugate pairs {args.pairs}")
        width = max(len(r["invariant"]) for r in rows)
        for row in rows:
            print(f"  g={row['g']}  I={row['invariant']:>{width}}  E={row['count']}")
    return 0


def _diff_tables(engine, dmax):
    """``(results, mismatch)``: a PASS row per frozen table up to ``dmax``,
    pairs l = 0, 1, 2, invariants before counts; at the first cell that
    differs, a FAIL row counting the cells read so far and the mismatch,
    and no later table is computed.  ``mismatch`` is None when all pass."""
    results = []
    for l in (0, 1, 2):
        tables = {d: invert_counts(engine, d, l) for d in range(2, dmax + 1)}
        for kind, field, frozen in (
            ("invariant", "invariants", INVARIANT_TABLES[l]),
            ("count", "counts", COUNT_TABLES[l]),
        ):
            row = {"table": kind, "pairs": l, "cells": 0, "status": "PASS"}
            results.append(row)
            for (d, g), want in sorted(frozen.items()):
                if d <= dmax:
                    row["cells"] += 1
                    got = getattr(tables[d], field)[g]
                    if got != want:
                        row["status"] = "FAIL"
                        return results, {
                            "table": kind, "pairs": l, "d": d, "g": g,
                            "computed": rat_str(got), "expected": rat_str(want),
                        }
    return results, None


def _cmd_tables(args) -> int:
    dmax = args.max_degree
    if not 2 <= dmax <= 7:
        raise ValueError("--max-degree must lie in 2..7")
    engine = _engine(args)
    t0 = time.perf_counter()
    results, mismatch = _diff_tables(engine, dmax)
    elapsed = time.perf_counter() - t0
    if args.json:
        _emit_json(
            {
                "command": "tables",
                "max_degree": dmax,
                "results": results,
                "mismatch": mismatch,
                "seconds": round(elapsed, 3),
            }
        )
    else:
        for res in results:
            print(
                f"{res['table']} table (pairs={res['pairs']}): "
                f"{res['status']} ({res['cells']} cells)"
            )
        if mismatch:
            print(
                f"MISMATCH {mismatch['table']} table pairs={mismatch['pairs']} "
                f"d={mismatch['d']} g={mismatch['g']}: computed "
                f"{mismatch['computed']} expected {mismatch['expected']}",
                file=sys.stderr,
            )
        else:
            print(f"all tables match ({elapsed:.1f}s)")
    return 4 if mismatch else 0


def _cmd_qcoh(args) -> int:
    engine = _engine(args)
    t0 = time.perf_counter()
    table = verify_product_table(engine, args.n1, args.n2)
    relations = verify_relations(engine, args.n1, args.n2)
    elapsed = time.perf_counter() - t0
    ok = table.passed and relations.passed
    if args.json:
        _emit_json(
            {
                "command": "qcoh",
                "n1": args.n1,
                "n2": args.n2,
                "products": [
                    {
                        "name": ent.name,
                        "status": "PASS" if ent.passed else "FAIL",
                        "first_mismatch": list(ent.first_mismatch)
                        if ent.first_mismatch
                        else None,
                    }
                    for ent in table.entries
                ],
                "relations": [
                    {"index": i, "residual_zero": r.is_zero()}
                    for i, r in enumerate(relations.residuals, 1)
                ],
                "status": "PASS" if ok else "FAIL",
                "seconds": round(elapsed, 3),
            }
        )
    else:
        for ent in table.entries:
            line = f"{ent.name}: {'PASS' if ent.passed else 'FAIL'}"
            if not ent.passed:
                line += f" (first mismatch at q1^{ent.first_mismatch[0]}q2^{ent.first_mismatch[1]})"
            print(line)
        for i, r in enumerate(relations.residuals, 1):
            print(f"relation {i}: residual {'0' if r.is_zero() else repr(r)}")
        print(f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    return 0 if ok else 4


def _cmd_oracle(args) -> int:
    value = kontsevich_nd(args.nd)
    checked = None
    if args.check_engine:
        engine_value = engine_nd(args.nd)
        checked = engine_value == value
    if args.json:
        _emit_json(
            {
                "command": "oracle",
                "d": args.nd,
                "value": rat_str(value),
                "engine_agrees": checked,
            }
        )
    else:
        print(rat_str(value))
        if checked is not None:
            print(f"engine agrees: {checked}")
    if checked is False:
        return 4
    return 0


def _cmd_cache(args) -> int:
    if args.action == "export":
        if args.degree < 2:
            raise ValueError("--degree must be at least 2")
        engine = Engine()
        for d in range(2, args.degree + 1):
            for l in (0, 1, 2):
                invert_counts(engine, d, l)
        count = engine.save_cache(args.path)
        if args.json:
            _emit_json(
                {
                    "command": "cache-export",
                    "path": args.path,
                    "entries": count,
                }
            )
        else:
            print(f"wrote {count} entries to {args.path}")
        return 0
    # import
    engine = Engine()
    loaded = engine.load_cache(args.path)
    if args.out:
        engine.save_cache(args.out)
    if args.json:
        _emit_json(
            {
                "command": "cache-import",
                "path": args.path,
                "entries": loaded,
                "out": args.out,
            }
        )
    else:
        print(f"loaded {loaded} entries from {args.path}")
        if args.out:
            print(f"re-exported to {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_common(sub, cache_flag: bool = True, formats=None) -> None:
    """``--json`` (in ``formats``, a mutually exclusive group, when given)
    and, unless ``cache_flag`` is false, ``--cache``."""
    (formats or sub).add_argument(
        "--json", action="store_true", help="emit one JSON object"
    )
    if cache_flag:
        sub.add_argument("--cache", help="preload a memo cache file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilb2gw",
        description="Exact genus-0 invariant computations for the Hilbert "
        "scheme of two points in the plane, and the curve counts they encode.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("invariant", help="one invariant for a class and insertions")
    p.add_argument("--class", dest="cls", required=True, metavar="a,b")
    p.add_argument(
        "--insertions",
        required=True,
        help="comma-separated basis indices; 'IxK' repeats index I K times; "
        f"at most {MAX_INSERTIONS} in total",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_invariant)

    p = subs.add_parser("hyperelliptic", help="(I, E) table over genus for one degree")
    p.add_argument("--degree", type=_int_arg, required=True)
    p.add_argument(
        "--pairs",
        type=_int_arg,
        default=0,
        help="conjugate point pairs l, 0..min(2, degree)",
    )
    formats = p.add_mutually_exclusive_group()
    formats.add_argument("--csv", action="store_true", help="emit CSV with a header row")
    _add_common(p, formats=formats)
    p.set_defaults(func=_cmd_hyperelliptic)

    p = subs.add_parser("tables", help="regenerate all headline tables and diff")
    p.add_argument("--max-degree", type=_int_arg, default=7, metavar="D")
    _add_common(p)
    p.set_defaults(func=_cmd_tables)

    p = subs.add_parser("qcoh", help="verify quantum products and relations")
    p.add_argument("--n1", type=_int_arg, default=4)
    p.add_argument("--n2", type=_int_arg, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_qcoh)

    p = subs.add_parser("oracle", help="closed-form rational plane-curve count")
    p.add_argument("--nd", type=_int_arg, required=True, metavar="D")
    p.add_argument(
        "--check-engine",
        action="store_true",
        help="also recompute via the generic engine and compare",
    )
    _add_common(p, cache_flag=False)
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("cache", help="export or import the memo store")
    p.add_argument("action", choices=("export", "import"))
    p.add_argument("path")
    p.add_argument(
        "--degree",
        type=_int_arg,
        default=3,
        help="warm the engine with tables up to this degree before export",
    )
    p.add_argument("--out", help="on import, re-export the loaded store here")
    _add_common(p, cache_flag=False)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout is gone.  End as quietly as a process that
        # SIGPIPE killed, and point stdout at /dev/null so the interpreter's
        # final flush of what is still buffered has nothing to fail on.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CacheFormatError as exc:
        print(f"cache format error: {exc}", file=sys.stderr)
        return 2
    except (NonIntegralCount, NegativeCount) as exc:
        print(f"count sanity failure: {exc}", file=sys.stderr)
        return 3
    except InconsistentSystem as exc:
        print(f"value contradiction: {exc}", file=sys.stderr)
        return 4
    except EngineError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
