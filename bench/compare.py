"""Compare two sets of benchmark records, e.g. a parent commit and a change.

    python3 bench/compare.py bench/_work/base.jsonl bench/_work/change.jsonl

For every workload and end-to-end metric it prints both medians and the
change as a share of the base median, and marks a change worse than the
metric's bound in BENCHMARK.json.  Records made on different rational
backends (``fractions`` versus ``gmpy2``) measure different programs: the
comparison is refused.  Exit codes: 0 none worse than its bound, 1 some
metric worse than its bound, 2 refused.
"""

from __future__ import annotations

import statistics
import sys

from suite import by_workload, load_records, load_spec


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (load_records(path) for path in argv)
    backends = {r["env"]["backend"] for r in base + change}
    if len(backends) != 1:
        print(f"refused: records come from different backends {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worse_any = False
    new = by_workload(change)
    for workload, runs in by_workload(base).items():
        a = [r for r in runs if not r["trace"]]
        b = [r for r in new.get(workload, []) if not r["trace"]]
        if not a or not b:
            continue
        print(f"{workload}: {len(a)} base runs, {len(b)} change runs")
        for name in bounds:
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            delta = (mb - ma) / ma
            worse = delta if better[name] == "lower" else -delta
            flag = "  WORSE THAN BOUND" if worse > bounds[name] else ""
            worse_any |= bool(flag)
            print(f"  {name:12s} {ma:.6g} -> {mb:.6g}  ({delta:+.1%}, bound {bounds[name]:.0%}){flag}")
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
