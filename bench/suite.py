"""Run every workload over several seeds, round-robin, and summarise.

    python3 bench/suite.py --seeds 1-10 --out bench/_work/base.jsonl
    python3 bench/suite.py --summary bench/_work/base.jsonl

Each seed runs every workload once, one after another, so slow drift of
the host spreads over all workloads instead of landing on one.  Every run
appends its record (see run.py) to ``--out``; the summary prints, per
workload and end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread), beside the metric's bound
from BENCHMARK.json, and the fail rate over all checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_records(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def summarise(records, spec) -> bool:
    """Print the table; True when every gated spread is within its bound."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload, runs in by_workload(records).items():
        plain = [r for r in runs if not r["trace"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        backends = sorted({r["env"]["backend"] for r in runs})
        print(f"{workload}: {len(plain)} runs, backend {','.join(backends)}, "
              f"fail_rate {failed / attempted:.3g} ({failed} of {attempted} checks)")
        metrics = plain[0]["metrics"] if plain else {}
        for name, first in metrics.items():
            values = [r["metrics"][name]["value"] for r in plain]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            gated = bound is not None and name != "setup_s"
            flag = ""
            if gated and spread > bound:
                flag, steady = "  OVER BOUND", False
            elif gated and spread > bound / 3:
                flag = "  over a third of the bound"
            print(f"  {name:12s} median {med:.6g} {first['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.3f}  bound {bound}{flag}")
        calib = [c for r in plain for c in r.get("calib_s", [])]
        if len(calib) > 1:
            q1, med, q3 = quartiles(calib)
            print(f"  {'calib_s':12s} median {med:.6g} s  spread {(q3 - q1) / med:.3f} (ungated)")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--trace", action="store_true", help="traced runs instead")
    parser.add_argument("--out", help="JSON-lines file the runs append to")
    parser.add_argument("--summary", help="only summarise this JSON-lines file")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.summary:
        return 0 if summarise(load_records(args.summary), spec) else 1
    if not args.out:
        parser.error("--out is required unless --summary is given")
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    failures = 0
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(int(args.trace)), "--record", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"seed {seed} {name}: exit {proc.returncode} {last[0][:160]}", flush=True)
            failures += proc.returncode != 0
    if args.trace:
        return 1 if failures else 0
    steady = summarise(load_records(args.out), spec)
    return 1 if failures or not steady else 0


if __name__ == "__main__":
    sys.exit(main())
