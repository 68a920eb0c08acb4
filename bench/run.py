"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload tables-d6 --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh interpreter (child.py) on a cold Engine,
one after another, until ``--seconds`` of repetitions have run.
``--trace 0`` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
``--trace 1`` runs one untraced and one traced repetition and prints the
per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it, prefixed ``record``, holds the samples and the environment.  Exit codes:
0 when every check passed, 1 when a check failed, 2 when the package could
not be set up.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracer import METRICS as LAYER_METRICS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
CHILD = os.path.join(BENCH, "child.py")

WORKLOADS = ("tables-d6", "qcoh-wide", "cache-roundtrip")
SETUP_REPS = 6        # setup-only interpreters before and again after the workload
TRACE_CYCLES = 3      # cache-roundtrip cycles in each repetition of a traced run
DEADLINE_S = 170.0    # a run ends within this, whatever the workload does

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupFailed(Exception):
    """The package could not be imported or an engine could not be built."""


def spawn(spec: dict, timeout: float) -> dict | None:
    """Run child.py on a spec; its last stdout line, or None if it failed."""
    try:
        proc = subprocess.run(
            [sys.executable, "-I", CHILD, json.dumps(spec)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out: {spec['mode']}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    print(f"child failed: {spec['mode']} (exit {proc.returncode})", file=sys.stderr)
    return None


def source_digest() -> str:
    """Hash of the package sources, naming the prepared cache file."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One invocation: set-up samples, repetitions, and the verdict."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.perf_counter()
        self.setup = []
        self.reps = []
        self.ctx = {}

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def measure_setup(self, count: int) -> list:
        samples = []
        for _ in range(count):
            out = spawn({"mode": "setup"}, self.left())
            if out is None:
                raise SetupFailed("could not import hilb2gw and build an Engine")
            samples.append(out["setup_s"])
        return samples

    def prepare(self) -> None:
        if self.workload != "cache-roundtrip":
            return
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"memo-d6-{source_digest()}.json")
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            spec = {"mode": "prep", "workload": self.workload, "path": tmp}
            if spawn(spec, self.left()) is None:
                raise SetupFailed("the cache prep step failed")
            os.replace(tmp, path)
        self.ctx = {
            "cache": path,
            "output": os.path.join(WORK, f"roundtrip-{os.getpid()}.json"),
            "seconds": self.seconds,
        }

    def repetition(self, trace: bool) -> dict:
        ctx = dict(self.ctx)
        if self.trace:
            ctx["cycles"] = TRACE_CYCLES
        spec = {"mode": "rep", "workload": self.workload, "seed": self.seed,
                "trace": trace, "ctx": ctx}
        out = spawn(spec, self.left())
        if out is None:
            out = {"samples": [], "attempted": 1, "failed": 1,
                   "error": "repetition crashed or timed out"}
        out["traced"] = trace
        self.reps.append(out)
        return out

    def measure(self) -> None:
        if self.trace:
            self.repetition(False)
            self.repetition(True)
            return
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < self.seconds:
            self.repetition(False)

    def untraced(self, key) -> list:
        return [v for r in self.reps if not r["traced"] for v in _as_list(r.get(key))]

    def metrics(self) -> dict | None:
        """The printed metrics, or None when no repetition produced them.

        ``wall_s`` is timed seconds per sample (repetition or cycle), not
        the median sample: the host switches between a fast and a slow
        speed every few seconds, and the median of one run snaps to
        whichever speed held longest, while the mean weighs both.
        """
        wall = _mean(self.untraced("samples"))
        if self.trace:
            traced = next(r for r in self.reps if r["traced"])
            if "layers" not in traced or not wall:
                return None
            layers = traced["layers"]
            plain = next(r for r in self.reps if not r["traced"])
            layers["proc.minor_faults"]["value"] = plain.get("minor_faults", 0)
            layers["proc.sys_s"]["value"] = plain.get("sys_s", 0.0)
            layers["trace.overhead_ratio"]["value"] = _mean(traced["samples"]) / wall
            return layers
        if not wall:
            return None
        values = {
            "wall_s": wall,
            "setup_s": _median(self.setup + self.untraced("setup_s")),
            "peak_rss_mb": _median(self.untraced("peak_rss_mb")),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def record(self, metrics: dict, attempted: int, failed: int) -> dict:
        first = next((r for r in self.reps if "backend" in r), {})
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "env": {
                "backend": first.get("backend", "unknown"),
                "python": first.get("python", platform.python_version()),
                "nproc": os.cpu_count(),
                "commit": git_commit(),
            },
            "attempted": attempted,
            "failed": failed,
            "fail_rate": failed / attempted,
            "errors": [r["error"] for r in self.reps if r.get("error")],
            "notes": [n for r in self.reps for n in r.get("notes", [])][:5],
            "setup_samples": self.setup + self.untraced("setup_s"),
            "wall_samples": self.untraced("samples"),
            "calib_s": [r["calib_s"] for r in self.reps if "calib_s" in r],
            "peak_rss_samples": self.untraced("peak_rss_mb"),
            "sys_s": self.untraced("sys_s"),
            "minor_faults": self.untraced("minor_faults"),
            "metrics": metrics,
        }
        traced = [r for r in self.reps if r["traced"]]
        if traced:
            record["absent_layers"] = traced[0].get("absent", [])
            record["traced_wall_s"] = sum(traced[0].get("samples", []))
            record["phase_self_s"] = traced[0].get("phase_self_s", 0.0)
        return record


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _as_list(value) -> list:
    if value is None:
        return []
    return value if isinstance(value, list) else [value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hilb2gw", "__init__.py")):
        print(f"no hilb2gw sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.measure_setup(1)  # warm-up: this interpreter may compile bytecode
        run.setup += run.measure_setup(SETUP_REPS)
        run.prepare()
        run.measure()
        if not run.trace:
            run.setup += run.measure_setup(SETUP_REPS)
    except SetupFailed as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in run.reps)
    failed = sum(r["failed"] for r in run.reps)
    metrics = run.metrics()
    correct = failed == 0 and metrics is not None
    if metrics is None:  # every repetition crashed: report zeros, fail the run
        units = LAYER_METRICS if run.trace else END_TO_END
        metrics = {k: {"value": 0, "unit": u} for k, u in units.items()}
    record = run.record(metrics, attempted, failed)

    walls = record["wall_samples"]
    print(f"workload {args.workload}  seed {args.seed}  backend {record['env']['backend']}"
          f"  repetitions {len(run.reps)}  wall samples {len(walls)}"
          f" (median {_median(walls):.6g} s, max {max(walls, default=0):.6g} s)")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_rate':32s} {record['fail_rate']:.6g} ({failed} of {attempted} checks)")
    if run.trace and record.get("traced_wall_s"):
        share = record["phase_self_s"] / record["traced_wall_s"]
        print(f"  engine-phase self time: {share:.1%} of traced wall_s")
    for absent in record.get("absent_layers", []):
        print(f"  absent layer: {absent}")
    for error in record["errors"]:
        print(f"  error: {error}")
    line = json.dumps(record)
    print("record " + line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
