"""One measured repetition of a workload, in a fresh interpreter.

run.py starts this file with ``python -I bench/child.py '<json spec>'`` and
reads the JSON object it prints as its last line.  Modes:

- ``setup``: import hilb2gw, build the datum and a cold Engine, report the
  time that took (``setup_s``);
- ``prep``: write the workload's input file with the code under test;
- ``rep``: set up as above, time a fixed pure-Fraction loop (``calib_s``),
  run the workload on the cold engine, and report its samples, checks,
  peak RSS and, when ``trace`` is set, the per-layer metrics.

A fresh interpreter per repetition keeps process-wide caches (the datum and
``kontsevich_nd``) cold and makes ``ru_maxrss`` the peak of one repetition.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_package():
    """Import hilb2gw from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import hilb2gw

    if not os.path.abspath(hilb2gw.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hilb2gw imported from {hilb2gw.__file__}, not {SRC}")
    return hilb2gw


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction arithmetic (host speed probe)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 20001):
        acc += Fraction(k % 7 + 1, k % 5 + 1) * Fraction(3, k % 11 + 1)
    dt = time.perf_counter() - t0
    if acc <= 0:  # consume the result
        raise AssertionError("calibration loop went wrong")
    return dt


def rep(spec, pkg) -> dict:
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer().install()
    pkg.hilb_datum()
    engine = pkg.Engine()
    setup_s = time.perf_counter() - T0
    from workloads import WORKLOADS, Checks

    calib_s = calibrate()
    workload = WORKLOADS[spec["workload"]](**spec.get("params", {}))
    checks = Checks()
    samples = []
    error = None
    try:
        workload.run(engine, spec["seed"], checks, samples, spec.get("ctx", {}))
    except Exception as exc:  # a failing run is recorded with every check failed
        error = f"{type(exc).__name__}: {exc}"
        checks.attempted = max(checks.attempted, workload.checks_per_rep())
        checks.failed = checks.attempted
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_s": setup_s,
        "calib_s": calib_s,
        "samples": samples,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes,
        "error": error,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "backend": pkg.rationals.Rat.__module__,
        "python": platform.python_version(),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["phase_self_s"] = tracer.phase_self_s()
        out["absent"] = tracer.absent
    return out


def main(spec) -> dict:
    pkg = import_package()
    mode = spec["mode"]
    if mode == "setup":
        pkg.hilb_datum()
        pkg.Engine()
        return {"setup_s": time.perf_counter() - T0}
    if mode == "prep":
        from workloads import WORKLOADS

        WORKLOADS[spec["workload"]](**spec.get("params", {})).prepare(spec["path"])
        return {"ok": True}
    return rep(spec, pkg)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
