"""qlut benchmark: simulate, containment and report workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qlut is imported from ./src of this checkout.
One process, no extra threads.

--trace 0 times closed-loop calls for S seconds (whole passes of the
workload's deck) with tracing off and prints the end-to-end metrics.
--trace 1 runs a fixed call list sized from S twice, untraced and then
traced, prints the per-layer metrics from the spans and reports the
difference of the two totals as tracing overhead; the spans go to
perfbench/out/. The last stdout line is the JSON result in either mode.
"""
from __future__ import annotations

import os

# pinned before numpy loads so BLAS/OpenMP pools stay single-threaded
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
CAL_ITERS = 40_000
CAL_NOMINAL_S = 0.005  # the calibration loop's time at the reference host speed
QLUT_MODULES = ("cli", "builders", "layout", "params", "resources", "costs", "simulator")

sys.path.insert(0, str(HERE))
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_qlut() -> SimpleNamespace:
    """Fresh import of qlut from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "qlut" or m.startswith("qlut.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"qlut.{name}") for name in QLUT_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"qlut imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_ITERS):
        acc += i * i
        table[i & 255] = acc
    return time.perf_counter() - t0


def set_up(name: str, seed: int, work: Path, ref: dict):
    """Import, input generation and one warm-up call.

    Returns the workload, the seconds taken, the calibration time around
    them and whether the warm-up call passed its check.
    """
    before = calibrate()
    t0 = time.perf_counter()
    q = import_qlut()
    wl = WORKLOADS[name](q, seed, work, ref)
    item = wl.warm_up_item()
    out = wl.run(item)
    seconds = time.perf_counter() - t0
    speed = (before + calibrate()) / 2
    ok, _ = checked(wl, item, out)
    return wl, seconds, speed, ok


def checked(wl, item, out) -> tuple[bool, int]:
    """The workload's check; output it cannot parse fails the call."""
    try:
        return wl.check(item, out)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"check failed on {item!r}: {exc!r}", file=sys.stderr)
        return False, 0


def call(wl, item):
    t0 = time.perf_counter()
    out = wl.run(item)
    seconds = time.perf_counter() - t0
    ok, units = checked(wl, item, out)
    return seconds, ok, units


def run_calls(wl, items, stop=None, tracer=None) -> dict:
    """Closed loop of calls; `stop(n)` ends it after the n-th call.

    A calibration loop runs before the first call and after every call.
    The median of the three loops before a call and the three after it is
    the host speed the call ran at: it follows the host's drift over seconds
    but ignores a loop the scheduler interrupted. `calibrated` is each
    duration rescaled to the nominal speed.
    """
    durations, cal, units, failed = [], [calibrate()], 0, 0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.call_id = i
        dt, ok, n = call(wl, item)
        cal.append(calibrate())
        durations.append(dt)
        units += n
        failed += not ok
        if stop is not None and stop(i + 1):
            break
    calibrated = [dt * CAL_NOMINAL_S / statistics.median(cal[max(0, i - 2):i + 4])
                  for i, dt in enumerate(durations)]
    return {"durations": durations, "calibration": cal, "calibrated": calibrated,
            "units": units, "failed": failed}


def measure(wl, seconds: float) -> dict:
    """Whole passes of the deck until `seconds` have elapsed."""
    deadline = time.perf_counter() + seconds
    return run_calls(wl, (wl.item(i) for i in itertools.count()),
                     stop=lambda n: n % wl.pass_calls == 0 and time.perf_counter() >= deadline)


def summarize(durations, units) -> dict:
    tail_s, tail_pct = tail(durations)
    return {"units_per_s": units / sum(durations), "call_p50_s": statistics.median(durations),
            "call_tail_s": tail_s, "tail_percentile": tail_pct}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser(description="qlut benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ref = json.loads((HERE / "reference.json").read_text())
    # per process, so runs sharing a checkout never share config or log files
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, ref, work)
    finally:
        shutil.rmtree(work)


def run(args, ref: dict, work: Path) -> int:
    setups, setup_speeds, setup_ok = [], [], True
    for _ in range(SETUP_REPEATS):
        wl, seconds, speed, ok = set_up(args.workload, args.seed, work, ref)
        setups.append(seconds)
        setup_speeds.append(speed)
        setup_ok &= ok

    if args.trace:
        passes = math.ceil(args.seconds / 2 / wl.nominal_call_s / wl.pass_calls)
        items = [wl.item(i) for i in range(passes * wl.pass_calls)]
        plain = run_calls(wl, items)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_calls(wl, items, tracer=tracer)
        finally:
            tracer.restore()
        failed = plain["failed"] + traced["failed"]
        untraced_s = sum(plain["calibrated"])
        attempted = 2 * len(items)
        metrics = tracer.layer_metrics()
        metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": sum(traced["calibrated"]) - untraced_s,
                                       "unit": "s"}
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
        detail = {"calls": len(items), "absent_spans": tracer.absent}
    else:
        m = measure(wl, args.seconds)
        failed, attempted = m["failed"], len(m["durations"])
        raw = summarize(m["durations"], m["units"])
        calibrated = summarize(m["calibrated"], m["units"])
        setup_s = statistics.median(dt * CAL_NOMINAL_S / c
                                    for dt, c in zip(setups, setup_speeds))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "units_per_s": {"value": calibrated["units_per_s"], "unit": "1/s"},
            "call_p50_s": {"value": calibrated["call_p50_s"], "unit": "s"},
            "call_tail_s": {"value": calibrated["call_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        detail = {"calls": attempted, "units": m["units"], "unit": wl.unit,
                  "tail_percentile": raw["tail_percentile"], "uncalibrated": raw,
                  "call_s": m["durations"], "calibration_s": m["calibration"],
                  "setup_runs_s": setups, "setup_calibration_s": setup_speeds,
                  "calibration_nominal_s": CAL_NOMINAL_S}
    run_check = wl.finish()
    if not run_check["ok"]:
        # the run-level check pools every call, so none of them passed
        failed = attempted
    if not args.trace:
        metrics["ok_frac"] = {"value": (attempted - failed) / attempted, "unit": "fraction"}
    correct = setup_ok and failed == 0
    import numpy
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "run_check": run_check, "detail": detail, "instances": wl.instances,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "machine": platform.machine(),
                "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
                "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]},
        "metrics": metrics,
    }
    path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
