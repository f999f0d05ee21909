"""Run one opcausal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ar_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. The lines before it give each metric with its unit and sample count,
then the run record. Traced runs also write their spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_THREADS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["ar_sweep", "nmm_delta", "wide_infer"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def cap_threads() -> None:
    """Keep BLAS and OpenMP pools within the cores this process may use."""
    n = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_version(np) -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def run_record(args, np, run, notes) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version(np),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "items_attempted": run.attempted,
        "items_failed": run.failed,
        "fail_frac": run.failed / run.attempted,
        "samples": notes,
        "reference_speed": "times scaled by calib.REF_S / calibration kernel time",
        "import_s_scaled": run.import_times,
        "import_s_wall": run.wall_import_times,
        "setup_s_scaled": run.setup_times,
        "setup_s_wall": run.wall_setup_times,
        "item_latency_s_scaled": run.latencies,
        "item_latency_s_wall": run.wall_latencies,
        "calibration_kernel_s": run.calibration_s,
    }


def prepare() -> bool:
    """Cap threads and put the checkout's src/ first on the import path."""
    cap_threads()
    if not (SRC / "opcausal" / "__init__.py").is_file():
        print(f"error: no opcausal package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    # the same filter the test suite applies; the warning repeats for every
    # small conditioning set and would flood the log
    warnings.filterwarnings(
        "ignore", "only .* samples for .* joint conditioning states", RuntimeWarning
    )
    return True


def report(workload, args) -> dict:
    """Measure one workload, print its metrics and return the result object."""
    import numpy as np

    import harness
    from tracing import Tracer

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workdir = BENCH / "_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        run = harness.measure(workload, args.seed, args.seconds, workdir, SRC, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, notes = harness.end_to_end(run)
    else:
        values = tracer.layer_metrics()
        values["trace.overhead_frac"] = statistics.median(run.overheads)
        spans_path = tracer.write(BENCH / "out", workload.name, args.seed)
        notes = {
            "trace.overhead_frac": f"median over {len(run.overheads)} traced/untraced pairs",
            "spans": str(spans_path.relative_to(ROOT)),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    values = {name: values[name] for name in units}

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6f} {units[name]:6s} {notes.get(name, '')}")
    print(f"  fail_frac {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} items failed)")
    print(json.dumps({"run_record": run_record(args, np, run, notes)}))
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2
    import workloads

    report(workloads.load(args.workload), args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
