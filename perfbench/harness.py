"""Closed loop with one client: set up, then run items until time is up.

Untraced runs give the end-to-end metrics. Traced runs give the per-layer
metrics: each item runs twice, once untraced and once traced, in
alternating order, and the paired difference is the tracing overhead.
Every timing is scaled to the reference speed by calib.Clock; the wall
times are kept alongside for the run record.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calib import Clock
from tracing import Tracer
from workloads import Workload

IMPORT_REPS = 15
SETUP_REPS = 3


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    wall_latencies: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    wall_setup_times: list[float] = field(default_factory=list)
    import_times: list[float] = field(default_factory=list)
    wall_import_times: list[float] = field(default_factory=list)
    f1: list[float] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    Below 20 samples that percentile would not reach the median, so the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# Imports opcausal in a fresh interpreter, timed by an import-shaped probe;
# numpy and the probe are loaded first and not counted.
IMPORT_CHILD = """
import importlib, json, sys
sys.path[:0] = sys.argv[1:3]
from calib import import_clock
_, wall, scale = import_clock().time(importlib.import_module, "opcausal")
print(json.dumps([wall, scale]))
"""


def import_probe(src: Path) -> tuple[float, float]:
    """(wall seconds, scale) of one fresh-interpreter import of opcausal,
    the import each CLI invocation pays."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD, str(Path(__file__).resolve().parent), str(src)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    wall, scale = json.loads(out.stdout)
    return wall, scale


def _setup(workload: Workload, seed: int, workdir: Path, src: Path, run: Run, clock, tracer):
    """Time set-up as the median of IMPORT_REPS fresh-interpreter imports of
    opcausal plus the median of SETUP_REPS workload set-ups.

    The import is timed inside the child, since the speed probe of this
    process cannot see another process, and the speed of the two cores
    changes independently. Single imports spread by about 0.12 of their
    median, hence the many repetitions.
    """
    imports = [import_probe(src) for _ in range(IMPORT_REPS)]
    run.import_times = [wall * scale for wall, scale in imports]
    run.wall_import_times = [wall for wall, _ in imports]

    def prepare(rep, input_seed):
        if tracer is None:
            return workload.setup(input_seed, workdir)
        tracer.install(f"setup-{rep}")
        try:
            return workload.setup(input_seed, workdir)
        finally:
            tracer.uninstall()

    input_seed, _ = workload.item_input(seed, 0)
    state = None
    for rep in range(SETUP_REPS):
        state, wall, scale = clock.time(prepare, rep, input_seed)
        run.wall_setup_times.append(wall)
        run.setup_times.append(wall * scale)
        if tracer is not None:
            tracer.scales[f"setup-{rep}"] = scale
    return state


def _item(workload, state, input_seed, expected, run: Run, clock: Clock):
    """Run one item and check its digest; return its wall time and scale."""

    def attempt():
        try:
            return workload.run_item(state, input_seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return None

    result, wall, scale = clock.time(attempt)
    run.attempted += 1
    if result is None or result.digest != expected:
        run.failed += 1
        if result is not None:
            print(
                f"{workload.name}: input {input_seed} gave edge hash {result.digest}, "
                f"reference {expected}",
                file=sys.stderr,
            )
    else:
        run.f1.extend(result.f1)
    return wall, scale


def measure(
    workload: Workload, seed: int, seconds: float, workdir: Path, src: Path, tracer=None
) -> Run:
    """Set up, then run items for about `seconds` of wall time.

    An item starts while its expected midpoint falls within the run, so
    runs end on average at `seconds` whatever the item length.
    """
    run = Run()
    clock = Clock(on_sample=tracer.record_probe if tracer else None)
    state = _setup(workload, seed, workdir, src, run, clock, tracer)
    loop_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - loop_start + _expected(run) / 2 <= seconds:
        input_seed, expected = workload.item_input(seed, k)
        if tracer is None:
            wall, scale = _item(workload, state, input_seed, expected, run, clock)
            run.wall_latencies.append(wall)
            run.latencies.append(wall * scale)
        else:
            _traced_pair(workload, state, input_seed, expected, run, clock, tracer, k)
        k += 1
    run.calibration_s = clock.readings
    return run


def _expected(run: Run) -> float:
    """Expected wall time of the next loop step."""
    per_item = statistics.median(run.wall_latencies)
    return 2.0 * per_item if run.overheads else per_item


def _traced_pair(workload, state, input_seed, expected, run, clock, tracer: Tracer, k):
    scaled = {}
    for traced in ((False, True) if k % 2 == 0 else (True, False)):
        if traced:
            tracer.install(f"item-{k}")
            try:
                wall, scale = _item(workload, state, input_seed, expected, run, clock)
            finally:
                tracer.uninstall()
            tracer.scales[f"item-{k}"] = scale
        else:
            wall, scale = _item(workload, state, input_seed, expected, run, clock)
            run.wall_latencies.append(wall)
            run.latencies.append(wall * scale)
        scaled[traced] = wall * scale
    run.overheads.append((scaled[True] - scaled[False]) / scaled[False])


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timings(latencies, imports, setups) -> dict[str, float]:
    n = len(latencies)
    return {
        "items_per_s": n / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(latencies)[0],
        "setup_s": statistics.median(imports) + statistics.median(setups),
    }


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metric values, and a note on the samples behind each.

    The notes give each timing in wall seconds too: a gain in reference
    seconds that is absent from wall time is the probe's, not the program's.
    """
    n = len(run.latencies)
    values = _timings(run.latencies, run.import_times, run.setup_times)
    wall = _timings(run.wall_latencies, run.wall_import_times, run.wall_setup_times)
    notes = {
        "items_per_s": f"{n} items",
        "latency_p50_s": f"median of {n} items",
        "latency_tail_s": f"p{tail(run.latencies)[1]:.1f} of {n} items",
        "setup_s": f"median of {len(run.import_times)} imports + median of "
        f"{len(run.setup_times)} set-ups",
    }
    for name in wall:
        notes[name] += f"; wall {wall[name]:.6g}"
    values["peak_rss_mb"] = peak_rss_mb()
    values["f1_mean"] = statistics.fmean(run.f1) if run.f1 else 0.0
    notes["peak_rss_mb"] = "whole process"
    notes["f1_mean"] = f"mean of {len(run.f1)} scored networks"
    return values, notes
