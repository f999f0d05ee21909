"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For a small AR input, a small NMM input and a small wide CSV it checks that
  - the traced, layer-by-layer run gives the same edge hashes as the
    untraced run through infer_network (and the CLI);
  - every layer the workload reaches records spans, and the exact counts
    agree with the sizes of the input;
  - every metric of BENCHMARK.json is printed with its unit, traced and not.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys

import run


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")
    print(f"ok  {what}")


def _report(workload, trace: int) -> tuple[dict, str]:
    args = argparse.Namespace(workload=workload.name, seed=0, seconds=0.0, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(workload, args)
    return result, out.getvalue()


def check_workload(workload, seeds, spec, expect_layers, expect_counts) -> None:
    import workloads

    workdir = run.BENCH / "_work" / f"selftest-{workload.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.pool = workloads.reference_digests(workload, seeds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{workload.name} (T={workload.T})"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = _report(workload, trace)
        _check(
            result["correct"] and result["failed"] == 0,
            f"{name} trace={trace}: every item matches the untraced hash",
        )
        last = json.loads(printed.strip().splitlines()[-1])
        _check(last == json.loads(json.dumps(result)), f"{name} trace={trace}: last line is the result")
        declared = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in last["metrics"].items()}
        _check(got == declared, f"{name} trace={trace}: every {key} metric with its unit")
        _check(
            all(f"  {n} " in printed for n in declared),
            f"{name} trace={trace}: every {key} metric printed by name",
        )
    metrics = {n: m["value"] for n, m in last["metrics"].items()}
    for layer in expect_layers:
        _check(metrics[f"{layer}.busy_s"] > 0, f"{name}: layer {layer} recorded spans")
    for count, value in expect_counts.items():
        _check(metrics[count] == value, f"{name}: {count} = {value} (got {metrics[count]})")
    _check(
        metrics["causal.ce_given_set_calls"] == 2 * metrics["causal.candidates"],
        f"{name}: two conditioned entropies per candidate",
    )
    _check(
        0 < metrics["causal.h_base_distinct"] <= metrics["causal.candidates"],
        f"{name}: distinct h_base triples within the candidate count",
    )


def main() -> None:
    if not run.prepare():
        sys.exit(2)
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    core = ["ordinal", "entropy.ce_tensor", "entropy.threshold", "causal.prune", "causal.infer"]

    t = 2_000
    check_workload(
        workloads.ArSweep(T=t),
        [11, 12],
        spec,
        ["simulate", *core, "evaluate.score"],
        {
            "simulate.steps": t + 500,
            "ordinal.symbols": (t - 200) * 9,
            "entropy.ce_tensor.cells": 9 * 8 * 10,
            "entropy.ce_tensor.bytes_computed": 16 * 9 * 8 * sum(t - 200 - tau for tau in range(1, 11)),
        },
    )
    t = 6_000
    n_sym = t // 5 - 2  # decimated by 5, then m=3, d=1 patterns
    check_workload(
        workloads.NmmDelta(T=t),
        [3],
        spec,
        ["simulate", *core, "evaluate.score"],
        {
            "simulate.steps": t + 2_000,
            "ordinal.symbols": 3 * n_sym * 8,
            "entropy.ce_tensor.cells": 3 * 8 * 7 * 19,
        },
    )
    t = 1_500
    check_workload(
        workloads.WideInfer(T=t),
        [0],
        spec,
        ["simulate", *core, "evaluate.score", "cli.read_csv", "cli.write_csv", "cli.write_json"],
        {"simulate.steps": t + 500, "entropy.ce_tensor.cells": 36 * 35 * 10},
    )
    print("selftest passed")


if __name__ == "__main__":
    main()
