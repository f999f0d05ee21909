#!/usr/bin/env python3
"""Why the chained Lorenz benchmark resists this estimator family.

Two measurements, both on the three diffusively chained Lorenz systems:

1. The pruning statistic (entropy drop epsilon) of every directed pair at
   the standard configuration, next to the same statistic for fully
   independent systems (coupling 0). At step-level sampling the independent
   systems already show epsilon far above typical delta because ordinal
   patterns persist for ~d consecutive steps and the plug-in estimator's
   bias floor scales with the inverse of the effective sample count.

2. The same comparison after subsampling (default stride 30), where the
   bias floor drops below delta, the independent control comes out empty,
   and the true chain direction is statistically indistinguishable from its
   reversal: deterministic flows carry as much lagged symbol information
   backward as forward.

Usage:
    python3 scripts/lorenz_analysis.py [--T 10000] [--seeds 5] [--stride 30]
"""

import argparse
import sys

import numpy as np

from opcausal import DelayGrid, EmbeddingParams, simulate_lorenz_chain
from opcausal.causal import evidence_table, lowest_ce_per_pair
from opcausal.ordinal import decimate

PAIRS = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]


def epsilon_table(series, params, grid):
    """{pair: epsilon at the pair's lowest-CE candidate lag, or None}."""
    best = lowest_ce_per_pair(evidence_table(series, params, grid).rows)
    return {pair: best[pair].epsilon if pair in best else None for pair in PAIRS}


def report(label, tables):
    print(f"\n{label}")
    print(f"{'pair':>8} {'epsilon mean':>13} {'epsilon std':>12}")
    for pair in PAIRS:
        vals = [t[pair] for t in tables if t[pair] is not None]
        tag = "true " if pair in ((0, 1), (1, 2)) else "     "
        if vals:
            print(f"{tag}{pair[0]}->{pair[1]:<3} {np.mean(vals):>13.4f} {np.std(vals):>12.4f}")
        else:
            print(f"{tag}{pair[0]}->{pair[1]:<3} {'no candidate':>13}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=10_000)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--stride", type=int, default=30)
    args = parser.parse_args()

    grid = DelayGrid(range(1, 11))
    step_params = EmbeddingParams(m=3, d=100)
    sub_params = EmbeddingParams(m=3, d=3)

    for c, label in ((0.6, "coupled chain (c=0.6)"), (0.0, "independent control (c=0)")):
        step_tables = []
        sub_tables = []
        for seed in range(args.seeds):
            series, _ = simulate_lorenz_chain(args.T, c=c, seed=seed)
            step_tables.append(epsilon_table(series, step_params, grid))
            long_series, _ = simulate_lorenz_chain(args.T * args.stride, c=c, seed=seed)
            sub_tables.append(
                epsilon_table(decimate(long_series, args.stride), sub_params, grid)
            )
        report(f"{label}, step-level sampling (d=100)", step_tables)
        report(f"{label}, stride {args.stride} subsampling (d=3)", sub_tables)

    print(
        "\nReading: at step level even the independent control sits far above "
        "typical delta (estimator bias, not coupling); after subsampling "
        "the control drops out but true and reversed directions coincide."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
