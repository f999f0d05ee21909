#!/usr/bin/env python3
"""Delta sweep on the nine-channel autoregressive benchmark.

Reproduces the headline operating point (delta = 0.15, T = 10^4) and the
shape of the delta sweep: TPR stays at 1 for small delta, FPR falls to zero
once delta clears the estimator noise floor.

Usage:
    python3 scripts/ar_benchmark.py [--T 10000] [--R 10] [--seed 42] [--NL 0.0] [--threads 1]
"""

import argparse
import sys

from opcausal import sweep


def _fmt(value: float | None, digits: int) -> str:
    """A mean, or "-" when no realization of the cell defined it."""
    return "-" if value is None else f"{value:.{digits}f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=10_000)
    parser.add_argument("--R", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--NL", type=float, default=0.0, help="observation noise level")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    deltas = [0.02, 0.05, 0.10, 0.15, 0.20, 0.30]
    result = sweep(
        "ar",
        {"delta": deltas, "T": [args.T], "NL": [args.NL]},
        n_realizations=args.R,
        base_seed=args.seed,
        max_workers=args.threads,
    )
    print(f"{'delta':>6} {'TPR':>7} {'FPR':>8} {'F1':>7}   (R={args.R}, T={args.T}, NL={args.NL})")
    for cell in result.cells:
        s = cell.stats
        print(
            f"{cell.params['delta']:>6.2f} {_fmt(s['tpr_mean'], 3):>7} "
            f"{_fmt(s['fpr_mean'], 4):>8} {_fmt(s['f1_mean'], 3):>7}"
        )
        for err in cell.errors:
            print(f"       error: {err}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
