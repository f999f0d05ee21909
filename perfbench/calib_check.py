"""Check that the speed probe does not depend on the work it interrupts.

    python3 perfbench/calib_check.py [--seconds 90]

Times two kinds of call in alternation with calib.Clock, on BLAS and OpenMP
pools capped as in run.py:
  - blas: float32 products of a one-hot symbol matrix (20000 x 216, 17 MB)
    with itself at 30 lags, the shape of a matrix-product ce_tensor, on 2
    BLAS threads;
  - numpy: 1500 joint histograms by bincount on one thread, the shape of
    the current ce_tensor.
If the probe measured only the machine, both kinds would get the same scale
in the same period, so the median of the paired ratio
scale(blas) / scale(numpy) would be 1. Below 1, a program that moves work
into BLAS is credited with a gain it does not have in wall time.
"""

from __future__ import annotations

import argparse
import statistics
import time

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=90.0)
    args = parser.parse_args()
    run.cap_threads()

    import numpy as np

    from calib import Clock

    rng = np.random.default_rng(0)
    codes = rng.integers(0, 6, (20_000, 36))
    onehot = np.zeros((20_000, 216), np.float32)
    onehot[np.arange(20_000)[:, None], codes + 6 * np.arange(36)] = 1.0

    def entropy(counts):
        p = counts[counts > 0] / counts.sum()
        return float(-(p * np.log2(p)).sum())

    def blas():
        for tau in range(1, 31):
            entropy(onehot[:-tau].T @ onehot[tau:])

    def numpy_loop():
        for tau in range(1, 1501):
            entropy(np.bincount(codes[:-tau, 1] * 6 + codes[tau:, 2], minlength=36))

    clock = Clock()
    scales = {"blas": [], "numpy": []}
    walls = {"blas": [], "numpy": []}
    end = time.perf_counter() + args.seconds
    k = 0
    while k < 4 or time.perf_counter() < end:
        for name in ("blas", "numpy") if k % 2 == 0 else ("numpy", "blas"):
            _, wall, scale = clock.time(blas if name == "blas" else numpy_loop)
            scales[name].append(scale)
            walls[name].append(wall)
        k += 1
    for name in scales:
        print(
            f"{name:6s} {len(walls[name])} calls  median wall {statistics.median(walls[name]):.4f} s"
            f"  median scale {statistics.median(scales[name]):.4f}"
        )
    ratios = [b / n for b, n in zip(scales["blas"], scales["numpy"])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print(f"scale(blas) / scale(numpy), paired: median {q2:.3f}, quartiles {q1:.3f} {q3:.3f}")


if __name__ == "__main__":
    main()
