#!/usr/bin/env python3
"""Neural mass network: reproduction runs and the common-driver limitation.

Part 1 runs the full pipeline on the shipped reproduction configuration for
the documented seeds (vertex-disjoint graphs) and prints per-seed recovery.

Part 2 demonstrates the documented limitation: when two regions share a
common driver (a fork in the drawn graph), the driven siblings integrate
the driver's pulse density through identical synaptic kernels, and the
leftover dependence between them cannot be explained away by conditioning
on the driver's ordinal symbols at isolated lags. The sibling epsilon stays
above any delta that keeps the true links, so fork graphs always yield
false positives. Graphs where the drawn edges share endpoints are the
common case (only about 3 in 40 draws are fully disjoint).

Usage:
    python3 scripts/nmm_analysis.py [--T 50000] [--delta 0.10]
"""

import argparse
import sys

import numpy as np

from opcausal import DelayGrid, reproduction_nmm_config, simulate_nmm
from opcausal.causal import evidence_table, lowest_ce_per_pair
from opcausal.evaluate import SYSTEMS, run_realization
from opcausal.ordinal import decimate

REPRODUCTION_SEEDS = (3, 29, 38)


def part1(cfg, args):
    print("reproduction runs (vertex-disjoint graphs)")
    for seed in REPRODUCTION_SEEDS:
        cell = {"T": args.T, "delta": args.delta, "lambda": 0.995, "K": 5.0}
        m = run_realization("nmm", cell, seed, cfg)
        _, truth = simulate_nmm(cfg, 5.0, 300, seed=seed)
        edges = ", ".join(f"{s}->{t}@{d}ms" for s, t, d in truth.edges)
        print(
            f"  seed {seed}: edges [{edges}]  TPR {m.tpr:.2f}  FPR {m.fpr:.4f}"
            "  (delay-sensitive, grid 10-100 ms)"
        )


def part2(cfg, args):
    print("\ncommon-driver (fork) limitation, adjacency 0->4 and 0->5")
    adj = np.zeros((8, 8))
    adj[4, 0] = adj[5, 0] = 1.0
    series, _ = simulate_nmm(cfg, 5.0, args.T, seed=0, adjacency=adj)
    nmm = SYSTEMS["nmm"]
    dec = decimate(series, nmm.decimate)
    table = evidence_table(dec, nmm.params, DelayGrid(nmm.delays(dec.sample_rate)))
    best = lowest_ce_per_pair(table.rows)
    rows = [(0, 4, "true"), (0, 5, "true"), (4, 5, "sibling"), (5, 4, "sibling"), (1, 2, "unrelated")]
    print(f"  {'pair':>10} {'kind':>10} {'best lag (ms)':>14} {'epsilon':>9}")
    for src, tgt, kind in rows:
        row = best.get((src, tgt))
        if row is None:
            print(f"  {src:>5}->{tgt:<3} {kind:>10} {'no candidate':>14}")
            continue
        ms = row.delay * 1000.0 / dec.sample_rate
        print(f"  {src:>5}->{tgt:<3} {kind:>10} {ms:>14.0f} {row.epsilon:>9.3f}")
    print(
        f"\n  Reading: sibling epsilon exceeds the true links' range, so no "
        f"delta can prune 4<->5 while keeping 0->4 and 0->5; delta={args.delta} "
        "keeps all of them and the siblings are false positives."
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=50_000)
    parser.add_argument("--delta", type=float, default=0.10)
    args = parser.parse_args()
    cfg = reproduction_nmm_config()
    part1(cfg, args)
    part2(cfg, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
