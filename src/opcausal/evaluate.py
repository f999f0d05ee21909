"""Scoring, parameter sweeps, and windowed time-varying analysis.

Inferred networks are scored against ground truth either delay-sensitively
(an edge at the wrong lag counts as one false positive plus one false
negative) or by pair identity alone. The sweep harness runs seeded
realizations through simulate -> noise -> infer -> score and aggregates
TPR/FPR/F1 per grid cell; seeds are derived from the cell's parameter
values, so enlarging a grid never changes existing cells.
"""

from __future__ import annotations

import hashlib
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .causal import CausalNetwork, infer_network
from .entropy import DelayGrid
from .errors import ChannelMismatch, WindowTooShort
from .ordinal import EmbeddingParams, MultivariateSeries, decimate
from .simulate import (
    GroundTruth,
    NmmConfig,
    add_observation_noise,
    simulate_ar,
    simulate_lorenz_chain,
    simulate_nmm,
)


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass
class Metrics:
    """TPR/FPR/F1; a None marks an undefined (zero-denominator) value."""

    tpr: float | None
    fpr: float | None
    f1: float | None


def score(
    inferred: CausalNetwork,
    truth: GroundTruth,
    n_channels: int,
    delays: DelayGrid,
    delay_sensitive: bool = True,
) -> ConfusionCounts:
    """Confusion counts of the inferred edge set over the scored grid.

    Delay-sensitive: universe is ordered pairs x grid delays, an edge matches
    only if source, target and delay all agree. Otherwise the universe is the
    ordered pairs and any-delay matches count.
    """
    for src, tgt, _ in truth.edges:
        if not (0 <= src < n_channels and 0 <= tgt < n_channels):
            raise ChannelMismatch(
                f"ground-truth channel out of range for {n_channels} channels"
            )
    for e in inferred.edges:
        if not (0 <= e.source < n_channels and 0 <= e.target < n_channels):
            raise ChannelMismatch("inferred channel out of range")

    if delay_sensitive:
        got = inferred.edge_triples()
        want = truth.triples()
        universe = n_channels * (n_channels - 1) * len(delays)
    else:
        got = inferred.edge_pairs()
        want = truth.pairs()
        universe = n_channels * (n_channels - 1)

    tp = len(got & want)
    fp = len(got - want)
    fn = len(want - got)
    # an edge at a delay off the grid still counts as FP or FN, but it is no
    # cell of the universe, so it does not reduce TN
    in_universe = got | want
    if delay_sensitive:
        in_universe = {e for e in in_universe if e[2] in delays.delays}
    tn = universe - len(in_universe)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(counts: ConfusionCounts) -> Metrics:
    def ratio(num, den):
        return num / den if den > 0 else None

    return Metrics(
        tpr=ratio(counts.tp, counts.tp + counts.fn),
        fpr=ratio(counts.fp, counts.fp + counts.tn),
        f1=ratio(counts.tp, counts.tp + 0.5 * (counts.fp + counts.fn)),
    )


@dataclass
class SweepCell:
    """One grid point with mean/std of every metric over its realizations."""

    params: dict[str, Any]
    n_realizations: int
    seeds: list[int]
    tpr_mean: float | None
    tpr_std: float | None
    fpr_mean: float | None
    fpr_std: float | None
    f1_mean: float | None
    f1_std: float | None
    errors: list[str] = field(default_factory=list)


@dataclass
class SweepResult:
    system: str
    base_seed: int
    cells: list[SweepCell]


def derive_seed(base_seed: int, cell_params: dict[str, Any], realization: int) -> int:
    """Seed derived from the cell's parameter values, stable under grid growth."""
    key = repr((sorted(cell_params.items()), realization)).encode()
    digest = hashlib.sha256(key).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF

DEFAULT_AR_DELAYS = DelayGrid(range(1, 11))


def run_realization(
    system: str,
    cell: dict[str, Any],
    seed: int,
    nmm_config: NmmConfig | None = None,
) -> Metrics:
    """simulate -> observation noise -> infer -> score for a single seed."""
    t = int(cell.get("T", 10_000))
    nl = float(cell.get("NL", 0.0))
    lam = float(cell.get("lambda", 0.995))
    delta = float(cell.get("delta", 0.15))
    m = int(cell.get("M", 3))
    d = int(cell.get("d", 100))
    r_max = int(cell.get("r_max", 3))

    factor = int(cell.get("decimate", 1))
    one_delay_per_pair = bool(cell.get("one_delay_per_pair", False))

    if system == "ar":
        series, truth = simulate_ar(t, seed)
        delays = DelayGrid(cell.get("delays", DEFAULT_AR_DELAYS.delays))
        delay_sensitive = True
    elif system == "lorenz":
        series, truth = simulate_lorenz_chain(t, c=float(cell.get("c", 0.6)), seed=seed)
        delays = DelayGrid(cell.get("delays", DEFAULT_AR_DELAYS.delays))
        delay_sensitive = False
    elif system == "nmm":
        if nmm_config is None:
            raise ValueError("nmm sweeps require an NmmConfig")
        series, truth = simulate_nmm(
            nmm_config, float(cell.get("K", 5.0)), t, seed
        )
        d = int(cell.get("d", 1))
        # Subsample so one pattern spans the synaptic response timescale;
        # at the raw rate the 3-sample patterns are far shorter than the
        # kernel and the estimator cannot separate direct from shared drive.
        factor = int(cell.get("decimate", 5))
        one_delay_per_pair = bool(cell.get("one_delay_per_pair", True))
        fs = nmm_config.sample_rate / factor
        lo = max(int(round(10.0 * fs / 1000.0)), 1)
        hi = int(round(100.0 * fs / 1000.0))
        delays = DelayGrid(cell.get("delays", range(lo, hi + 1)))
        delay_sensitive = True
    else:
        raise ValueError(f"unknown system {system!r}")

    noisy = add_observation_noise(series, nl, seed + 1)
    if factor > 1:
        noisy = decimate(noisy, factor)
        truth = GroundTruth(
            edges=[(s, tg, max(1, int(round(dl / factor)))) for s, tg, dl in truth.edges],
            description=truth.description,
        )
    network = infer_network(
        noisy,
        EmbeddingParams(m=m, d=d),
        delays,
        lam=lam,
        delta=delta,
        r_max=r_max,
        one_delay_per_pair=one_delay_per_pair,
    )
    counts = score(network, truth, series.n_channels, delays, delay_sensitive)
    return metrics(counts)


def _aggregate(values: list[float | None]) -> tuple[float | None, float | None]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None
    arr = np.asarray(defined, dtype=float)
    return float(arr.mean()), float(arr.std())


def _run_cell(args) -> SweepCell:
    system, cell_params, n_realizations, base_seed, nmm_config = args
    seeds = [derive_seed(base_seed, cell_params, i) for i in range(n_realizations)]
    results: list[Metrics] = []
    errors: list[str] = []
    for s in seeds:
        try:
            results.append(run_realization(system, cell_params, s, nmm_config))
        except Exception as exc:  # recorded, not fatal, per cell contract
            errors.append(f"seed {s}: {exc}")
    tpr_mean, tpr_std = _aggregate([r.tpr for r in results])
    fpr_mean, fpr_std = _aggregate([r.fpr for r in results])
    f1_mean, f1_std = _aggregate([r.f1 for r in results])
    return SweepCell(
        params=dict(cell_params),
        n_realizations=len(results),
        seeds=seeds,
        tpr_mean=tpr_mean,
        tpr_std=tpr_std,
        fpr_mean=fpr_mean,
        fpr_std=fpr_std,
        f1_mean=f1_mean,
        f1_std=f1_std,
        errors=errors,
    )


def sweep(
    system: str,
    grid: dict[str, list],
    n_realizations: int,
    base_seed: int,
    nmm_config: NmmConfig | None = None,
    max_workers: int = 1,
) -> SweepResult:
    """Evaluate every cell of the cartesian product of the grid axes."""
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if n_realizations < 1:
        raise ValueError("need at least one realization per cell")
    axes = sorted(grid)
    cells = [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]
    tasks = [(system, c, n_realizations, base_seed, nmm_config) for c in cells]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            cell_results = list(pool.map(_run_cell, tasks))
    else:
        cell_results = [_run_cell(t) for t in tasks]
    return SweepResult(system=system, base_seed=base_seed, cells=cell_results)


@dataclass
class WindowEntry:
    window_mid_s: float
    source: int
    target: int
    delay: int
    strength: float


@dataclass
class WindowedCoupling:
    window_s: float
    overlap: float
    entries: list[WindowEntry]
    midpoints_s: list[float]


def windowed_analysis(
    series: MultivariateSeries,
    window_s: float,
    overlap: float,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = 0.995,
    delta: float = 0.1,
    r_max: int = 3,
) -> WindowedCoupling:
    """Per-window inference with strengths normalized over the recording.

    Each window's surviving links are converted to strengths h_max - CE and
    divided by the maximum strength over all windows; if no link survives
    anywhere, all strengths stay zero.
    """
    if series.sample_rate is None:
        raise ValueError("windowed analysis requires a sample rate")
    if not (0.0 <= overlap < 1.0):
        raise ValueError("overlap must be in [0, 1)")
    fs = series.sample_rate
    win_len = int(round(window_s * fs))
    min_len = params.span + delays.max_delay + 2
    if win_len < min_len:
        raise WindowTooShort(
            f"window of {win_len} samples is too short; minimum is {min_len} samples "
            f"({min_len / fs:.3f} s)"
        )
    step = max(1, int(round(win_len * (1.0 - overlap))))

    raw: list[WindowEntry] = []
    midpoints: list[float] = []
    start = 0
    while start + win_len <= series.n_samples:
        chunk = MultivariateSeries(
            data=series.data[start : start + win_len],
            sample_rate=fs,
            channel_names=list(series.channel_names),
        )
        mid_s = (start + win_len / 2.0) / fs
        midpoints.append(mid_s)
        network = infer_network(chunk, params, delays, lam=lam, delta=delta, r_max=r_max)
        for e in network.edges:
            raw.append(
                WindowEntry(
                    window_mid_s=mid_s,
                    source=e.source,
                    target=e.target,
                    delay=e.delay,
                    strength=e.strength,
                )
            )
        start += step

    max_strength = max((e.strength for e in raw), default=0.0)
    if max_strength > 0:
        for e in raw:
            e.strength /= max_strength
    return WindowedCoupling(
        window_s=window_s, overlap=overlap, entries=raw, midpoints_s=midpoints
    )
