"""Scoring, parameter sweeps, and windowed time-varying analysis.

Inferred networks are scored against ground truth either delay-sensitively
(an edge at the wrong lag counts as one false positive plus one false
negative) or by pair identity alone. The sweep harness runs seeded
realizations through simulate -> noise -> infer -> score and aggregates
TPR/FPR/F1 per grid cell; seeds are derived from the cell's parameter
values, so enlarging a grid never changes existing cells. `SYSTEMS` is the
one place that knows each benchmark system: its simulator and the cell
defaults the pipeline runs it with.
"""

from __future__ import annotations

import hashlib
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .causal import CausalNetwork, infer_network
from .entropy import DEFAULT_DELTA, DEFAULT_LAMBDA, DEFAULT_R_MAX, DelayGrid
from .errors import ChannelMismatch, WindowTooShort
from .ordinal import EmbeddingParams, MultivariateSeries, decimate
from .simulate import (
    GroundTruth,
    NmmConfig,
    add_observation_noise,
    reproduction_nmm_config,
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
    """One grid point with mean/std of every metric over its realizations.

    `stats` is keyed tpr_mean, tpr_std, fpr_mean, fpr_std, f1_mean, f1_std.
    """

    params: dict[str, Any]
    n_realizations: int
    seeds: list[int]
    stats: dict[str, float | None]
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


@dataclass(frozen=True)
class System:
    """What the harness knows of one benchmark system.

    `simulate(cell, seed, nmm_config)` reads the cell keys in `reads`, which
    holds their defaults; `delays(fs)` is the default delay grid at the sample
    rate left after decimation. The rest are the cell defaults for the pipeline.
    """

    reads: dict[str, float]
    simulate: Callable[
        [dict[str, Any], int, NmmConfig | None], tuple[MultivariateSeries, GroundTruth]
    ]
    delays: Callable[[float | None], range]
    decimate: int
    d: int
    delay_sensitive: bool
    one_delay_per_pair: bool


def _first_ten_samples(fs: float | None) -> range:
    return range(1, 11)


def _ten_to_hundred_ms(fs: float) -> range:
    return range(max(int(round(10.0 * fs / 1000.0)), 1), int(round(100.0 * fs / 1000.0)) + 1)


SYSTEMS: dict[str, System] = {
    "ar": System(
        reads={"T": 10_000},
        simulate=lambda cell, seed, _: simulate_ar(int(cell["T"]), seed),
        delays=_first_ten_samples,
        decimate=1,
        d=100,
        delay_sensitive=True,
        one_delay_per_pair=False,
    ),
    "lorenz": System(
        reads={"T": 10_000, "c": 0.6},
        simulate=lambda cell, seed, _: simulate_lorenz_chain(
            int(cell["T"]), c=float(cell["c"]), seed=seed
        ),
        delays=_first_ten_samples,
        decimate=1,
        d=100,
        delay_sensitive=False,
        one_delay_per_pair=False,
    ),
    # Subsampled so one pattern spans the synaptic response timescale; at the
    # raw rate the 3-sample patterns are far shorter than the kernel and the
    # estimator cannot separate direct from shared drive.
    "nmm": System(
        reads={"T": 10_000, "K": 5.0},
        simulate=lambda cell, seed, cfg: simulate_nmm(
            reproduction_nmm_config() if cfg is None else cfg,
            float(cell["K"]),
            int(cell["T"]),
            seed,
        ),
        delays=_ten_to_hundred_ms,
        decimate=5,
        d=1,
        delay_sensitive=True,
        one_delay_per_pair=True,
    ),
}

# the cell keys run_realization reads for every system
_PIPELINE_KEYS = frozenset(
    ("NL", "decimate", "delays", "M", "d", "lambda", "delta", "r_max", "one_delay_per_pair")
)


def _system(name: str, keys) -> System:
    """SYSTEMS[name], after checking that some part of a cell reads each key."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}")
    unread = sorted(set(keys) - _PIPELINE_KEYS - set(SYSTEMS[name].reads))
    if unread:
        raise ValueError(f"system {name!r} reads no cell key {', '.join(unread)}")
    return SYSTEMS[name]


def run_realization(
    system: str,
    cell: dict[str, Any],
    seed: int,
    nmm_config: NmmConfig | None = None,
) -> Metrics:
    """simulate -> observation noise -> infer -> score for a single seed.

    For "nmm", a `nmm_config` of None means the reproduction configuration.
    A cell key that no part of the pipeline reads raises ValueError.
    """
    spec = _system(system, cell)
    series, truth = spec.simulate({**spec.reads, **cell}, seed, nmm_config)
    noisy = add_observation_noise(series, float(cell.get("NL", 0.0)), seed + 1)
    factor = int(cell.get("decimate", spec.decimate))
    if factor > 1:
        noisy = decimate(noisy, factor)
        truth = GroundTruth(
            edges=[(s, tg, max(1, int(round(dl / factor)))) for s, tg, dl in truth.edges],
            description=truth.description,
        )
    delays = DelayGrid(cell.get("delays", spec.delays(noisy.sample_rate)))
    network = infer_network(
        noisy,
        EmbeddingParams(m=int(cell.get("M", 3)), d=int(cell.get("d", spec.d))),
        delays,
        lam=float(cell.get("lambda", DEFAULT_LAMBDA)),
        delta=float(cell.get("delta", DEFAULT_DELTA)),
        r_max=int(cell.get("r_max", DEFAULT_R_MAX)),
        one_delay_per_pair=bool(cell.get("one_delay_per_pair", spec.one_delay_per_pair)),
    )
    counts = score(network, truth, series.n_channels, delays, spec.delay_sensitive)
    return metrics(counts)


def _stats(results: list[Metrics]) -> dict[str, float | None]:
    """Mean and std of each metric over the realizations where it is defined."""
    stats: dict[str, float | None] = {}
    for name in ("tpr", "fpr", "f1"):
        defined = [v for v in (getattr(r, name) for r in results) if v is not None]
        arr = np.asarray(defined, dtype=float)
        stats[f"{name}_mean"] = float(arr.mean()) if defined else None
        stats[f"{name}_std"] = float(arr.std()) if defined else None
    return stats


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
    return SweepCell(
        params=dict(cell_params),
        n_realizations=len(results),
        seeds=seeds,
        stats=_stats(results),
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
    _system(system, grid)  # an unread axis fails before any realization runs
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
    lam: float = DEFAULT_LAMBDA,
    delta: float = DEFAULT_DELTA,
    r_max: int = DEFAULT_R_MAX,
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
