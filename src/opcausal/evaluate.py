"""Scoring, parameter sweeps, and windowed time-varying analysis.

Inferred networks are scored against ground truth either delay-sensitively
(an edge at the wrong lag counts as one false positive plus one false
negative) or by pair identity alone. The sweep harness runs seeded
realizations through simulate -> noise -> infer -> score and aggregates
TPR/FPR/F1 per grid cell. Seeds are derived from the cell's data keys, all
but lambda and delta, so enlarging a grid never changes existing cells, and
cells that differ only in lambda or delta share each realization. `SYSTEMS`
is the one place that knows each benchmark system: its simulator and the
fixed settings the pipeline runs it with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .causal import CausalNetwork, evidence_table, infer_network
from .entropy import DEFAULT_DELTA, DEFAULT_LAMBDA, DelayGrid
from .errors import ChannelMismatch, DegenerateSample, TruthOffGrid, WindowTooShort, check
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


def derive_seed(base_seed: int, cell_params: dict[str, Any], realization: int) -> int:
    """Seed derived from the cell's parameter values, stable under grid growth.

    A numpy scalar, as a cell value, base seed or realization, counts as the
    Python scalar it equals, so a grid built with np.arange or np.linspace
    seeds the cells its list twin does.
    """
    # imported here: hashlib maps OpenSSL's libcrypto, about 3.6 MB, and only seeds use it
    import hashlib

    def plain(v):
        return v.item() if isinstance(v, np.generic) else v

    cell = {k: plain(v) for k, v in cell_params.items()}
    key = repr((sorted(cell.items()), plain(realization))).encode()
    digest = hashlib.sha256(key).digest()
    return (plain(base_seed) ^ int.from_bytes(digest[:8], "big")) & 0x7FFFFFFFFFFFFFFF


@dataclass(frozen=True)
class System:
    """What the harness knows of one benchmark system.

    `simulate(cell, seed, nmm_config)` reads the cell keys in `reads`, which
    holds their defaults, and reads nmm_config only if `takes_nmm_config`;
    `delays(fs)` is the delay grid at the sample rate left after decimation,
    and `params` the embedding the pipeline reads it with. The rest are the
    pipeline's settings for the system.
    """

    reads: dict[str, float]
    simulate: Callable[
        [dict[str, Any], int, NmmConfig | None], tuple[MultivariateSeries, GroundTruth]
    ]
    delays: Callable[[float | None], range]
    decimate: int
    params: EmbeddingParams
    delay_sensitive: bool
    one_delay_per_pair: bool
    takes_nmm_config: bool = False


def _first_ten_samples(fs: float | None) -> range:
    return range(1, 11)


def _ten_to_hundred_ms(fs: float) -> range:
    return range(max(int(round(10.0 * fs / 1000.0)), 1), int(round(100.0 * fs / 1000.0)) + 1)


SYSTEMS: dict[str, System] = {
    "ar": System(
        reads={"T": 10_000},
        simulate=lambda cell, seed, _: simulate_ar(cell["T"], seed),
        delays=_first_ten_samples,
        decimate=1,
        params=EmbeddingParams(3, 100),
        delay_sensitive=True,
        one_delay_per_pair=False,
    ),
    "lorenz": System(
        reads={"T": 10_000, "c": 0.6},
        simulate=lambda cell, seed, _: simulate_lorenz_chain(cell["T"], float(cell["c"]), seed),
        delays=_first_ten_samples,
        decimate=1,
        params=EmbeddingParams(3, 100),
        delay_sensitive=False,
        one_delay_per_pair=False,
    ),
    # Subsampled so one pattern spans the synaptic response timescale; at the
    # raw rate the 3-sample patterns are far shorter than the kernel and the
    # estimator cannot separate direct from shared drive.
    "nmm": System(
        reads={"T": 10_000, "K": 5.0},
        simulate=lambda cell, seed, cfg: simulate_nmm(
            reproduction_nmm_config() if cfg is None else cfg, float(cell["K"]), cell["T"], seed
        ),
        delays=_ten_to_hundred_ms,
        decimate=5,
        params=EmbeddingParams(3, 1),
        delay_sensitive=True,
        one_delay_per_pair=True,
        takes_nmm_config=True,
    ),
}

# the cell keys that choose how a realization's evidence is read, not what is simulated
_VIEW_KEYS = {"lambda", "delta"}
# the cell keys run_realization reads for every system
_PIPELINE_KEYS = {"NL", *_VIEW_KEYS}


def _system(name: str, cell: dict[str, Any], nmm_config=None) -> System:
    """SYSTEMS[name], after checking that it reads each cell key and the config, and each value."""
    if name not in SYSTEMS:
        raise ValueError(f"unknown system {name!r}")
    unread = sorted(set(cell) - _PIPELINE_KEYS - set(SYSTEMS[name].reads))
    if unread:
        raise ValueError(f"system {name!r} reads no cell key {', '.join(unread)}")
    for key, value in cell.items():
        check(key, value)
    if nmm_config is not None and not SYSTEMS[name].takes_nmm_config:
        raise ValueError(f"system {name!r} reads no neural-mass config")
    return SYSTEMS[name]


def observe(
    system: str,
    cell: dict[str, Any],
    seed: int,
    nmm_config: NmmConfig | None = None,
) -> tuple[MultivariateSeries, GroundTruth]:
    """simulate -> observation noise: the series and truth of one cell and seed, undecimated.

    A cell key the system does not read, a bad value or a config for a system
    other than "nmm" raises ValueError before anything is drawn. The keys the
    cell leaves out take the system's `reads` defaults. The simulator draws
    from seed, and the observation noise (the cell's NL, default 0) from the
    next seed.
    """
    spec = _system(system, cell, nmm_config)
    series, truth = spec.simulate({**spec.reads, **cell}, seed, nmm_config)
    return add_observation_noise(series, cell.get("NL", 0.0), seed + 1), truth


def simulate_realization(
    system: str,
    cell: dict[str, Any],
    seed: int,
    nmm_config: NmmConfig | None = None,
) -> tuple[MultivariateSeries, GroundTruth, DelayGrid]:
    """simulate -> observation noise -> decimation: the series, truth and grid to score.

    A truth delay off a delay-sensitive system's grid, where no edge can match it,
    raises TruthOffGrid.
    """
    series, truth = observe(system, cell, seed, nmm_config)
    spec = SYSTEMS[system]
    noisy = decimate(series, spec.decimate)
    truth = replace(
        truth,
        edges=[(s, tg, max(1, int(round(dl / spec.decimate)))) for s, tg, dl in truth.edges],
    )
    delays = DelayGrid(spec.delays(noisy.sample_rate))
    off_grid = ", ".join(map(str, sorted({dl for *_, dl in truth.edges} - set(delays))))
    if spec.delay_sensitive and off_grid:
        raise TruthOffGrid(
            f"system {system!r}: ground-truth delay(s) {off_grid} lie off the delay grid "
            f"{delays.min_delay}-{delays.max_delay}, in samples after decimation by {spec.decimate}"
        )
    return noisy, truth, delays


def _realizations(system, cells, seed, nmm_config) -> list[Metrics]:
    """One simulation of the cells' data keys, scored at each cell's lambda and delta."""
    series, truth, delays = simulate_realization(system, cells[0], seed, nmm_config)
    spec = SYSTEMS[system]
    tables, results = {}, []
    for cell in cells:
        lam = float(cell.get("lambda", DEFAULT_LAMBDA))
        if lam not in tables:
            tables[lam] = evidence_table(series, spec.params, delays, lam)
        net = tables[lam].network(float(cell.get("delta", DEFAULT_DELTA)), spec.one_delay_per_pair)
        results.append(metrics(score(net, truth, series.n_channels, delays, spec.delay_sensitive)))
    return results


def run_realization(
    system: str,
    cell: dict[str, Any],
    seed: int,
    nmm_config: NmmConfig | None = None,
) -> Metrics:
    """simulate -> observation noise -> infer -> score for a single seed.

    The cell sets the simulator's keys and NL, lambda and delta; the
    decimation, delay grid, embedding and one_delay_per_pair come from
    SYSTEMS. For "nmm", a `nmm_config` of None means the reproduction
    configuration. Any other cell key, or a config for another system, raises ValueError.
    """
    return _realizations(system, [cell], seed, nmm_config)[0]


def _stats(results: list[Metrics]) -> dict[str, float | None]:
    """Mean and std of each metric over the realizations where it is defined."""
    stats: dict[str, float | None] = {}
    for name in ("tpr", "fpr", "f1"):
        defined = [v for v in (getattr(r, name) for r in results) if v is not None]
        arr = np.asarray(defined, dtype=float)
        stats[f"{name}_mean"] = float(arr.mean()) if defined else None
        stats[f"{name}_std"] = float(arr.std()) if defined else None
    return stats


def _data_keys(cell: dict[str, Any]) -> dict[str, Any]:
    """The cell without lambda and delta: what its realizations simulate, and their seeds' key."""
    return {k: v for k, v in cell.items() if k not in _VIEW_KEYS}


def _run_cell(args) -> list[SweepCell]:
    """The SweepCells of one data cell's cells, which share every realization."""
    system, cells, n_realizations, base_seed, nmm_config = args
    seeds = [derive_seed(base_seed, _data_keys(cells[0]), i) for i in range(n_realizations)]
    results: list[list[Metrics]] = []
    errors: list[str] = []
    for s in seeds:
        try:
            results.append(_realizations(system, cells, s, nmm_config))
        except Exception as exc:  # recorded in every cell the realization feeds, not fatal
            errors.append(f"seed {s}: {exc}")
    return [SweepCell(dict(cell), len(results), list(seeds), _stats([r[i] for r in results]),
                      list(errors)) for i, cell in enumerate(cells)]


def sweep(
    system: str,
    grid: dict[str, list],
    n_realizations: int,
    base_seed: int,
    nmm_config: NmmConfig | None = None,
    max_workers: int = 1,
) -> list[SweepCell]:
    """Evaluate every cell of the cartesian product of the grid axes, in order."""
    axes = sorted(grid)
    cells = [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]
    if not grid or not cells:  # no axis, or an axis with no values
        raise ValueError("sweep grid must be non-empty")
    # an unread axis or a bad setting fails before any realization runs
    for cell in cells:
        _system(system, cell, nmm_config)
    check("n_realizations", n_realizations)
    check("max_workers", max_workers)
    # the view keys (delta, lambda) sort after every data key (K, NL, T, c), so the
    # cells of one data cell are adjacent in grid order and one task runs them all
    tasks = [(system, list(group), n_realizations, base_seed, nmm_config)
             for _, group in itertools.groupby(cells, key=_data_keys)]
    if max_workers > 1:
        # imported here: the pool stack costs about 20 ms and 2 MB, and nothing else uses it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(itertools.chain.from_iterable(pool.map(_run_cell, tasks)))
    return list(itertools.chain.from_iterable(map(_run_cell, tasks)))


def windowed_analysis(
    series: MultivariateSeries,
    window_s: float,
    overlap: float,
    params: EmbeddingParams,
    delays: DelayGrid,
    lam: float = DEFAULT_LAMBDA,
    delta: float = DEFAULT_DELTA,
) -> list[tuple[float, CausalNetwork]]:
    """(window midpoint in s, inferred network) for each sliding window, in order.

    A DegenerateSample from one window (a channel flat across it) names the window's span.
    """
    if series.sample_rate is None:
        raise ValueError("windowed analysis requires a sample rate")
    check("overlap", overlap)
    check("window_s", window_s)
    fs = series.sample_rate
    win_len = int(round(window_s * fs))
    min_len = params.span + delays.max_delay + 2
    if win_len < min_len:
        raise WindowTooShort(
            f"window of {win_len} samples is too short; minimum is {min_len} samples "
            f"({min_len / fs:.3f} s)"
        )
    if series.n_samples < win_len:
        raise WindowTooShort(
            f"recording of {series.n_samples} samples is shorter than one window "
            f"of {win_len} samples"
        )
    step = max(1, int(round(win_len * (1.0 - overlap))))
    windows = []
    for start in range(0, series.n_samples - win_len + 1, step):
        chunk = replace(series, data=series.data[start : start + win_len])
        try:
            network = infer_network(chunk, params, delays, lam=lam, delta=delta)
        except DegenerateSample as exc:
            span = f"window {start / fs:.3f}-{(start + win_len) / fs:.3f} s"
            raise DegenerateSample(f"{span}: {exc}") from None
        windows.append(((start + win_len / 2.0) / fs, network))
    return windows
