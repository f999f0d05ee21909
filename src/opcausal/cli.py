"""Command-line frontend: simulate | infer | sweep | windowed.

Series travel as CSV: a header row of channel names, then one row per
sample, written with 17 significant digits for exact round-trips (64 rows
per Python `%`, giving np.savetxt's bytes) and read back by np.loadtxt (no
blank lines; a bad cell is named by row and column).
Ground truth and networks travel as JSON. Every run writes a manifest with
the full configuration and seed. Flag values override config-file values,
which override defaults; M and d must be integers, lambda and delta
numbers.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .causal import CausalNetwork, infer_network
from .entropy import DEFAULT_DELTA, DEFAULT_LAMBDA, DelayGrid
from .errors import OpcausalError, check, whole
from .evaluate import SYSTEMS, _system, sweep, windowed_analysis
from .ordinal import EmbeddingParams, MultivariateSeries
from .simulate import GroundTruth, NmmConfig, add_observation_noise

DEFAULTS = {
    "M": 3,
    "d": 100,
    "lambda": DEFAULT_LAMBDA,
    "delta": DEFAULT_DELTA,
    "delays": "1-10",
}


# Data rows formatted per `%`: a larger block was no faster and keeps more
# Python floats alive at once.
_CSV_BLOCK_ROWS = 64


def write_series_csv(series: MultivariateSeries, path: str | Path) -> None:
    """The bytes of np.savetxt(fmt="%.17g", delimiter=",", newline="\r\n"), 64 rows per `%`."""
    data = series.data
    row_format = ",".join(["%.17g"] * data.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(series.channel_names)
        for start in range(0, len(data), _CSV_BLOCK_ROWS):
            block = data[start : start + _CSV_BLOCK_ROWS]
            fh.write(row_format * len(block) % tuple(block.ravel().tolist()))


_LINE_ENDS = frozenset({"\n", "\r\n", "\r"})


def _data_lines(fh):
    """The remaining lines of fh; a blank one, which np.loadtxt would skip, raises."""
    quotes = 0  # a blank line inside a quoted cell is part of the cell
    for line in fh:
        if line in _LINE_ENDS and not quotes % 2:
            raise ValueError("blank line")
        quotes += line.count('"')
        yield line


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads cell as a float: float() without "_" or non-ASCII digits."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _raise_first_fault(path, header: list[str]) -> None:
    """Re-scan the records and raise for the first that np.loadtxt cannot read."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise OpcausalError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            for col, cell in enumerate(row):
                if not _is_number(cell):
                    raise OpcausalError(
                        f"{path}: non-numeric value {cell!r} at row {line_no}, "
                        f"column {col + 1} ({header[col]})"
                    )


def read_series_csv(path: str | Path, sample_rate: float | None = None) -> MultivariateSeries:
    """Header row via csv, numbers via np.loadtxt; a re-scan names any fault."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise OpcausalError(f"{path}: empty file") from None
        lines = _data_lines(fh)
        try:
            first = next(lines, None)
            if first is None:  # np.loadtxt would warn and return an empty array
                raise OpcausalError(f"{path}: no data rows")
            data = np.loadtxt(
                itertools.chain([first], lines),
                delimiter=",",
                comments=None,
                quotechar='"',
                ndmin=2,
                dtype=float,
            )
            fault = None if data.shape[1] == len(header) else f"{data.shape[1]} columns"
        except ValueError as exc:
            fault = str(exc)
    if fault is not None:
        _raise_first_fault(path, header)
        raise OpcausalError(f"{path}: unreadable data ({fault})")
    return MultivariateSeries(data=data, sample_rate=sample_rate, channel_names=header)


def _write_json(path: str | Path, payload, **options) -> None:
    """Indented JSON and a final newline; options go to json.dump."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, **options)
        fh.write("\n")


def write_truth_json(truth: GroundTruth, path: str | Path) -> None:
    edges = [{"source": s, "target": t, "delay_samples": d} for s, t, d in truth.edges]
    _write_json(path, {"description": truth.description, "edges": edges})


def write_network_json(
    network: CausalNetwork, path: str | Path, sample_rate: float | None = None
) -> None:
    edges = []
    for e in network.edges:
        entry = {
            "source": e.source,
            "target": e.target,
            "delay_samples": e.delay,
            "ce_bits": e.ce,
            "strength_bits": e.strength,
        }
        if sample_rate:
            entry["delay_ms"] = e.delay * 1000.0 / sample_rate
        edges.append(entry)
    _write_json(path, {"edges": edges, "params": network.params, "h_max_bits": network.h_max})


def write_manifest(path: str | Path, config: dict) -> None:
    _write_json(path, {**config, "tool_version": __version__}, sort_keys=True, default=str)


# Most delays a range may list, counted before np.arange builds them: at N=2
# and m=3 a grid of 10^6 lags already needs over 1 GB of ce_tensor counts.
_MAX_DELAYS = 100_000


def _delay_number(spec: str, text: str) -> float:
    """float(text), or an OpcausalError that names the delay specification it is from."""
    try:
        return float(text)
    except ValueError:
        raise OpcausalError(f"delay specification {spec!r}: {text!r} is not a number") from None


def parse_delays(spec: str, sample_rate: float | None, in_ms: bool) -> DelayGrid:
    """Parse 'a-b[:step]' or a comma list, optionally in milliseconds."""
    spec = spec.strip()
    if "-" in spec and not spec.startswith("-"):
        body, _, step_s = spec.partition(":")
        lo_s, _, hi_s = body.partition("-")
        lo, hi, step = (_delay_number(spec, v) for v in (lo_s, hi_s, step_s or "1"))
        if not (np.isfinite([lo, hi, step]).all() and step > 0):
            raise OpcausalError(f"delay range {spec!r} needs finite bounds and a positive step")
        if (hi - lo) / step + 1 > _MAX_DELAYS:
            raise OpcausalError(f"delay range {spec!r} lists more than {_MAX_DELAYS} delays")
        values = list(np.arange(lo, hi + step / 2, step))
    else:
        values = [_delay_number(spec, v) for v in spec.split(",")]
        if not np.isfinite(values).all():
            raise OpcausalError(f"delay specification {spec!r} is not finite")
    if in_ms:
        if not sample_rate:
            raise OpcausalError("delays in ms require --sample-rate")
        values = [v * sample_rate / 1000.0 for v in values]
    samples = [int(round(v)) for v in values]
    if any(abs(s - v) > 1e-9 for s, v in zip(samples, values)):
        raise OpcausalError(f"delay specification {spec!r} does not map to whole samples")
    return DelayGrid(samples)


def _merge_config(args: argparse.Namespace) -> dict:
    """flags > config file > defaults."""
    merged = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise OpcausalError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(file_cfg) - set(DEFAULTS))
        if unknown:
            raise OpcausalError(
                f"{args.config}: unknown key(s) {', '.join(unknown)}; known: {', '.join(DEFAULTS)}"
            )
        merged.update(file_cfg)
    for k in DEFAULTS:
        if getattr(args, k) is not None:
            merged[k] = getattr(args, k)
    return merged


def _pipeline_inputs(args):
    """Merged config, series, embedding, delays and the pruning settings.

    Every setting is checked before the CSV is read, so a bad one fails
    without parsing the input.
    """
    if args.sample_rate is not None:
        check("sample_rate", args.sample_rate)
    cfg = _merge_config(args)
    delays = parse_delays(str(cfg["delays"]), args.sample_rate, args.delays_in_ms)
    params = EmbeddingParams(m=whole("M", cfg["M"]), d=whole("d", cfg["d"]))
    check("delta", cfg["delta"])
    check("lambda", cfg["lambda"])
    settings = {"lam": float(cfg["lambda"]), "delta": float(cfg["delta"])}
    series = read_series_csv(args.input, sample_rate=args.sample_rate)
    return cfg, series, params, delays, settings


def _parse_list(flag: str, spec: str, cast=float) -> list:
    """The comma list given to flag; an item that cast cannot read is named."""
    kind = "an integer" if cast is int else "a number"
    values = []
    for item in spec.split(","):
        try:
            values.append(cast(item))
        except ValueError:
            raise OpcausalError(f"{flag} item {item!r} is not {kind}") from None
    return values


def _nmm_config(args) -> NmmConfig | None:
    """The --nmm-config file, or None for the reproduction configuration."""
    return NmmConfig.from_json(args.nmm_config) if args.nmm_config else None


def cmd_simulate(args) -> int:
    out = Path(args.out)
    seed = args.seed
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise OpcausalError(f"--seed must be non-negative, got {seed}")
    flags = {k: v for k, v in (("c", args.c), ("K", args.K)) if v is not None}
    system = _system(args.system, {**flags, "NL": args.noise_level}, args.nmm_config)
    cell = {**system.reads, "T": args.T, **flags}
    series, truth = system.simulate(cell, seed, _nmm_config(args))
    series = add_observation_noise(series, args.noise_level, seed + 1)
    write_series_csv(series, out.with_suffix(".csv"))
    write_truth_json(truth, out.with_suffix(".truth.json"))
    write_manifest(
        out.with_suffix(".manifest.json"),
        {
            "command": "simulate",
            "system": args.system,
            **cell,
            "seed": seed,
            "noise_level": args.noise_level,
            "nmm_config": args.nmm_config,
            "sample_rate": series.sample_rate,
        },
    )
    print(f"seed: {seed}")
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.truth.json')}")
    return 0


def cmd_infer(args) -> int:
    cfg, series, params, delays, settings = _pipeline_inputs(args)
    network = infer_network(series, params, delays, **settings)
    write_network_json(network, args.out, sample_rate=args.sample_rate)
    write_manifest(
        Path(args.out).with_suffix(".manifest.json"),
        {"command": "infer", "input": str(args.input), **cfg, "sample_rate": args.sample_rate},
    )
    print(f"{len(network.edges)} edges -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    flags = {k: getattr(args, k) for k in ("delta", "T", "NL", "lambda", "K")}
    grid = {
        k: _parse_list(f"--{k}", v, int if k == "T" else float) for k, v in flags.items() if v
    }
    if not grid:
        raise OpcausalError("sweep needs at least one axis (--delta/--T/--NL/--lambda/--K)")
    cells = sweep(
        args.system,
        grid,
        n_realizations=args.R,
        base_seed=args.seed,
        nmm_config=_nmm_config(args),
        max_workers=args.threads,
    )
    out = Path(args.out)
    axes = sorted(grid)
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["system", *axes, "realization_count", *cells[0].stats])
        for cell in cells:
            writer.writerow(
                [
                    args.system,
                    *(cell.params[a] for a in axes),
                    cell.n_realizations,
                    *("" if v is None else f"{v:.6f}" for v in cell.stats.values()),
                ]
            )
    _write_json(
        out.with_suffix(".json"),
        {"system": args.system, "base_seed": args.seed, "cells": [vars(c) for c in cells]},
    )
    write_manifest(
        out.with_suffix(".manifest.json"),
        {
            "command": "sweep",
            "system": args.system,
            "grid": grid,
            "R": args.R,
            "seed": args.seed,
            **({"nmm_config": args.nmm_config} if args.nmm_config else {}),
        },
    )
    print(f"{len(cells)} cells -> {out.with_suffix('.csv')}")
    return 0


def cmd_windowed(args) -> int:
    check("overlap", args.overlap)
    check("window_s", args.window_s)
    if args.sample_rate is None:
        raise ValueError("windowed analysis requires a sample rate")
    cfg, series, params, delays, settings = _pipeline_inputs(args)
    windows = windowed_analysis(series, args.window_s, args.overlap, params, delays, **settings)
    entries = [(mid_s, e) for mid_s, network in windows for e in network.edges]
    # each strength h_max - CE is positive; divided by the largest in the recording
    top = max((e.strength for _, e in entries), default=1.0)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_mid_s", "source", "target", "delay_ms", "strength_normalized"])
        for mid_s, e in entries:
            writer.writerow(
                [
                    f"{mid_s:.6f}",
                    series.channel_names[e.source],
                    series.channel_names[e.target],
                    f"{e.delay * 1000.0 / args.sample_rate:.6f}",
                    f"{e.strength / top:.6f}",
                ]
            )
    write_manifest(
        Path(args.out).with_suffix(".manifest.json"),
        {
            "command": "windowed",
            "input": str(args.input),
            "window_s": args.window_s,
            "overlap": args.overlap,
            "sample_rate": args.sample_rate,
            **cfg,
            "window_mid_s": [mid_s for mid_s, _ in windows],
        },
    )
    print(f"{len(entries)} window entries -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcausal",
        description="Delayed causal network inference from multivariate time series "
        "via ordinal-pattern conditional entropies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a benchmark series + ground truth")
    p_sim.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p_sim.add_argument("--T", type=int, default=10_000, help="samples to keep")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--c", type=float, help="Lorenz coupling strength (default 0.6)")
    p_sim.add_argument("--K", type=float, help="nmm connection density, percent (default 5)")
    p_sim.add_argument("--noise-level", type=float, default=0.0)
    p_sim.add_argument("--nmm-config", help="JSON file of neural-mass parameters")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    def add_pipeline_flags(p):
        p.add_argument("--config", help="JSON config file (flags take precedence)")
        p.add_argument("--M", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--lambda", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--delays", help="'a-b[:step]' or comma list")
        p.add_argument("--delays-in-ms", action="store_true")
        p.add_argument("--sample-rate", type=float)

    p_inf = sub.add_parser("infer", help="infer a causal network from a series CSV")
    p_inf.add_argument("--input", required=True)
    p_inf.add_argument("--out", required=True)
    add_pipeline_flags(p_inf)
    p_inf.set_defaults(func=cmd_infer)

    p_sweep = sub.add_parser("sweep", help="TPR/FPR/F1 over a parameter grid")
    p_sweep.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    p_sweep.add_argument("--delta", help="comma list")
    p_sweep.add_argument("--T", help="comma list")
    p_sweep.add_argument("--NL", help="comma list")
    p_sweep.add_argument("--lambda", help="comma list")
    p_sweep.add_argument("--K", help="comma list")
    p_sweep.add_argument("--R", type=int, default=10, help="realizations per cell")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--threads", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--nmm-config")
    p_sweep.add_argument("--out", required=True, help="output path prefix")
    p_sweep.set_defaults(func=cmd_sweep)

    p_win = sub.add_parser("windowed", help="time-varying coupling over sliding windows")
    p_win.add_argument("--input", required=True)
    p_win.add_argument("--window-s", type=float, default=4.0)
    p_win.add_argument("--overlap", type=float, default=0.5)
    p_win.add_argument("--out", required=True)
    add_pipeline_flags(p_win)
    p_win.set_defaults(func=cmd_windowed)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OpcausalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
