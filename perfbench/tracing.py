"""Spans and counters recorded around the public functions of opcausal's layers.

While installed, a Tracer replaces selected module attributes with wrappers.
A wrapper records one span per call (name, start, end, parent span, unit)
and, for some functions, counts the work the call did. Spans stay in memory;
the benchmark reduces them to per-layer figures when its loop ends.

A unit is one traced item ("item-0", "item-1", ...) or one set-up
repetition ("setup-0", ...). A layer's self time is its spans' durations
minus the part covered by their child spans and by speed-probe runs
(calib.py) that interrupted them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import opcausal.causal as causal
import opcausal.cli as cli
import opcausal.evaluate as evaluate
import opcausal.ordinal as ordinal
import opcausal.simulate as simulate


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str


@dataclass
class UnitCounts:
    """Work counted in one unit; h_base holds (target, set, t_start) triples."""

    counts: defaultdict = field(default_factory=lambda: defaultdict(int))
    h_base: set = field(default_factory=set)


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bind(fn, args, kwargs) -> dict:
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _simulate_steps(fn, args, kwargs, result, unit):
    a = _bind(fn, args, kwargs)
    # every simulator iterates once per kept sample plus its discarded lead-in
    lead_in = a["burn_in"] if "burn_in" in a else a["transient_samples"]
    unit.counts["simulate.steps"] += a["n_samples"] + lead_in


def _symbols(fn, args, kwargs, result, unit):
    unit.counts["ordinal.symbols"] += result.symbols.size


def _ce_cells(fn, args, kwargs, result, unit):
    a = _bind(fn, args, kwargs)
    pi, delays = a["pi"], a["delays"]
    n = result.n_channels
    pairs = n * (n - 1)
    unit.counts["entropy.ce_tensor.cells"] += pairs * len(delays)
    # computed, not measured: each (pair, lag) cell reads two int64 symbol
    # streams of T' - tau entries
    unit.counts["entropy.ce_tensor.bytes_computed"] += 16 * pairs * sum(
        pi.n_times - tau for tau in delays
    )


def _epsilon(fn, args, kwargs, result, unit):
    a = _bind(fn, args, kwargs)
    p_min = a["p_min"]
    unit.counts["causal.candidates"] += 1
    unit.counts["causal.kept"] += bool(result[0])
    unit.h_base.add((a["m"], p_min.members, max(p_min.max_delay, a["tau"])))


def _ce_given_set(fn, args, kwargs, result, unit):
    unit.counts["causal.ce_given_set_calls"] += 1


def _r_eff(fn, args, kwargs, result, unit):
    unit.counts["causal.r_eff"] = max(unit.counts["causal.r_eff"], int(result))


def _csv_bytes(fn, args, kwargs, result, unit):
    unit.counts["cli.read_csv.bytes"] += os.path.getsize(_bind(fn, args, kwargs)["path"])


# (module, attribute, span name or None, counter or None). Each entry is the
# namespace a caller looks the function up in, so the benchmark's own calls
# and the library's internal calls both pass through the wrapper.
PATCHES = [
    (simulate, "simulate_ar", "simulate", _simulate_steps),
    (simulate, "simulate_nmm", "simulate", _simulate_steps),
    (ordinal, "decimate", "ordinal", None),
    (causal, "build_moptn", "ordinal", _symbols),
    (causal, "ce_tensor", "entropy.ce_tensor", _ce_cells),
    (causal, "threshold", "entropy.threshold", None),
    (causal, "prune_tensor", "causal.prune", None),
    (causal, "reliable_conditioning_size", None, _r_eff),
    (causal, "epsilon_test", None, _epsilon),
    (causal, "conditional_entropy_given_set", None, _ce_given_set),
    (causal, "infer_network", "causal.infer", None),
    (cli, "infer_network", "causal.infer", None),
    (evaluate, "score", "evaluate.score", None),
    (cli, "main", "cli.main", None),
    (cli, "read_series_csv", "cli.read_csv", _csv_bytes),
    (cli, "write_series_csv", "cli.write_csv", None),
    (cli, "write_network_json", "cli.write_json", None),
]

LAYERS = [
    "simulate",
    "ordinal",
    "entropy.ce_tensor",
    "entropy.threshold",
    "causal.prune",
    "causal.infer",
    "evaluate.score",
    "cli.read_csv",
    "cli.write_csv",
    "cli.write_json",
]

COUNTS = [
    "simulate.steps",
    "ordinal.symbols",
    "entropy.ce_tensor.cells",
    "entropy.ce_tensor.bytes_computed",
    "causal.candidates",
    "causal.kept",
    "causal.r_eff",
    "causal.ce_given_set_calls",
    "causal.h_base_distinct",
    "cli.read_csv.bytes",
]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span | None] = []
        # speed-probe runs, kept apart because they are appended from a
        # signal handler that may interrupt a wrapper between two steps
        self.probes: list[Span] = []
        self.units: dict[str, UnitCounts] = {}
        # unit -> factor that scales its wall times to the reference speed
        self.scales: dict[str, float] = {}
        self._stack: list[int] = []
        self._unit = ""
        self._saved: list[tuple[object, str, object]] = []

    def install(self, unit: str) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._unit = unit
        self.units.setdefault(unit, UnitCounts())
        for module, attr, span_name, counter in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, span_name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            unit = tracer._unit
            idx = None
            if span_name is not None:
                idx = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)
                tracer._stack.append(idx)
                start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[idx] = Span(span_name, start, end, parent, unit)
            if counter is not None:
                counter(fn, args, kwargs, result, tracer.units[unit])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_probe(self, start: float, end: float) -> None:
        """Record a speed-probe run as a child of the innermost open span."""
        if self._saved:
            parent = self._stack[-1] if self._stack else None
            self.probes.append(Span("probe", start, end, parent, self._unit))

    def write(self, out_dir: Path, workload: str, seed: int) -> Path:
        """Write every span as one JSON line; parent is a span's id."""
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"spans_{workload}_seed{seed}.jsonl"
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans + self.probes):
                fh.write(json.dumps({"id": i, **vars(s)}) + "\n")
        return path

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self time per unit per span name, scaled to the reference speed."""
        child = [0.0] * len(self.spans)
        for s in self.spans + self.probes:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s.unit][s.name] += ((s.end - s.start) - child[i]) * self.scales[s.unit]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: busy time and exact counts.

        busy_s is the median, over the units in which the layer ran, of its
        self time in that unit, scaled to the reference speed. A count is taken from the first item in
        which it is nonzero, else the first set-up, so it repeats exactly
        for a given seed. A layer or count that never ran reads 0.
        """
        selfs = self.self_times()
        order = _ordered_units(self.units)
        counts = {u: self.units[u].counts for u in order}
        for u in order:
            counts[u]["causal.h_base_distinct"] = len(self.units[u].h_base)
        out: dict[str, float] = {}
        for layer in LAYERS:
            times = [selfs[u][layer] for u in order if layer in selfs.get(u, {})]
            out[f"{layer}.busy_s"] = statistics.median(times) if times else 0.0
        for name in COUNTS:
            out[name] = next((counts[u][name] for u in order if counts[u][name]), 0)
        first = next((counts[u] for u in order if counts[u]["causal.candidates"]), None)
        out["causal.keep_ratio"] = (
            first["causal.kept"] / first["causal.candidates"] if first else 0.0
        )
        sim_time = sum(selfs[u].get("simulate", 0.0) for u in order)
        sim_steps = sum(counts[u]["simulate.steps"] for u in order)
        out["simulate.steps_per_s"] = sim_steps / sim_time if sim_time else 0.0
        return out


def _ordered_units(units) -> list[str]:
    """Items in order, then set-ups in order."""
    def key(u):
        kind, _, k = u.partition("-")
        return (kind != "item", int(k))

    return sorted(units, key=key)
