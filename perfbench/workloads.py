"""The benchmark's three workloads: their inputs, set-up and one item each.

Every workload draws its inputs from a fixed pool whose reference edge
hashes are committed in refs.json. With workload seed w, item k of
ar_sweep and nmm_delta uses pool entry (w + k) mod P; wide_infer writes the
CSV of pool entry w mod P in set-up and runs every item on it. So each
seed gives its own inputs, and every item of every seed is checked.
reference_digests computes those hashes; make_refs.py and selftest.py use it.

Layer calls go through module attributes (simulate.simulate_ar, ...) so
that a Tracer, when installed, sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import opcausal.causal as causal
import opcausal.cli as cli
import opcausal.evaluate as evaluate
import opcausal.ordinal as ordinal
import opcausal.simulate as simulate
from opcausal.entropy import DelayGrid
from opcausal.ordinal import EmbeddingParams

REFS_PATH = Path(__file__).resolve().parent / "refs.json"


@dataclass
class ItemResult:
    digest: str
    f1: list[float]


def edge_digest(networks: list[set[tuple[int, int, int]]]) -> str:
    """sha256 of the sorted (source, target, delay) triples of each network."""
    payload = json.dumps([sorted(map(list, triples)) for triples in networks])
    return hashlib.sha256(payload.encode()).hexdigest()


def _f1(network, truth, n_channels, delays) -> float:
    f1 = evaluate.metrics(evaluate.score(network, truth, n_channels, delays)).f1
    return 0.0 if f1 is None else f1


@dataclass
class Workload:
    """T is the series length; pool holds (input seed, reference digest)."""

    T: int
    pool: list[tuple[int, str]] | None = None
    name = ""

    def setup(self, input_seed: int, workdir: Path):
        """Prepare the run's state for items on input_seed; timed as set-up."""
        raise NotImplementedError

    def item_input(self, seed: int, k: int) -> tuple[int, str]:
        """(input seed, reference digest) of item k under workload seed `seed`."""
        return self.pool[(seed + k) % len(self.pool)]

    def run_item(self, state, input_seed: int) -> ItemResult:
        raise NotImplementedError


@dataclass
class ArSweep(Workload):
    """Criterion 1's evaluation loop: one AR realization per item."""

    T: int = 10_000
    name = "ar_sweep"
    params = EmbeddingParams(m=3, d=100)
    delays = DelayGrid(range(1, 11))

    def setup(self, input_seed, workdir):
        return None

    def run_item(self, state, input_seed):
        series, truth = simulate.simulate_ar(self.T, input_seed)
        network = causal.infer_network(
            series, self.params, self.delays, lam=0.995, delta=0.15
        )
        return ItemResult(
            digest=edge_digest([network.edge_triples()]),
            f1=[_f1(network, truth, series.n_channels, self.delays)],
        )


# The graph simulate_nmm draws at K=5 with seed 3, the first reproduction
# seed of criterion 7: regions 5 -> 0, 3 -> 1 and 2 -> 6 (adjacency[target,
# source]). Held fixed so that items differ only in noise: across drawn
# graphs F1 ranges from 0 to 1 (graphs with a common driver leak an
# unprunable sibling dependence, see the README), which would make f1_mean
# depend on the seed's graph rather than on the code.
NMM_GRAPH = ((0, 5), (1, 3), (6, 2))


@dataclass
class NmmDelta(Workload):
    """Criterion 7's delta choice: one NMM realization, three deltas."""

    T: int = 50_000
    name = "nmm_delta"
    factor = 5
    deltas = (0.08, 0.10, 0.12)
    params = EmbeddingParams(m=3, d=1)
    delays = DelayGrid(range(2, 21))

    def setup(self, input_seed, workdir):
        adjacency = np.zeros((8, 8))
        for target, source in NMM_GRAPH:
            adjacency[target, source] = 1.0
        return simulate.reproduction_nmm_config(), adjacency

    def run_item(self, state, input_seed):
        cfg, adjacency = state
        series, truth = simulate.simulate_nmm(
            cfg, 5.0, self.T, input_seed, adjacency=adjacency
        )
        series = ordinal.decimate(series, self.factor)
        truth = simulate.GroundTruth(
            edges=[(s, t, max(1, int(round(d / self.factor)))) for s, t, d in truth.edges]
        )
        triples, f1 = [], []
        for delta in self.deltas:
            network = causal.infer_network(
                series,
                self.params,
                self.delays,
                lam=0.995,
                delta=delta,
                one_delay_per_pair=True,
            )
            triples.append(network.edge_triples())
            f1.append(_f1(network, truth, series.n_channels, self.delays))
        return ItemResult(digest=edge_digest(triples), f1=f1)


def wide_couplings(copies: int = 4) -> dict[tuple[int, int, int], float]:
    """Disjoint copies of the nine-channel AR structure."""
    n = simulate.AR_N_CHANNELS
    return {
        (s + n * c, t + n * c, d): v
        for c in range(copies)
        for (s, t, d), v in simulate.AR_COUPLINGS.items()
    }


@dataclass
class WideInfer(Workload):
    """`opcausal infer` run in-process on a 36-channel CSV."""

    T: int = 20_000
    name = "wide_infer"
    n_channels = 36
    delays = DelayGrid(range(1, 11))  # the CLI's default grid

    def setup(self, input_seed, workdir):
        series, truth = simulate.simulate_ar(
            self.T,
            input_seed,
            couplings=wide_couplings(self.n_channels // simulate.AR_N_CHANNELS),
            n_channels=self.n_channels,
        )
        path = workdir / f"wide_{input_seed}.csv"
        cli.write_series_csv(series, path)
        return path, truth

    def item_input(self, seed, k):
        """Every item of a run reads the one CSV its set-up wrote."""
        return self.pool[seed % len(self.pool)]

    def run_item(self, state, input_seed):
        path, truth = state
        out = path.with_suffix(".network.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["infer", "--input", str(path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"opcausal infer exited with {code}")
        with open(out) as fh:
            payload = json.load(fh)
        edges = [
            causal.Edge(e["source"], e["target"], e["delay_samples"], e["ce_bits"], e["strength_bits"])
            for e in payload["edges"]
        ]
        network = causal.CausalNetwork(edges=edges, h_max=payload["h_max_bits"])
        return ItemResult(
            digest=edge_digest([network.edge_triples()]),
            f1=[_f1(network, truth, self.n_channels, self.delays)],
        )


def reference_digests(workload: Workload, seeds, workdir: Path) -> list[tuple[int, str]]:
    """(input seed, edge digest) of the untraced item on each input seed."""
    return [
        (seed, workload.run_item(workload.setup(seed, workdir), seed).digest) for seed in seeds
    ]


WORKLOADS = {w.name: w for w in (ArSweep, NmmDelta, WideInfer)}


def load(name: str) -> Workload:
    """The named workload at its committed size, with its reference pool."""
    with open(REFS_PATH) as fh:
        refs = json.load(fh)[name]
    workload = WORKLOADS[name]()
    if refs["T"] != workload.T:
        raise ValueError(f"{REFS_PATH.name} holds {name} references for T={refs['T']}")
    workload.pool = [(int(s), h) for s, h in refs["pool"]]
    return workload
