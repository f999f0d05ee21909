"""The scripts under scripts/ import against the package, and the analysis
scripts report the epsilon evidence of the library's prune."""

import argparse
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from opcausal import (
    DelayGrid,
    EmbeddingParams,
    MultivariateSeries,
    causal,
    reproduction_nmm_config,
)
from opcausal.causal import (
    candidate_tensor,
    epsilon_test,
    minimal_conditioning_set,
    reliable_conditioning_size,
)
from opcausal.simulate import simulate_lorenz_chain

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["lorenz_analysis", "nmm_analysis"])
def test_script_imports(name):
    assert callable(load(name).main)


def per_pair_epsilon(series, params, grid, delta, pairs):
    """Epsilon of each pair at its lowest-CE lag, one epsilon_test per pair."""
    pi, tensor = candidate_tensor(series, params, grid)
    r = reliable_conditioning_size(pi)
    candidates = tensor.candidates()
    out = {}
    for src, tgt in pairs:
        if not candidates[tgt, src].any():
            out[(src, tgt)] = None
            continue
        tau = grid.delays[int(np.argmin(tensor.values[tgt, src, :]))]
        p_min = minimal_conditioning_set(tensor, tgt, src, size=r)
        out[(src, tgt)] = epsilon_test(pi, tgt, src, tau, p_min, delta)[1]
    return out


def test_lorenz_epsilon_table_matches_per_pair_tests():
    lorenz = load("lorenz_analysis")
    series, _ = simulate_lorenz_chain(3000, c=0.6, seed=0)
    args = (series, EmbeddingParams(m=3, d=100), DelayGrid(range(1, 11)), 0.1)
    table = lorenz.epsilon_table(*args)
    assert None not in table.values()
    assert table == per_pair_epsilon(*args, lorenz.PAIRS)


def test_lorenz_epsilon_table_pair_without_candidate(rng):
    lorenz = load("lorenz_analysis")
    data = rng.standard_normal((3000, 3))
    data[2:, 1] += 2.0 * data[:-2, 0]  # 0 -> 1; channel 2 is independent noise
    args = (MultivariateSeries(data=data), EmbeddingParams(m=3, d=1), DelayGrid(range(1, 6)), 0.1)
    table = lorenz.epsilon_table(*args)
    assert table[(0, 1)] > 0.1
    assert table[(1, 0)] is None and table[(1, 2)] is None
    assert table == per_pair_epsilon(*args, lorenz.PAIRS)


def test_nmm_part2_prints_each_pair(monkeypatch, capsys):
    nmm = load("nmm_analysis")
    prune = causal.prune_tensor

    def without_1_to_2(*args):
        return [r for r in prune(*args) if (r.source, r.target) != (1, 2)]

    # the script's evidence_table looks prune_tensor up in causal
    monkeypatch.setattr(causal, "prune_tensor", without_1_to_2)
    nmm.part2(reproduction_nmm_config(), argparse.Namespace(T=20_000, delta=0.1))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:8]]
    assert rows == [
        ["0->4", "true", "40", "0.228"],
        ["0->5", "true", "40", "0.208"],
        ["4->5", "sibling", "10", "0.424"],
        ["5->4", "sibling", "10", "0.421"],
        ["1->2", "unrelated", "no", "candidate"],
    ]
