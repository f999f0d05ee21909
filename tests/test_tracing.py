"""The benchmark's tracer still finds every layer it times and every count it takes.

perfbench/tracing.py wraps library functions by module attribute and binds
some of their arguments by name, so deleting or renaming one of them breaks
the benchmark. This runs each layer once, at tiny sizes, under a Tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import opcausal.causal as causal
import opcausal.cli as cli
import opcausal.evaluate as evaluate
import opcausal.ordinal as ordinal
import opcausal.simulate as simulate
from opcausal.entropy import DelayGrid
from opcausal.ordinal import EmbeddingParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py as a module, loaded without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up by name while it executes
    monkeypatch.setitem(sys.modules, "tracing", module)
    spec.loader.exec_module(module)
    return module


def test_every_layer_and_count_is_recorded(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install("item-0")
    try:
        series, truth = simulate.simulate_ar(2000, seed=0)
        delays = DelayGrid(range(1, 6))
        network = causal.infer_network(series, EmbeddingParams(m=3, d=1), delays)
        ordinal.decimate(series, 2)
        evaluate.score(network, truth, series.n_channels, delays)
        path = tmp_path / "ar.csv"
        cli.write_series_csv(series, path)
        out = tmp_path / "net.json"
        assert cli.main(["infer", "--input", str(path), "--out", str(out), "--d", "1"]) == 0
    finally:
        tracer.uninstall()
    assert [layer for layer in tracing.LAYERS if layer not in {s.name for s in tracer.spans}] == []
    tracer.scales["item-0"] = 1.0
    figures = tracer.layer_metrics()
    assert [count for count in tracing.COUNTS if not figures[count]] == []
