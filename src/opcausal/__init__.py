"""Delayed causal network inference from multivariate time series using
ordinal-pattern conditional entropies, with benchmark simulators and an
evaluation harness."""

__version__ = "0.1.0"

from .causal import (
    CausalNetwork,
    Edge,
    epsilon_test,
    evidence_table,
    infer_network,
    minimal_conditioning_set,
)
from .entropy import (
    CETensor,
    ConditioningSet,
    DelayGrid,
    ce_tensor,
    conditional_entropy_given_set,
    threshold,
)
from .evaluate import ConfusionCounts, Metrics, metrics, score, sweep, windowed_analysis
from .ordinal import (
    EmbeddingParams,
    MultivariateSeries,
    PatternMatrix,
    build_moptn,
    decimate,
    embed,
)
from .simulate import (
    GroundTruth,
    NmmConfig,
    add_observation_noise,
    reproduction_nmm_config,
    simulate_ar,
    simulate_lorenz_chain,
    simulate_nmm,
)

__all__ = [
    "CausalNetwork",
    "CETensor",
    "ConditioningSet",
    "ConfusionCounts",
    "DelayGrid",
    "Edge",
    "EmbeddingParams",
    "GroundTruth",
    "Metrics",
    "MultivariateSeries",
    "NmmConfig",
    "PatternMatrix",
    "add_observation_noise",
    "build_moptn",
    "ce_tensor",
    "conditional_entropy_given_set",
    "decimate",
    "embed",
    "epsilon_test",
    "evidence_table",
    "infer_network",
    "metrics",
    "minimal_conditioning_set",
    "reproduction_nmm_config",
    "score",
    "simulate_ar",
    "simulate_lorenz_chain",
    "simulate_nmm",
    "sweep",
    "threshold",
    "windowed_analysis",
]
