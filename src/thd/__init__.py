"""Temporal hypergraph diffusion.

Models communication networks as time-varying hypergraphs - vertices are
people, hyperedges are multi-party interactions open during a tick
interval - and computes minimal temporal paths (foremost, shortest,
fastest) from every source, with an exhaustive enumeration oracle for
differential testing and a batch simulation engine for full-network
diffusion runs.
"""

__version__ = "0.1.0"

from . import errors
from .core import (
    NetworkStats,
    TemporalHyperedge,
    Tick,
    TimeVaryingHypergraph,
    build_hypergraph,
    hyperedge,
    stats,
)
from .gen import GenParams, gen_desk_instance, gen_random, gen_structured
from .io import canonical_json_bytes, read_network, write_network, write_results
from .oracle import OracleResult, differential_report, enumerate_walks, oracle_distances
from .paths import (
    DistanceLabels,
    Metric,
    TemporalWalk,
    fastest,
    foremost,
    reconstruct_walk,
    shortest,
    validate_walk,
    walk_metric_value,
)
from .simulate import (
    DiffusionResult,
    SimulationPlan,
    aggregate,
    checkpoint_write,
    run,
)

__all__ = [
    "__version__",
    "errors",
    "NetworkStats",
    "TemporalHyperedge",
    "Tick",
    "TimeVaryingHypergraph",
    "build_hypergraph",
    "hyperedge",
    "stats",
    "GenParams",
    "gen_desk_instance",
    "gen_random",
    "gen_structured",
    "canonical_json_bytes",
    "read_network",
    "write_network",
    "write_results",
    "OracleResult",
    "differential_report",
    "enumerate_walks",
    "oracle_distances",
    "DistanceLabels",
    "Metric",
    "TemporalWalk",
    "fastest",
    "foremost",
    "reconstruct_walk",
    "shortest",
    "validate_walk",
    "walk_metric_value",
    "DiffusionResult",
    "SimulationPlan",
    "aggregate",
    "checkpoint_write",
    "run",
]
