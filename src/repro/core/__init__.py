"""Core layer: classification (the theorems), scheme compilation,
end-to-end simulation, and scaling-law estimation."""

from repro.core.classify import Classification, MemoryClass, classify, classify_profile
from repro.core.compiler import MODES, build_scheme
from repro.core.scaling import (
    MODELS,
    ScalingFit,
    fit_scaling,
    is_sublinear,
    is_superlogarithmic,
    loglog_slope,
)
from repro.core.analysis import (
    DistributionSummary,
    cluster_statistics,
    stretch_histogram,
    summarize,
    text_histogram,
)
from repro.core.investigate import Investigation, find_lemma2_generator, investigate
from repro.core.table1 import Table1Row, format_table1, reproduce_table1
from repro.core.workload import gravity_pairs, stub_pairs, stubs, uniform_pairs
from repro.core.simulate import (
    EvaluationOptions,
    EvaluationReport,
    ExperimentResult,
    as_rng,
    evaluate_scheme,
    run_experiment,
    sample_pairs,
)
from repro.paths.store import (
    OracleCache,
    PreferredWeightOracle,
    graph_signature,
    oracle_cache,
)
from repro.core.parallel import evaluate_sharded, shard_pairs_by_source

__all__ = [
    "Classification",
    "MemoryClass",
    "classify",
    "classify_profile",
    "MODES",
    "build_scheme",
    "MODELS",
    "ScalingFit",
    "fit_scaling",
    "is_sublinear",
    "is_superlogarithmic",
    "loglog_slope",
    "DistributionSummary",
    "cluster_statistics",
    "stretch_histogram",
    "summarize",
    "text_histogram",
    "gravity_pairs",
    "stub_pairs",
    "stubs",
    "uniform_pairs",
    "Investigation",
    "find_lemma2_generator",
    "investigate",
    "Table1Row",
    "format_table1",
    "reproduce_table1",
    "EvaluationOptions",
    "EvaluationReport",
    "ExperimentResult",
    "OracleCache",
    "PreferredWeightOracle",
    "as_rng",
    "evaluate_scheme",
    "evaluate_sharded",
    "graph_signature",
    "oracle_cache",
    "run_experiment",
    "sample_pairs",
    "shard_pairs_by_source",
]
