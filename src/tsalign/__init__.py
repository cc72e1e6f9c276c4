"""Constraint-based alignment of incomplete multivariate time series.

Aligns m timestamp-inconsistent, partially missing series into a
maximum-weight set of non-conflicting tuples under time, position, and
model-consistency constraints, without imputing anything first.
"""

from .candidate import CandidateSet, generate_candidates
from .composers import (
    Alignment,
    compose_exact,
    compose_expectation,
    compose_greedy,
    compose_setpacking,
)
from .consistency import (
    ConsistencyModel,
    ConsistencyReport,
    consistency_delta,
    delta_report,
    fit_model,
    tuple_value_matrix,
)
from .core import (
    AlignedTuple,
    ConstraintConfig,
    SeriesTable,
    WeightParams,
    batch_weights,
    conflicts,
    phi_similarity,
    theta_similarity,
)
from .errors import AlignmentError, ConfigError, DataError, SizeError, StructuralError
from .evaluation import (
    GroundTruth,
    ScoreReport,
    generate_synthetic,
    inject_mcar,
    pair_accuracy,
    score,
)
from .tuning import TuningReport, determine_beta, determine_theta, determine_weights_and_delta

__version__ = "0.1.0"

__all__ = [
    "AlignedTuple", "Alignment", "AlignmentError", "CandidateSet", "ConfigError",
    "ConsistencyModel", "ConsistencyReport", "ConstraintConfig", "DataError",
    "GroundTruth", "ScoreReport", "SeriesTable", "SizeError", "StructuralError",
    "TuningReport", "batch_weights",
    "compose_exact", "compose_expectation", "compose_greedy", "compose_setpacking",
    "conflicts", "consistency_delta", "delta_report", "determine_beta",
    "determine_theta", "determine_weights_and_delta", "fit_model",
    "generate_candidates", "generate_synthetic", "inject_mcar", "pair_accuracy",
    "phi_similarity", "score", "theta_similarity", "tuple_value_matrix",
]
