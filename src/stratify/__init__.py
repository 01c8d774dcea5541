"""stratify: two-stage learner-pattern discovery and per-pattern outcome prediction.

Stage 1 clusters learners by background and behavior features (K-means with a
majority vote over validity indices to pick K); stage 2 trains a classifier per
pattern on SMOTE-balanced training partitions and evaluates against the pooled
"direct" baseline that skips the clustering step.
"""

__version__ = "0.1.0"

from .errors import (
    ClusteringError,
    ConfigError,
    DataError,
    EvaluationError,
    ExplainError,
    ResamplingError,
    StratifyError,
    TrainingError,
)

__all__ = [
    "__version__",
    "StratifyError",
    "DataError",
    "ConfigError",
    "ClusteringError",
    "TrainingError",
    "EvaluationError",
    "ResamplingError",
    "ExplainError",
]
