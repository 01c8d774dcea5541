"""Exception hierarchy. The CLI maps every one onto exit code 2 (bad input); exit
code 3 comes only from the degenerate-statistics flags of a completed ``run``."""


class StratifyError(Exception):
    """Base class for all package errors."""


class DataError(StratifyError):
    """Invalid input data: missing files/columns, unparseable cells, empty results."""


class ConfigError(StratifyError):
    """Invalid run configuration."""


class ClusteringError(StratifyError):
    """K-means / index computation preconditions violated."""


class TrainingError(StratifyError):
    """A model fitter received input it cannot train on."""


class ResamplingError(StratifyError):
    """SMOTE preconditions violated (e.g. single-class input)."""


class EvaluationError(StratifyError):
    """Metric computation impossible (e.g. single-class ROC)."""


class ExplainError(StratifyError):
    """Attribution failure: wrong model family, shape mismatch, or axiom violation."""
