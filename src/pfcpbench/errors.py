"""Exception families shared across the package.

Each family maps to a distinct CLI exit code (see `cli.EXIT_CODES`), so
batch callers can react to error classes without parsing messages.
"""


class PfcpBenchError(Exception):
    """Base class for all package errors."""


class IoError(PfcpBenchError):
    """Unreadable input or unwritable output path."""


class SchemaError(PfcpBenchError):
    """Feature-name / dimension mismatch against a governing schema."""


class GuidelineViolation(PfcpBenchError):
    """A training or evaluation guideline (GT1..GT4, GE1..GE3) was violated.

    The violated guideline id is kept machine-readable in ``guideline``.
    """

    def __init__(self, guideline: str, message: str):
        super().__init__(f"{guideline}: {message}")
        self.guideline = guideline


class FitError(PfcpBenchError):
    """A detector or ensemble could not be fitted on the given data."""


class PipelineError(PfcpBenchError):
    """Preprocessing produced an unusable result (e.g. no surviving features)."""


class GridSearchError(PfcpBenchError):
    """Hyperparameter search preconditions not met."""


class MetricError(PfcpBenchError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class MarginalsError(PfcpBenchError):
    """Empirical marginals requested from an empty or unusable source."""


class ConfigError(PfcpBenchError):
    """Malformed or inconsistent run configuration."""
