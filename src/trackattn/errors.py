"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: config/contract problems exit 2,
data problems exit 3, numerical aborts exit 4.
"""


class TrackAttnError(Exception):
    """Base class for all package errors."""


class DimensionError(TrackAttnError, ValueError):
    """Operand shapes do not conform."""


class ContractError(TrackAttnError, ValueError):
    """A documented precondition was violated."""


class IngestionError(TrackAttnError, ValueError):
    """An input's content is malformed or does not fit the run (a dataset
    or sidecar row, a non-finite checkpoint payload, a dataset or sidecar
    shape the checkpoint does not match, an empty split part); carries the
    offending line number where there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MetricUndefinedError(TrackAttnError, ValueError):
    """A metric has no defined value for the given inputs."""


class NumericalError(TrackAttnError, RuntimeError):
    """Training produced a non-finite loss."""
