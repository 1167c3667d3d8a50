"""Exception types shared across the simulator."""


class ConfigError(ValueError):
    """Invalid experiment configuration or malformed config file."""


class FormatError(ValueError):
    """A structured file (IDX data, checkpoint) violates its format."""


class TruncatedFileError(OSError):
    """A binary file ended before its declared payload."""


class PartitionError(RuntimeError):
    """Dirichlet partitioning could not satisfy its constraints."""


class ProtocolError(RuntimeError):
    """An aggregation-phase contract was violated (empty or mismatched inputs)."""


class MeasurementError(RuntimeError):
    """A metric is undefined for the given inputs (e.g. zero-norm model)."""


class InvariantError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class ClientSkipped(RuntimeError):
    """A sampled client cannot train: its shard has no training data."""


class NumericalError(RuntimeError):
    """A computation left the finite float range; names the round and client."""
