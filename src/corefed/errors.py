"""Exception types: a fault in the input is a ValueError, one in the run a RuntimeError."""


class ConfigError(ValueError):
    """Invalid experiment configuration or malformed config file."""


class FormatError(ValueError):
    """A structured file (IDX data, checkpoint) violates its format or ends before its payload."""


class InvariantError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class ClientSkipped(RuntimeError):
    """Raised nowhere (an empty shard is a ConfigError); ``perfbench/tracer.py`` imports it."""


class NumericalError(RuntimeError):
    """A computation left the finite float range or degenerated; names the round and client."""
