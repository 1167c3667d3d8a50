"""Deterministic single-process simulator for fairness-aware federated learning.

Implements embedding-level representation alignment, contribution-aware
aggregation with participation tracking and gradient reuse, a FedAvg
baseline, and angular/Manhattan fairness metrics, all reproducible from a
single seed.
"""

from .config import ExperimentConfig, IdxSource, SyntheticSource, parse_config
from .metrics import RoundReport
from .simulation import rounds, run_simulation

__all__ = [
    "ExperimentConfig",
    "IdxSource",
    "SyntheticSource",
    "RoundReport",
    "parse_config",
    "rounds",
    "run_simulation",
]

__version__ = "0.1.0"
