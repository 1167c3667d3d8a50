"""Deterministic random-stream derivation.

Every source of randomness in a run is a substream derived from the master
seed plus a purpose label (and, where relevant, round and client indices).
Substreams are pure functions of those values, so changing e.g. the
algorithm under test cannot perturb the data partition or the per-round
client samples.
"""

from __future__ import annotations

import numpy as np

# Stable codes per purpose; appending is fine, renumbering breaks replay.
_PURPOSES = {
    "dataset": 1,
    "partition": 2,
    "split": 3,
    "init": 4,
    "sampling": 5,
    "shuffle": 6,
}


def substream(seed: int, purpose: str, round_index: int = 0, client_id: int = 0) -> np.random.Generator:
    """Return the generator for (seed, purpose, round, client)."""
    entropy = [int(seed), _PURPOSES[purpose], int(round_index), int(client_id)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, purpose: str) -> int:
    """Collapse a substream identity to a single integer seed.

    Used for operations whose public signature takes a plain seed
    (dataset generation, partitioning).
    """
    ss = np.random.SeedSequence([int(seed), _PURPOSES[purpose]])
    return int(ss.generate_state(1, np.uint64)[0])
