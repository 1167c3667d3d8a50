"""Fairness and performance measurement over flattened parameter vectors."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Shard
from .embedding import _NORM_EPS, cosine
from .errors import NumericalError
from .nn import ModelSpec, forward


@dataclass(frozen=True)
class RoundReport:
    """Observable output of one simulated round.

    ``accuracies[i]`` is the global model's accuracy on the test slice of
    client ``client_ids[i]``: one float64 per tested client, in the order of
    the run's evaluation plan, whose ``client_ids`` every report shares.
    """

    round: int
    mean_accuracy: float
    client_ids: tuple[int, ...] = field(repr=False)
    accuracies: array = field(repr=False)
    d_cosine_mean: float
    d_manhattan_mean: float
    contrastive_losses: dict[int, float | None] = field(repr=False)
    learning_rate: float = 0.0
    online: frozenset[int] = frozenset()

    @property
    def num_online(self) -> int:
        return len(self.online)

    @property
    def mean_contrastive_loss(self) -> float:
        values = [v for v in self.contrastive_losses.values() if v is not None]
        return float(np.add.reduce(values) / len(values)) if values else math.nan


@dataclass(frozen=True)
class EvaluationPlan:
    """Every non-empty test slice of a run, as one block in client-id order.

    Slice ``i`` is ``data[starts[i] : starts[i] + sizes[i]]`` and belongs to
    client ``client_ids[i]``. For ``split_test`` shards the block is a view
    of the array the slices already lie in; other shards are concatenated.
    """

    data: Dataset
    starts: np.ndarray
    sizes: np.ndarray
    client_ids: tuple[int, ...]


def _address(array_: np.ndarray) -> int:
    return array_.__array_interface__["data"][0]


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The non-empty ``parts`` as one array along axis 0.

    When each part is the row slice of one C-contiguous array that follows
    the part before it, that is a slice of the array, with no copy;
    otherwise a concatenated copy.
    """
    owner = parts[0].base
    if isinstance(owner, np.ndarray) and owner.flags.c_contiguous and owner.ndim == parts[0].ndim:
        start = end = (_address(parts[0]) - _address(owner)) // owner.strides[0]
        for part in parts:
            if part.__array_interface__ != owner[end : end + len(part)].__array_interface__:
                break
            end += len(part)
        else:
            return owner[start:end]
    return np.concatenate(parts)


def evaluation_plan(spec: ModelSpec, shards: list[Shard]) -> EvaluationPlan:
    """Build the plan ``evaluate_accuracy`` scores each round against.

    Clients with empty test slices are left out; at least one shard has a
    test row (``run_simulation`` checks it).
    """
    tested = [shard for shard in shards if len(shard.test)]
    data = Dataset(_joined([shard.test.inputs for shard in tested]),
                   _joined([shard.test.labels for shard in tested]), spec.num_classes)
    sizes = np.array([len(shard.test) for shard in tested])
    starts = np.cumsum(sizes) - sizes
    return EvaluationPlan(data, starts, sizes, tuple(shard.client_id for shard in tested))


def evaluate_accuracy(global_params: np.ndarray, spec: ModelSpec,
                      plan: EvaluationPlan) -> tuple[float, array]:
    """The unweighted mean of the per-client accuracies, and those accuracies.

    The accuracies are an ``array('d')`` aligned with ``plan.client_ids``.
    One forward pass scores every slice; hit counts are split back per
    client. Argmax ties resolve to the lowest class index. Raises
    NumericalError when the last hidden layer is dead on every test row.
    """
    embeddings, logits = forward(global_params, spec, plan.data)
    # a live model settles on its first row; only a dying one reads every row
    if not (np.maximum.reduce(embeddings[0]) > 0.0 or np.maximum.reduce(embeddings, axis=None) > 0.0):
        raise NumericalError(f"global model: last hidden layer is dead on all "
                             f"{len(embeddings)} test rows")
    hits = np.add.reduceat(logits.argmax(axis=1) == plan.data.labels, plan.starts,
                           dtype=np.int64)
    accuracies = hits / plan.sizes
    return float(np.add.reduce(accuracies) / len(accuracies)), array("d", accuracies.tobytes())


def fairness_summary(local_models: dict[int, np.ndarray],
                     global_params: np.ndarray) -> tuple[float, float]:
    """Unweighted mean angular and Manhattan distances, locals vs global.

    The angular distance is arccos(cos(local, global)) in [0, pi] radians,
    the Manhattan distance the L1 norm of local - global. A client with a
    zero-norm model (or any client, when the global model has zero norm)
    has no angle and is skipped from the angular mean only; that mean is NaN
    when every client is skipped.
    """
    global_norm = math.sqrt(global_params.dot(global_params))  # np.linalg.norm's formula
    cosines = []
    manhattans = []
    for params in local_models.values():
        norm = math.sqrt(params.dot(params))
        if not (norm < _NORM_EPS or global_norm < _NORM_EPS):
            cosines.append(float(np.arccos(cosine(params, global_params, norm, global_norm))))
        manhattans.append(float(np.add.reduce(np.abs(params - global_params))))
    cos_mean = float(np.add.reduce(cosines) / len(cosines)) if cosines else math.nan
    return cos_mean, float(np.add.reduce(manhattans) / len(manhattans))  # as np.mean does
