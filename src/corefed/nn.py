"""Feed-forward network with exact manual backpropagation.

The model is a relu MLP whose last hidden layer output is the sample
embedding; a final linear layer produces class logits. All parameters live
in one flat float64 vector with a deterministic layer-major layout
(per layer: weight matrix row-major, then bias), so federated aggregation
is plain vector arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import Shard
from .errors import ClientSkipped, ConfigError


def _as_width(value, field: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{field} must be an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer") from None


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the last hidden width is the embedding dim."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims",
                           tuple(_as_width(h, "hidden_dims") for h in self.hidden_dims))
        object.__setattr__(self, "input_dim", _as_width(self.input_dim, "input_dim"))
        object.__setattr__(self, "num_classes", _as_width(self.num_classes, "num_classes"))
        if self.input_dim < 1 or self.num_classes < 1:
            raise ConfigError("input_dim and num_classes must be positive")
        if not self.hidden_dims or any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden_dims must be a non-empty list of positive widths")
        if self.activation != "relu":
            raise ConfigError(f"unsupported activation {self.activation!r}")

    @property
    def embedding_dim(self) -> int:
        return self.hidden_dims[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for every layer including the output layer."""
        widths = (self.input_dim, *self.hidden_dims, self.num_classes)
        return list(zip(widths[:-1], widths[1:]))

    def num_params(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.layer_shapes())


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (batch, dim), labels must be (batch,)")
        if len(self.inputs) != len(self.labels) or not len(self.inputs):
            raise ValueError("batch must be non-empty with matching inputs/labels")


def unflatten(params: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into per-layer (W, b) views (no copies)."""
    if params.shape != (spec.num_params(),):
        raise ValueError(f"parameter vector has length {params.shape}, "
                         f"spec needs {spec.num_params()}")
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_shapes():
        w = params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = params[offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def flatten(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    parts = []
    for w, b in layers:
        parts.append(np.asarray(w, dtype=np.float64).ravel())
        parts.append(np.asarray(b, dtype=np.float64).ravel())
    return np.concatenate(parts)


def init_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-layer uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    layers = []
    for fan_in, fan_out in spec.layer_shapes():
        bound = 1.0 / np.sqrt(fan_in)
        layers.append((
            rng.uniform(-bound, bound, size=(fan_in, fan_out)),
            rng.uniform(-bound, bound, size=fan_out),
        ))
    return flatten(layers)


def _check_batch(spec: ModelSpec, batch: Batch) -> None:
    if batch.inputs.shape[1] != spec.input_dim:
        raise ConfigError(f"batch input dim {batch.inputs.shape[1]} != spec input_dim {spec.input_dim}")
    if len(batch.labels) and (batch.labels.min() < 0 or batch.labels.max() >= spec.num_classes):
        raise ConfigError("batch labels out of range for spec.num_classes")


def forward(params: np.ndarray, spec: ModelSpec, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Return (embeddings, logits): last hidden activations and class scores."""
    _check_batch(spec, batch)
    layers = unflatten(params, spec)
    activation = batch.inputs
    for w, b in layers[:-1]:
        activation = np.maximum(activation @ w + b, 0.0)
    w_out, b_out = layers[-1]
    return activation, activation @ w_out + b_out


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    if len(logits) != len(labels):
        raise ValueError("logits and labels disagree on batch size")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


def backward(params: np.ndarray, spec: ModelSpec, batch: Batch) -> np.ndarray:
    """Gradient of ``loss(forward(...))`` w.r.t. the flat parameter vector."""
    _check_batch(spec, batch)
    layers = unflatten(params, spec)
    n = len(batch.inputs)

    activations = [batch.inputs]
    for w, b in layers[:-1]:
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    w_out, b_out = layers[-1]
    logits = activations[-1] @ w_out + b_out

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    grads: list[tuple[np.ndarray, np.ndarray]] = [(activations[-1].T @ delta, delta.sum(axis=0))]
    upstream = delta @ w_out.T
    for layer_index in range(len(layers) - 2, -1, -1):
        w, _ = layers[layer_index]
        upstream = upstream * (activations[layer_index + 1] > 0.0)
        grads.append((activations[layer_index].T @ upstream, upstream.sum(axis=0)))
        upstream = upstream @ w.T
    grads.reverse()
    return flatten(grads)


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    if params.shape != grad.shape:
        raise ValueError("params and grad have different lengths")
    if lr <= 0:
        raise ValueError("lr must be positive")
    return params - lr * grad


def local_train(params: np.ndarray, spec: ModelSpec, shard: Shard, epochs: int,
                batch_size: int, lr: float, rng: np.random.Generator) -> np.ndarray:
    """Mini-batch SGD over a seeded shuffle of the shard's training data.

    Runs ``epochs`` full passes; the last partial batch is trained on, not
    dropped. A fixed ``rng`` state makes the result bitwise reproducible.
    Raises ``ClientSkipped`` when the shard has no training data.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(shard.train)
    if n == 0:
        raise ClientSkipped(f"client {shard.client_id} has no training data")
    current = params.copy()
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            batch = Batch(shard.train.inputs[idx], shard.train.labels[idx])
            current = sgd_step(current, backward(current, spec, batch), lr)
    return current
