"""Feed-forward network with exact manual backpropagation.

The model is a relu MLP whose last hidden layer output is the sample
embedding; a final linear layer produces class logits. All parameters live
in one flat float64 vector with a deterministic layer-major layout
(per layer: weight matrix row-major, then bias), so federated aggregation
is plain vector arithmetic.

Arguments are trusted: the data a function receives fits its ``ModelSpec``
(checked once per run by config validation, ``simulation.build_shards`` or
``simulation.run_simulation``), and rates and batch sizes come from a
validated config. Nothing here re-checks them per call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Shard
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
        # (fan_in, fan_out, weight start, bias start, bias end) per layer in the
        # flat vector; not a dataclass field, so equality and hashing ignore it
        widths = (self.input_dim, *self.hidden_dims, self.num_classes)
        layout, offset = [], 0
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bias = offset + fan_in * fan_out
            layout.append((fan_in, fan_out, offset, bias, bias + fan_out))
            offset = bias + fan_out
        object.__setattr__(self, "_layout", tuple(layout))

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) for every layer including the output layer."""
        return [(fan_in, fan_out) for fan_in, fan_out, *_ in self._layout]

    def num_params(self) -> int:
        return self._layout[-1][-1]


def unflatten(params: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat vector into per-layer (W, b) views (no copies)."""
    return [(params[start:bias].reshape(fan_in, fan_out), params[bias:end])
            for fan_in, fan_out, start, bias, end in spec._layout]


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


def _relu_layers(layers, inputs: np.ndarray) -> list[np.ndarray]:
    """Activations of every hidden layer, each built in its own new array.

    ``h = a @ w; h += b; maximum(h, 0, out=h)`` gives the same bits as
    ``maximum(a @ w + b, 0)`` without its two temporaries; ``inputs`` is
    never written.
    """
    activations = []
    activation = inputs
    for w, b in layers:
        activation = activation @ w
        activation += b
        np.maximum(activation, 0.0, out=activation)
        activations.append(activation)
    return activations


def forward(params: np.ndarray, spec: ModelSpec, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Return (embeddings, logits): last hidden activations and class scores."""
    layers = unflatten(params, spec)
    embeddings = _relu_layers(layers[:-1], data.inputs)[-1]
    w_out, b_out = layers[-1]
    logits = embeddings @ w_out
    logits += b_out
    return embeddings, logits


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    if len(logits) != len(labels):
        raise ValueError("logits and labels disagree on batch size")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


def backward(params: np.ndarray, spec: ModelSpec, batch: Dataset,
             out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ``loss(forward(...))`` w.r.t. the flat parameter vector;
    ``batch`` must be non-empty.

    The gradient is written into ``out`` (a new vector when None) through its
    per-layer views, and ``out`` is returned.
    """
    layers = unflatten(params, spec)
    grad = np.empty(spec.num_params()) if out is None else out
    grads = unflatten(grad, spec)
    n = len(batch.inputs)

    activations = [batch.inputs, *_relu_layers(layers[:-1], batch.inputs)]
    w_out, b_out = layers[-1]
    delta = activations[-1] @ w_out
    delta += b_out

    # softmax in place on the logits, then d(loss)/d(logits)
    delta -= delta.max(axis=1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= delta.sum(axis=1, keepdims=True)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n

    last = len(layers) - 1
    for layer_index in range(last, -1, -1):
        if layer_index < last:
            # back through the layer above; nothing reads the product through the input layer
            delta = delta @ layers[layer_index + 1][0].T
            delta *= activations[layer_index + 1] > 0.0
        gw, gb = grads[layer_index]
        np.matmul(activations[layer_index].T, delta, out=gw)
        delta.sum(axis=0, out=gb)
    return grad


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """Update ``params`` in place to ``params - lr * grad``; ``grad`` is scaled by ``lr``."""
    grad *= lr
    params -= grad


def local_train(params: np.ndarray, spec: ModelSpec, shard: Shard, epochs: int,
                batch_size: int, lr: float, rng: np.random.Generator) -> np.ndarray:
    """Mini-batch SGD over a seeded shuffle of the shard's training data.

    Runs ``epochs`` full passes; the last partial batch is trained on, not
    dropped. A fixed ``rng`` state makes the result bitwise reproducible.
    Returns a new vector and leaves ``params`` unchanged. Raises
    ``ClientSkipped`` when the shard has no training data.
    """
    n = len(shard.train)
    if n == 0:
        raise ClientSkipped(f"client {shard.client_id} has no training data")
    current = params.copy()
    grad = np.empty_like(current)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = shard.train.subset(order[start : start + batch_size])
            sgd_step(current, backward(current, spec, batch, grad), lr)
    return current
