"""Server-side embedding machinery.

Client embeddings are means of unit-normalized per-sample feature vectors;
the global embedding is their mean over the round's participants. The
contrastive score is a logged diagnostic only: weight effects flow entirely
through the alignment/distillation path and the similarity it produces.
"""

from __future__ import annotations

import logging

import numpy as np

from .data import Shard
from .errors import ConfigError, ProtocolError
from .nn import Batch, ModelSpec, forward

logger = logging.getLogger(__name__)

_NORM_EPS = 1e-12


def client_embedding(params: np.ndarray, spec: ModelSpec, shard: Shard) -> np.ndarray:
    """Mean of unit-normalized feature embeddings over the client's train set.

    Samples whose embedding norm is below 1e-12 are skipped and counted; if
    every sample degenerates the result is the zero vector (warned, training
    proceeds).
    """
    if not len(shard.train):
        raise ProtocolError(f"client {shard.client_id} has no training data to embed")
    features, _ = forward(params, spec, Batch(shard.train.inputs, shard.train.labels))
    norms = np.linalg.norm(features, axis=1)
    usable = norms >= _NORM_EPS
    skipped = int((~usable).sum())
    if not usable.any():
        logger.warning("client %d: all %d sample embeddings degenerate; using zero embedding",
                       shard.client_id, len(norms))
        return np.zeros(spec.embedding_dim)
    if skipped:
        logger.warning("client %d: skipped %d/%d near-zero sample embeddings",
                       shard.client_id, skipped, len(norms))
    unit = features[usable] / norms[usable, None]
    return unit.mean(axis=0)


def global_embedding(embeddings: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of the participating clients' embeddings."""
    if not embeddings:
        raise ProtocolError("global embedding needs at least one client embedding")
    stacked = np.stack(embeddings)
    if stacked.ndim != 2:
        raise ProtocolError("client embeddings have mismatched lengths")
    return stacked.mean(axis=0)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; 0 when either input is near-zero."""
    if a.shape != b.shape:
        raise ValueError("embeddings have different lengths")
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a < _NORM_EPS or norm_b < _NORM_EPS:
        return 0.0
    return float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))


def contrastive_loss(i: int, embeddings: dict[int, np.ndarray], z_global: np.ndarray,
                     tau_c: float) -> float | None:
    """Temperature-scaled InfoNCE score of client ``i`` against its peers.

    Positive pair is (client, global); negatives are the other clients'
    embeddings. Undefined with a single participant (returns None, never 0).
    """
    if tau_c <= 0:
        raise ConfigError("tau_c must be positive")
    if i not in embeddings:
        raise KeyError(f"client {i} not among round embeddings")
    if len(embeddings) < 2:
        return None
    z_i = embeddings[i]
    positive = cosine(z_i, z_global) / tau_c
    negatives = np.array([cosine(z_i, z) for cid, z in embeddings.items() if cid != i]) / tau_c
    peak = negatives.max()
    log_denominator = peak + np.log(np.exp(negatives - peak).sum())
    return float(log_denominator - positive)


def alignment_vector(z_i: np.ndarray, z_global: np.ndarray) -> np.ndarray:
    """Global embedding scaled by the client's alignment score cos(z_i, z_g)."""
    return cosine(z_i, z_global) * z_global


def distill(z_i: np.ndarray, z_align: np.ndarray, beta: float) -> np.ndarray:
    """Convex pull of the client embedding toward its alignment target."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0,1]")
    return z_i + beta * (z_align - z_i)


def build_alignment_records(embeddings: dict[int, np.ndarray], z_global: np.ndarray,
                            beta: float, tau_c: float
                            ) -> tuple[dict[int, float], dict[int, float | None]]:
    """Run the full per-client alignment pass for one round.

    For each participant: alignment vector, distilled embedding and the
    refined-vs-global similarity used by the aggregation weights, plus the
    contrastive diagnostic. Returns (similarities, contrastive losses), both
    keyed by client id in ascending order.
    """
    similarities, losses = {}, {}
    for cid in sorted(embeddings):
        raw = embeddings[cid]
        refined = distill(raw, alignment_vector(raw, z_global), beta)
        similarities[cid] = cosine(refined, z_global)
        losses[cid] = contrastive_loss(cid, embeddings, z_global, tau_c)
    return similarities, losses
