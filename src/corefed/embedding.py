"""Server-side embedding machinery.

Client embeddings are means of unit-normalized per-sample feature vectors;
the global embedding is their mean over the round's participants. The
contrastive score is a logged diagnostic only: weight effects flow entirely
through the alignment/distillation path and the similarity it produces.

Arguments are trusted: beta and tau_c come from a validated config, each
embedding map is keyed by the round's participants, and every shard passed
to ``client_embedding`` has already trained this round.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations

import numpy as np

from .data import Shard
from .errors import NumericalError
from .nn import ModelSpec, forward

logger = logging.getLogger(__name__)

_NORM_EPS = 1e-12


def client_embedding(params: np.ndarray, spec: ModelSpec, shard: Shard) -> np.ndarray:
    """Mean of unit-normalized feature embeddings over the client's train set.

    Samples whose embedding norm is below 1e-12, or not a number, are
    skipped and counted. If every sample degenerates, the last hidden layer
    is dead on this client's data, and NumericalError names the client.
    """
    features, _ = forward(params, spec, shard.train)
    norms = np.sqrt(np.add.reduce(features * features, axis=1))  # np.linalg.norm's formula
    usable = norms >= _NORM_EPS
    count = np.count_nonzero(usable)
    if not count:
        raise NumericalError(f"client {shard.client_id}: all {len(norms)} sample embeddings "
                             f"are degenerate (dead last hidden layer)")
    if count < len(norms):
        logger.warning("client %d: skipped %d/%d near-zero sample embeddings",
                       shard.client_id, len(norms) - count, len(norms))
        features, norms = features[usable], norms[usable]
    features /= norms[:, None]
    return np.add.reduce(features, axis=0) / count  # ndarray.mean's sum, then its division


def global_embedding(embeddings: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of the participating clients' embeddings."""
    return np.add.reduce(np.stack(embeddings), axis=0) / len(embeddings)  # ndarray.mean's steps


def cosine(a: np.ndarray, b: np.ndarray, norm_a=None, norm_b=None) -> float:
    """Cosine similarity clamped to [-1, 1] (NaN passes); 0 when either input is near-zero.
    ``norm_a``/``norm_b``, when given, are ``np.linalg.norm``'s root of ``a.dot(a)``/``b.dot(b)``."""
    norm_a = math.sqrt(a.dot(a)) if norm_a is None else norm_a
    norm_b = math.sqrt(b.dot(b)) if norm_b is None else norm_b
    if norm_a < _NORM_EPS or norm_b < _NORM_EPS:
        return 0.0
    return float(min(max(a.dot(b) / (norm_a * norm_b), -1.0), 1.0))


def contrastive_loss(positive: float, negatives: list[float], tau_c: float) -> float | None:
    """Temperature-scaled InfoNCE score of a client against its peers.

    ``positive`` is the client's cosine with the global embedding (the
    positive pair), ``negatives`` its cosines with the other clients'
    embeddings; their order fixes the bits of the max and the log-sum-exp.
    Undefined without peers (returns None, never 0).
    """
    if not negatives:
        return None
    scaled = np.array(negatives) / tau_c
    peak = np.maximum.reduce(scaled)
    log_denominator = peak + np.log(np.add.reduce(np.exp(scaled - peak)))
    return float(log_denominator - positive / tau_c)


def alignment_vector(score: float, z_global: np.ndarray) -> np.ndarray:
    """Global embedding scaled by the client's alignment score cos(z_i, z_g)."""
    return score * z_global


def distill(z_i: np.ndarray, z_align: np.ndarray, beta: float) -> np.ndarray:
    """Convex pull of the client embedding toward its alignment target."""
    return z_i + beta * (z_align - z_i)


def build_alignment_records(embeddings: dict[int, np.ndarray], to_global: dict[int, float],
                            z_global: np.ndarray, beta: float, tau_c: float
                            ) -> tuple[dict[int, float], dict[int, float | None]]:
    """Refine each participant's raw similarity ``to_global[cid]``, its
    ``cosine(z_i, z_global)``, for one round.

    For each participant: alignment vector, distilled embedding and the
    refined-vs-global similarity used by the aggregation weights, plus the
    contrastive diagnostic. Each cosine between two embeddings is computed
    once (``cosine`` is symmetric), and so is each norm; a client's negatives
    follow the order of ``embeddings``. Returns (similarities, contrastive losses),
    both keyed by client id in ascending order.
    """
    norms = {cid: math.sqrt(z.dot(z)) for cid, z in embeddings.items()}
    between = {}
    for a, b in combinations(embeddings, 2):
        between[a, b] = between[b, a] = cosine(embeddings[a], embeddings[b], norms[a], norms[b])
    similarities, losses = {}, {}
    for cid in sorted(embeddings):
        raw = embeddings[cid]
        refined = distill(raw, alignment_vector(to_global[cid], z_global), beta)
        similarities[cid] = cosine(refined, z_global)
        losses[cid] = contrastive_loss(
            to_global[cid], [between[cid, peer] for peer in embeddings if peer != cid], tau_c)
    return similarities, losses
