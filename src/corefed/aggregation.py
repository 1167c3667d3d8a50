"""Contribution-aware aggregation and the FedAvg baseline.

Participation is tracked per client in a single-writer ledger. Weights
combine an inverse-frequency reward (1/f)^gamma over a dynamic sliding
window with a sigmoid alignment reward sigma(k * rho), normalized over the
round's aggregation membership. Recently inactive clients re-enter the sum
through their cached pseudo-gradients.

Arguments are trusted: eta, gamma and k come from a validated config, the
parameter vectors and gradients of one run share the model's length, every
round has at least one online client, ``online`` is an ascending list of
client ids, and the maps a function receives are keyed by the same clients.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NumericalError


class ParticipationLedger:
    """Each client's participation rounds plus cached gradients/similarities.

    Rounds are recorded in ascending order, each after ``last_round``, and
    client ids start at 1, as shards are numbered. ``cache`` stores a
    client's gradient and similarity together, so a cached client has both.
    Mutated only during the serial aggregation phase of each round. Cached
    gradients are stored read-only, so ``gradient_digests`` (the sha256 of a
    gradient's checkpoint record, filled by ``checkpoint.save_ledger``) stays
    valid until ``cache`` replaces that gradient.
    """

    def __init__(self):
        self.client_rounds: dict[int, list[int]] = {}  # client -> ascending rounds it took part in
        self.last_round = 0
        self.last_gradient: dict[int, np.ndarray] = {}
        self.gradient_digests: dict[int, str] = {}
        self.last_similarity: dict[int, float] = {}

    def record_round(self, t: int, online) -> None:
        if t <= self.last_round:
            raise InvariantError(f"round {t} recorded after round {self.last_round}")
        clients = {int(c) for c in online}
        if min(clients, default=1) < 1:
            raise InvariantError(f"round {t} records client {min(clients)}; client ids start at 1")
        self.last_round = t
        for cid in clients:
            self.client_rounds.setdefault(cid, []).append(t)

    def cache(self, client: int, gradient: np.ndarray, similarity: float) -> None:
        cached = np.array(gradient, dtype=np.float64, copy=True)
        cached.flags.writeable = False
        self.last_gradient[client] = cached
        self.gradient_digests.pop(client, None)
        self.last_similarity[client] = float(similarity)


@dataclass(frozen=True)
class WeightAssignment:
    """Normalized fairness weights for one round's aggregation membership."""

    weights: dict[int, float]
    window_tau: int
    frequencies: dict[int, float] = field(repr=False)
    similarities: dict[int, float] = field(repr=False)


def window_length(ledger: ParticipationLedger, num_online: int) -> int:
    """Dynamic window tau = ceil(M / num_online), floored at 1, over the M clients seen so far."""
    return max(1, -(-len(ledger.client_rounds) // num_online))


def participation_frequency(ledger: ParticipationLedger, client: int, t: int, tau: int) -> float:
    """Fraction of rounds t-tau+1..t (current round included) the client was online.

    Rounds before round 1 count as non-participation.
    """
    rounds = ledger.client_rounds.get(client, ())
    return (bisect_left(rounds, t + 1) - bisect_left(rounds, max(1, t - tau + 1))) / tau


def fairness_weights(members: list[int], frequencies: dict[int, float],
                     similarities: dict[int, float], gamma: float, k: float) -> dict[int, float]:
    """Normalized (1/f_i)^gamma * sigmoid(k * rho_i) over the membership.

    Raises NumericalError naming the client when a score is not positive (a
    NaN rho, or the sigmoid underflowing), the score total overflows, or a
    weight underflows to 0. The config's gamma limit keeps (1/f)^gamma finite.
    """
    scores = {}
    for cid in members:
        sigmoid = 1.0 / (1.0 + np.exp(-(k * similarities[cid])))
        scores[cid] = (1.0 / frequencies[cid]) ** gamma * sigmoid
        if not scores[cid] > 0:
            raise NumericalError(f"client {cid}: score {float(scores[cid])!r} is not positive "
                                 f"(k={k!r}, rho={similarities[cid]!r})")
    total = sum(scores.values())
    if not math.isfinite(total):
        top = max(scores, key=scores.__getitem__)
        raise NumericalError(f"client {top}: weight total overflows (its score is "
                             f"{scores[top]!r}, gamma={gamma!r})")
    weights = {cid: s / total for cid, s in scores.items()}
    # Not redundant: the second division moves the last bit of some weights,
    # and every fair-mode output is pinned to those bits.
    renorm = sum(weights.values())
    weights = {cid: w / renorm for cid, w in weights.items()}
    for cid, weight in weights.items():
        if not weight > 0:
            raise NumericalError(f"client {cid}: weight underflows to {float(weight)!r} "
                                 f"(its score is {float(scores[cid])!r} of a total "
                                 f"{float(total)!r})")
    return weights


def pseudo_gradient(global_params: np.ndarray, local_params: np.ndarray, eta: float) -> np.ndarray:
    """Effective gradient implied by a client's local update: (w_t - w_i) / eta."""
    return (global_params - local_params) / eta


def reuse_gradient(ledger: ParticipationLedger, client: int, t: int,
                   tau: int) -> np.ndarray | None:
    """Gradient-reuse rule over the sliding window.

    A client whose last round is at most tau back (boundary inclusive, the
    current round counting as age 0) contributes its cached gradient; older
    clients contribute nothing.
    """
    rounds = ledger.client_rounds.get(client)
    if rounds is None or t - rounds[-1] > tau:
        return None
    return ledger.last_gradient[client]


def _weighted_sum(weights: dict[int, float], vectors: dict[int, np.ndarray]) -> np.ndarray:
    """sum_i w_i * v_i, added in the order of ``weights``: the output bits depend on it."""
    total = np.zeros_like(next(iter(vectors.values())))
    term = np.empty_like(total)
    for cid, weight in weights.items():
        total += np.multiply(weight, vectors[cid], out=term)
    return total


def aggregate(global_params: np.ndarray, weights: dict[int, float],
              gradients: dict[int, np.ndarray], eta: float) -> np.ndarray:
    """Global update w_{t+1} = w_t - eta * sum_i w_i * g_i."""
    return global_params - eta * _weighted_sum(weights, gradients)


def fedavg_aggregate(local_models: dict[int, np.ndarray], sizes: dict[int, int]) -> np.ndarray:
    """Data-size-weighted model average sum_i (n_i / n) * w_i."""
    total = sum(sizes.values())
    return _weighted_sum({cid: sizes[cid] / total for cid in local_models}, local_models)


def assemble_round(ledger: ParticipationLedger, online, fresh_gradients: dict[int, np.ndarray],
                   fresh_similarities: dict[int, float], t: int, gamma: float,
                   k: float) -> tuple[WeightAssignment, dict[int, np.ndarray]]:
    """Build one round's aggregation membership, weights and gradient map.

    Membership is the online set plus recently inactive clients within the
    reuse window; reused members contribute cached gradients and cached
    similarities. This is the ledger's single mutation point per round: it
    records participation and refreshes the caches.

    A reused member whose last round sits just outside the frequency window
    (the boundary t - t_i = tau) would read frequency 0 from the window sum;
    its frequency is floored at 1/tau so membership never divides by zero.
    The floor never moves an online member, whose count is at least 1.
    """
    tau = window_length(ledger, len(online))
    ledger.record_round(t, online)

    for cid in online:
        ledger.cache(cid, fresh_gradients[cid], fresh_similarities[cid])
    # Online members, then reused ones, each ascending: the output bits depend on this order.
    gradients = {cid: ledger.last_gradient[cid] for cid in online}
    for cid in sorted(ledger.client_rounds.keys() - gradients.keys()):
        cached = reuse_gradient(ledger, cid, t, tau)
        if cached is not None:
            gradients[cid] = cached
    frequencies = {cid: max(participation_frequency(ledger, cid, t, tau), 1.0 / tau)
                   for cid in gradients}
    similarities = {cid: ledger.last_similarity[cid] for cid in gradients}
    weights = fairness_weights(list(gradients), frequencies, similarities, gamma, k)
    return WeightAssignment(weights, tau, frequencies, similarities), gradients
