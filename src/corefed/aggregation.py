"""Contribution-aware aggregation and the FedAvg baseline.

Participation is tracked per round in a single-writer ledger. Weights
combine an inverse-frequency reward (1/f)^gamma over a dynamic sliding
window with a sigmoid alignment reward sigma(k * rho), normalized over the
round's aggregation membership. Recently inactive clients re-enter the sum
through their cached pseudo-gradients.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NumericalError, ProtocolError

_SIMPLEX_TOL = 1e-9


class ParticipationLedger:
    """Per-client participation history plus cached gradients/similarities.

    Mutated only during the serial aggregation phase of each round.
    """

    def __init__(self):
        self.history: dict[int, frozenset[int]] = {}
        self.last_participation: dict[int, int] = {}
        self.last_gradient: dict[int, np.ndarray] = {}
        self.last_similarity: dict[int, float] = {}
        self._rounds: dict[int, list[int]] = {}  # client -> sorted rounds it took part in

    @property
    def distinct_count(self) -> int:
        """Number of distinct clients that have participated so far."""
        return len(self._rounds)

    def record_round(self, t: int, online) -> None:
        if t in self.history:
            raise InvariantError(f"round {t} already recorded")
        members = frozenset(int(c) for c in online)
        self.history[t] = members
        for cid in members:
            rounds = self._rounds.setdefault(cid, [])
            insort(rounds, t)
            self.last_participation[cid] = rounds[-1]

    def participation_count(self, client: int, first: int, last: int) -> int:
        """Number of rounds in first..last (inclusive) the client took part in."""
        rounds = self._rounds.get(client, ())
        return max(0, bisect_left(rounds, last + 1) - bisect_left(rounds, first))

    def cache_gradient(self, client: int, grad: np.ndarray) -> None:
        self.last_gradient[client] = np.array(grad, dtype=np.float64, copy=True)

    def cache_similarity(self, client: int, similarity: float) -> None:
        self.last_similarity[client] = float(similarity)


@dataclass(frozen=True)
class WeightAssignment:
    """Normalized fairness weights for one round's aggregation membership."""

    weights: dict[int, float]
    window_tau: int
    frequencies: dict[int, float] = field(repr=False)
    similarities: dict[int, float] = field(repr=False)

    def __post_init__(self):
        total = sum(self.weights.values())
        if not (all(w > 0 for w in self.weights.values()) and abs(total - 1.0) <= _SIMPLEX_TOL):
            raise InvariantError(f"weights leave the simplex (sum={total!r})")
        if any(not 0.0 < f <= 1.0 for f in self.frequencies.values()):
            raise InvariantError("frequencies must lie in (0, 1]")


def window_length(ledger: ParticipationLedger, num_online: int) -> int:
    """Dynamic window tau = ceil(M / num_online), floored at 1."""
    if num_online < 1:
        raise ValueError("num_online must be >= 1")
    m = ledger.distinct_count
    return max(1, -(-m // num_online))


def participation_frequency(ledger: ParticipationLedger, client: int, t: int, tau: int) -> float:
    """Fraction of rounds t-tau+1..t (current round included) the client was online.

    Rounds before round 1 count as non-participation.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return ledger.participation_count(client, max(1, t - tau + 1), t) / tau


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def fairness_weights(members: list[int], frequencies: dict[int, float],
                     similarities: dict[int, float], gamma: float, k: float,
                     window_tau: int = 1) -> WeightAssignment:
    """Normalized (1/f_i)^gamma * sigmoid(k * rho_i) over the membership.

    Raises NumericalError naming the client when a score or the score total
    leaves the float range, or a score or weight underflows to 0.
    """
    if not members:
        raise ProtocolError("fairness weights need at least one member")
    if gamma < 0 or k < 0:
        raise ValueError("gamma and k must be non-negative")
    scores = {}
    for cid in members:
        f = frequencies[cid]
        if f <= 0:
            raise InvariantError(f"client {cid} has non-positive frequency {f}")
        try:
            reward = (1.0 / f) ** gamma
        except OverflowError:
            raise NumericalError(f"client {cid}: (1/f)^gamma overflows at f={f!r}, "
                                 f"gamma={gamma!r}") from None
        scores[cid] = reward * _sigmoid(k * similarities[cid])
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
    return WeightAssignment(
        weights=weights,
        window_tau=window_tau,
        frequencies={cid: frequencies[cid] for cid in members},
        similarities={cid: similarities[cid] for cid in members},
    )


def pseudo_gradient(global_params: np.ndarray, local_params: np.ndarray, eta: float) -> np.ndarray:
    """Effective gradient implied by a client's local update: (w_t - w_i) / eta."""
    if global_params.shape != local_params.shape:
        raise ValueError("global and local parameter vectors have different lengths")
    if eta <= 0:
        raise ValueError("eta must be positive")
    return (global_params - local_params) / eta


def reuse_gradient(ledger: ParticipationLedger, client: int, t: int, tau: int,
                   current: np.ndarray | None = None) -> np.ndarray | None:
    """Gradient-reuse rule over the sliding window.

    Online clients (current supplied) contribute their fresh gradient and
    refresh the cache; clients whose last round is at most tau back reuse the
    cached one (boundary inclusive); older clients contribute nothing.
    """
    if current is not None:
        ledger.cache_gradient(client, current)
        return current
    last = ledger.last_participation.get(client)
    if last is None or t - last > tau:
        return None
    return ledger.last_gradient[client]


def aggregate(global_params: np.ndarray, assignment: WeightAssignment,
              gradients: dict[int, np.ndarray], eta: float) -> np.ndarray:
    """Global update w_{t+1} = w_t - eta * sum_i w_i * g_i."""
    if set(assignment.weights) != set(gradients):
        raise ProtocolError("weight assignment and gradient map cover different clients")
    if eta <= 0:
        raise ValueError("eta must be positive")
    step = np.zeros_like(global_params)
    for cid, weight in assignment.weights.items():
        step += weight * gradients[cid]
    return global_params - eta * step


def fedavg_aggregate(local_models: dict[int, np.ndarray], sizes: dict[int, int]) -> np.ndarray:
    """Data-size-weighted model average sum_i (n_i / n) * w_i."""
    if not local_models:
        raise ProtocolError("fedavg needs at least one local model")
    if set(local_models) != set(sizes):
        raise ProtocolError("local models and sizes cover different clients")
    if any(n <= 0 for n in sizes.values()):
        raise ValueError("shard sizes must be positive")
    total = sum(sizes.values())
    result = np.zeros_like(next(iter(local_models.values())))
    for cid, params in local_models.items():
        result += (sizes[cid] / total) * params
    return result


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
    """
    online = sorted(int(c) for c in online)
    if set(fresh_gradients) != set(online) or set(fresh_similarities) != set(online):
        raise ProtocolError("fresh gradient/similarity maps must be keyed exactly by the online set")
    tau = window_length(ledger, len(online))
    ledger.record_round(t, online)

    frequencies, similarities, gradients = {}, {}, {}
    for cid in online:
        frequencies[cid] = participation_frequency(ledger, cid, t, tau)
        similarities[cid] = float(fresh_similarities[cid])
        gradients[cid] = reuse_gradient(ledger, cid, t, tau, current=fresh_gradients[cid])
        ledger.cache_similarity(cid, similarities[cid])

    reused = sorted(cid for cid, last in ledger.last_participation.items()
                    if cid not in frequencies and t - last <= tau)
    for cid in reused:
        cached = reuse_gradient(ledger, cid, t, tau)
        if cached is None:
            raise InvariantError(f"client {cid} qualified for reuse but has no cached gradient")
        frequencies[cid] = max(participation_frequency(ledger, cid, t, tau), 1.0 / tau)
        similarities[cid] = ledger.last_similarity[cid]
        gradients[cid] = cached

    try:
        assignment = fairness_weights(online + reused, frequencies, similarities, gamma, k,
                                      window_tau=tau)
    except NumericalError as exc:
        raise NumericalError(f"round {t}: {exc}") from None
    return assignment, gradients
