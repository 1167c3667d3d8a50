"""A reference for corefed's rounds, written straight from the method's equations.

It loops over clients one by one and keeps the window and the participation
frequencies as exact fractions. Of the simulator it calls only local SGD
(``local_train``) and the client embedding (``client_embedding``); the
sampling draw, the alignment, the window, the reuse rule, the weights and
both aggregation steps are restated here.

Per round t, with K clients online and M_t clients seen before round t:

- tau_t = max(1, ceil(M_t / K));
- f_i = |{s in (t - tau_t, t] : i online at s}| / tau_t, floored at 1 / tau_t;
- members: the online clients, and every earlier client i whose last round
  t_i has t - t_i <= tau_t, which reuses its cached pseudo-gradient;
- rho_i = cos(z_i, z_g), the raw similarity; with alignment the refined
  cos(z_i + beta (rho_i z_g - z_i), z_g) replaces it;
- omega_i proportional to (1 / f_i)^gamma sigmoid(k rho_i), summing to 1;
- fair step: w <- w - eta sum_i omega_i g_i, g_i = (w_{t_i} - w_i) / eta;
  without the fair switch, FedAvg: w <- sum_i (n_i / n) w_i over the online.

Reproduction assumptions the paper leaves open, and this file fixes: the
1 / tau floor on f_i, reuse of a stale pseudo-gradient at full weight, and
rho from the distilled embedding when alignment is on.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from corefed.config import ALGORITHMS
from corefed.embedding import client_embedding
from corefed.nn import init_params, local_train
from corefed.rng import substream


def cos(a: np.ndarray, b: np.ndarray) -> float:
    """cos(a, b) clamped to [-1, 1]; 0 when either vector is near zero."""
    norm_a, norm_b = math.sqrt(float(a @ a)), math.sqrt(float(b @ b))
    if norm_a < 1e-12 or norm_b < 1e-12:
        return 0.0
    return min(1.0, max(-1.0, float(a @ b) / (norm_a * norm_b)))


def sampled(config, t: int) -> list[int]:
    """Round t's online clients: K of 1..N, uniform without replacement, from its own stream."""
    draw = substream(config.seed, "sampling", round_index=t).choice(
        config.clients, size=config.resolved_online(), replace=False)
    return sorted(int(c) + 1 for c in draw)


def similarities(config, align: bool, local: dict, shards: dict) -> dict[int, float]:
    """Each online client's rho: raw, or refined through its distilled embedding."""
    z = {i: client_embedding(local[i], config.model, shards[i]) for i in local}
    z_global = sum(z.values()) / len(z)
    rho = {}
    for i in local:
        rho[i] = cos(z[i], z_global)
        if align:
            distilled = z[i] + config.beta * (rho[i] * z_global - z[i])
            rho[i] = cos(distilled, z_global)
    return rho


def run_oracle(config, shards) -> tuple[list[dict], np.ndarray]:
    """Run ``config`` on ``shards``; return each fair round's record and the final parameters.

    A record holds the round's ``members`` (ascending), its window ``tau``,
    each member's frequency in ``frequencies`` (a Fraction) and its
    normalized ``weights``.
    """
    align, fair = ALGORITHMS[config.algorithm]
    shards = {shard.client_id: shard for shard in shards}
    online_per_round = config.resolved_online()
    w = init_params(config.model, substream(config.seed, "init"))
    history: dict[int, list[int]] = {}  # client -> the rounds it was online, ascending
    cache: dict[int, tuple[np.ndarray, float]] = {}  # client -> (g_i, rho_i) of its last round
    records = []
    for t in range(1, config.rounds + 1):
        eta = config.eta0 * config.lr_decay ** (t - 1)
        online = sampled(config, t)
        local = {i: local_train(w, config.model, shards[i], config.local_epochs,
                                config.batch_size, eta, substream(config.seed, "shuffle", t, i))
                 for i in online}
        if not fair:  # alignment alone moves no weight
            n = sum(len(shards[i].train) for i in online)
            w = sum(len(shards[i].train) / n * local[i] for i in online)
            continue
        rho = similarities(config, align, local, shards)
        tau = max(1, math.ceil(Fraction(len(history), online_per_round)))
        for i in online:
            history.setdefault(i, []).append(t)
            cache[i] = ((w - local[i]) / eta, rho[i])
        members = [i for i in sorted(cache) if t - history[i][-1] <= tau]
        frequencies = {}
        for i in members:
            count = sum(1 for s in history[i] if t - tau < s <= t)
            frequencies[i] = max(Fraction(count, tau), Fraction(1, tau))
        scores = {}
        for i in members:
            sigmoid = 1.0 / (1.0 + math.exp(-config.k * cache[i][1]))
            scores[i] = float(1 / frequencies[i]) ** config.gamma * sigmoid
        total = sum(scores.values())
        weights = {i: scores[i] / total for i in members}
        w = w - eta * sum(weights[i] * cache[i][0] for i in members)
        records.append({"members": members, "tau": tau, "frequencies": frequencies,
                        "weights": weights})
    return records, w
