"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import os
import time

import numpy as np
import pytest

from corefed.aggregation import (
    ParticipationLedger,
    assemble_round,
    fairness_weights,
    participation_frequency,
    reuse_gradient,
)
from corefed.cli import main
from corefed.config import ExperimentConfig, IdxSource, SyntheticSource
from corefed.data import Dataset
from corefed.embedding import alignment_vector, contrastive_loss, cosine, distill
from corefed.nn import ModelSpec, backward, forward
from corefed.simulation import run_simulation
from tests.test_nn import loss
from tests.test_simulation import equal_shards

# Desk-scale ablation benchmark: 10 clients, 4 classes, 32 dims,
# Dirichlet 0.5, 40% participation, 150 rounds; remaining knobs at the
# package defaults (batch 50 mirrors the reference training setup).
BENCHMARK_SEEDS = (1, 2, 3)
BENCHMARK = dict(rounds=150, clients=10, online_per_round=0.4, batch_size=50,
                 dirichlet_alpha=0.5,
                 dataset=SyntheticSource(num_classes=4, input_dim=32, n=2000))

_run_cache: dict = {}


def benchmark_final(algorithm: str, seed: int, gamma: float = 0.5, k: float = 2.0):
    key = (algorithm, seed, gamma, k)
    if key not in _run_cache:
        cfg = ExperimentConfig(algorithm=algorithm, seed=seed, gamma=gamma, k=k, **BENCHMARK)
        _run_cache[key] = run_simulation(cfg).reports[-1]
    return _run_cache[key]


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}{' [' + detail + ']' if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(20):
        hidden = tuple(int(h) for h in rng.integers(2, 8, size=rng.integers(1, 3)))
        spec = ModelSpec(int(rng.integers(2, 8)), hidden, int(rng.integers(2, 5)))
        assert spec.num_params() <= 500
        params = rng.uniform(-1, 1, spec.num_params())
        batch = Dataset(rng.normal(size=(5, spec.input_dim)),
                        rng.integers(0, spec.num_classes, size=5), spec.num_classes)
        analytic = backward(params, spec, batch)
        h = 1e-5
        for j in range(spec.num_params()):
            if abs(analytic[j]) <= 1e-8:
                continue
            bumped = params.copy()
            bumped[j] += h
            up = loss(forward(bumped, spec, batch)[1], batch.labels)
            bumped[j] -= 2 * h
            down = loss(forward(bumped, spec, batch)[1], batch.labels)
            relative = abs((up - down) / (2 * h) - analytic[j]) / abs(analytic[j])
            worst = max(worst, relative)
    elapsed = time.perf_counter() - start
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 10.0,
           f"worst relative error {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_neutral_parameter_reduction():
    start = time.perf_counter()
    shards = equal_shards(5, 12, num_classes=4, input_dim=8, seed=21)
    base = dict(rounds=10, clients=5, online_per_round=5, gamma=0.0, k=0.0, seed=17,
                batch_size=16, dataset=SyntheticSource(num_classes=4, input_dim=8, n=240))
    fair = run_simulation(ExperimentConfig(algorithm="corefed", **base), shards=shards)
    plain = run_simulation(ExperimentConfig(algorithm="fedavg", **base), shards=shards)
    gap = float(np.abs(fair.final_params - plain.final_params).max())
    elapsed = time.perf_counter() - start
    report(2, "neutral-parameter reduction", gap <= 1e-9 and elapsed < 30.0,
           f"max per-coordinate gap {gap:.3e}, {elapsed:.1f}s")


def test_criterion_3_weight_simplex_and_monotonicity():
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        members = list(range(m))
        freqs = {i: float(rng.uniform(1e-3, 1.0)) for i in members}
        sims = {i: float(rng.uniform(-1.0, 1.0)) for i in members}
        gamma = float(rng.uniform(0.0, 4.0))
        k = float(rng.uniform(0.0, 4.0))
        wa = fairness_weights(members, freqs, sims, gamma, k)
        ok &= abs(sum(wa.values()) - 1.0) < 1e-9
        ok &= all(w > 0 for w in wa.values())

        target = members[0]
        up_sims = {**sims, target: min(1.0, sims[target] + 0.05)}
        wa_rho = fairness_weights(members, freqs, up_sims, gamma, k)
        if k > 0 and up_sims[target] > sims[target]:
            ok &= wa_rho[target] > wa[target]
        up_freqs = {**freqs, target: min(1.0, freqs[target] * 1.1)}
        wa_f = fairness_weights(members, up_freqs, sims, gamma, k)
        if gamma > 0 and up_freqs[target] > freqs[target]:
            ok &= wa_f[target] < wa[target]
    elapsed = time.perf_counter() - start
    report(3, "weight simplex + monotonicity", ok and elapsed < 5.0,
           f"1000 draws, {elapsed:.1f}s")


def test_criterion_4_golden_values():
    embeddings = {1: np.array([1.0, 0.0, 0.0]),
                  2: np.array([0.0, 1.0, 0.0]),
                  3: np.array([0.0, 0.0, 1.0])}
    contrast = contrastive_loss(cosine(embeddings[1], np.array([1.0, 0.0, 0.0])),
                                [cosine(embeddings[1], embeddings[2]),
                                 cosine(embeddings[1], embeddings[3])], 1.0)
    ok_contrast = abs(contrast - (math.log(2) - 1)) < 1e-5

    z_i, z_global = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    refined = distill(z_i, alignment_vector(cosine(z_i, z_global), z_global), 0.5)
    ok_distill = np.allclose(refined, [0.5, 0.0], atol=1e-5)

    wa = fairness_weights([1, 2], {1: 1.0, 2: 1.0}, {1: 1.0, 2: -1.0}, gamma=2.0, k=2.0)
    ok_weights = (abs(wa[1] - 0.88080) < 1e-5 and abs(wa[2] - 0.11920) < 1e-5)

    report(4, "contrastive/distillation golden values",
           ok_contrast and ok_distill and ok_weights,
           f"contrast {contrast:.6f}, distilled {refined.tolist()}, "
           f"weights ({wa[1]:.5f}, {wa[2]:.5f})")


def test_criterion_5_sliding_window_semantics():
    # scripted participation: rounds 1..6 with online sets below; tau = 3
    online_by_round = {1: [1, 2, 3], 2: [1], 3: [2], 4: [1, 3], 5: [1], 6: [1]}
    gradient_of = {(t, c): np.array([10.0 * t + c]) for t, members in online_by_round.items()
                   for c in members}

    ledger = ParticipationLedger()
    final_assignment = final_gradients = None
    for t, members in online_by_round.items():
        final_assignment, final_gradients = assemble_round(
            ledger, members,
            {c: gradient_of[(t, c)] for c in members},
            {c: 0.5 for c in members},
            t=t, gamma=0.5, k=2.0)

    # hand-computed f_i over the tau=3 window (current round inclusive)
    expected = {
        1: {1: 1 / 3, 2: 1 / 3, 3: 1 / 3},
        2: {1: 2 / 3, 2: 1 / 3, 3: 1 / 3},
        3: {1: 2 / 3, 2: 2 / 3, 3: 1 / 3},
        4: {1: 2 / 3, 2: 1 / 3, 3: 1 / 3},
        5: {1: 2 / 3, 2: 1 / 3, 3: 1 / 3},
        6: {1: 3 / 3, 2: 0 / 3, 3: 1 / 3},
    }
    ok = True
    for t, row in expected.items():
        for client, f_expected in row.items():
            ok &= participation_frequency(ledger, client, t, 3) == f_expected

    # boundary t - t_i = tau: client 2 last trained in round 3, reused in round 6
    boundary = reuse_gradient(ledger, 2, t=6, tau=3)
    ok &= boundary is not None and np.array_equal(boundary, gradient_of[(3, 2)])
    # one past the boundary contributes nothing
    ok &= reuse_gradient(ledger, 2, t=7, tau=3) is None

    # the round-6 assembly (tau = ceil(3/1) = 3) must include both reused members
    ok &= set(final_assignment.weights) == {1, 2, 3}
    ok &= np.array_equal(final_gradients[2], gradient_of[(3, 2)])
    ok &= np.array_equal(final_gradients[3], gradient_of[(4, 3)])
    ok &= final_assignment.frequencies == {1: 1.0, 2: 1 / 3, 3: 1 / 3}
    ok &= final_assignment.window_tau == 3

    report(5, "sliding-window semantics", ok,
           "6-round scenario, boundary reuse at age tau included")


def test_criterion_6_ablation_direction():
    start = time.perf_counter()
    lines = []
    dc_vs_refed = dc_vs_cofed = acc_vs_fedavg = 0
    for seed in BENCHMARK_SEEDS:
        finals = {a: benchmark_final(a, seed) for a in ("corefed", "cofed", "refed", "fedavg")}
        dc_vs_refed += finals["corefed"].d_cosine_mean <= finals["refed"].d_cosine_mean
        dc_vs_cofed += finals["corefed"].d_cosine_mean <= finals["cofed"].d_cosine_mean
        acc_vs_fedavg += finals["corefed"].mean_accuracy >= finals["fedavg"].mean_accuracy
        lines.append(f"seed {seed}: d_cos core/cofed/refed = "
                     f"{finals['corefed'].d_cosine_mean:.5f}/{finals['cofed'].d_cosine_mean:.5f}/"
                     f"{finals['refed'].d_cosine_mean:.5f}, acc core/fedavg = "
                     f"{finals['corefed'].mean_accuracy:.4f}/{finals['fedavg'].mean_accuracy:.4f}")
    elapsed = time.perf_counter() - start
    for line in lines:
        print("  " + line)
    ok = dc_vs_refed >= 2 and dc_vs_cofed >= 2 and acc_vs_fedavg >= 2 and elapsed < 300
    report(6, "ablation direction at desk scale", ok,
           f"d_cos<=refed {dc_vs_refed}/3, d_cos<=cofed {dc_vs_cofed}/3, "
           f"acc>=fedavg {acc_vs_fedavg}/3, {elapsed:.0f}s")


def test_criterion_7_hyperparameter_tradeoff_direction():
    wins = 0
    details = []
    for seed in BENCHMARK_SEEDS:
        default_pair = benchmark_final("corefed", seed, gamma=0.5, k=2.0).mean_accuracy
        inverted_pair = benchmark_final("corefed", seed, gamma=2.0, k=0.5).mean_accuracy
        wins += default_pair >= inverted_pair
        details.append(f"seed {seed}: {default_pair:.4f} vs {inverted_pair:.4f}")
    report(7, "hyper-parameter trade-off direction", wins >= 2,
           f"(k=2.0, gamma=0.5) >= (k=0.5, gamma=2.0) on {wins}/3 seeds; " + "; ".join(details))


def test_criterion_8_cmd_run_determinism(tmp_path):
    start = time.perf_counter()
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"rounds": 3, "clients": 5, "online_per_round": 2, "batch_size": 16, "seed": 12,\n'
        ' "dataset": {"kind": "synthetic", "num_classes": 3, "input_dim": 6, "n": 300}}\n',
        encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
                 "--run-id", "first"]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"),
                 "--run-id", "second"]) == 0
    first = (tmp_path / "o" / "first" / "rounds.csv").read_bytes()
    second = (tmp_path / "o" / "second" / "rounds.csv").read_bytes()
    elapsed = time.perf_counter() - start
    report(8, "cmd_run determinism", first == second and elapsed < 60.0,
           f"byte-identical rounds.csv, {elapsed:.1f}s")


@pytest.mark.skipif("COREFED_FMNIST_DIR" not in os.environ,
                    reason="stretch criterion: set COREFED_FMNIST_DIR to an IDX data directory")
def test_criterion_9_fmnist_stretch():
    data_dir = os.environ["COREFED_FMNIST_DIR"]
    cfg = ExperimentConfig(
        algorithm="corefed", rounds=300, clients=100, online_per_round=20,
        batch_size=50, dirichlet_alpha=0.5, seed=1,
        dataset=IdxSource(images=os.path.join(data_dir, "train-images-idx3-ubyte"),
                          labels=os.path.join(data_dir, "train-labels-idx1-ubyte")))
    result = run_simulation(cfg)
    accuracy = result.reports[-1].mean_accuracy
    report(9, "FMNIST stretch", accuracy >= 0.80, f"mean test accuracy {accuracy:.4f}")
