import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefed.aggregation import (
    ParticipationLedger,
    aggregate,
    assemble_round,
    fairness_weights,
    fedavg_aggregate,
    participation_frequency,
    pseudo_gradient,
    reuse_gradient,
    window_length,
)
from corefed.checkpoint import load_ledger, save_ledger
from corefed.data import Dataset
from corefed.errors import InvariantError, NumericalError
from corefed.nn import ModelSpec, backward, sgd_step


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def ledger_with_history(history):
    ledger = ParticipationLedger()
    for t, members in enumerate(history, start=1):
        ledger.record_round(t, members)
    return ledger


class TestLedger:
    def test_distinct_count_tracks_union(self):
        # the window reads the distinct count as the number of clients with rounds
        ledger = ledger_with_history([{1, 2}, {2, 3}, {1}])
        assert ledger.client_rounds == {1: [1, 3], 2: [1, 2], 3: [2]}
        assert window_length(ledger, 1) == 3

    def test_last_participation_is_greatest_round(self, tmp_path):
        ledger = ledger_with_history([{1, 2}, {2}, {2, 3}])
        for cid in (1, 2, 3):
            ledger.cache(cid, np.array([1.0]), 0.0)
        assert reuse_gradient(ledger, 1, t=3, tau=2) is not None
        assert reuse_gradient(ledger, 1, t=4, tau=2) is None
        save_ledger(ledger, tmp_path / "ledger.json", tmp_path / "gradients.bin")
        saved = json.loads((tmp_path / "ledger.json").read_text(encoding="utf-8"))
        assert saved["last_participation"] == {"1": 1, "2": 3, "3": 3}

    def test_duplicate_round_rejected(self):
        ledger = ledger_with_history([{1}])
        with pytest.raises(InvariantError):
            ledger.record_round(1, {2})

    @pytest.mark.parametrize("t", [1, 2, 0, -1])
    def test_repeated_or_earlier_round_rejected(self, t):
        ledger = ledger_with_history([{1}, {2}])
        with pytest.raises(InvariantError, match=f"round {t} recorded after round 2"):
            ledger.record_round(t, {3})
        assert ledger.client_rounds == {1: [1], 2: [2]}

    @pytest.mark.parametrize("client", [0, -3])
    def test_client_id_below_one_rejected(self, client):
        # shards are numbered from 1, so no run records a lower id
        ledger = ledger_with_history([{1}])
        with pytest.raises(InvariantError, match=f"round 2 records client {client}"):
            ledger.record_round(2, {client, 2})
        assert ledger.client_rounds == {1: [1]} and ledger.last_round == 1

    def test_cached_gradient_is_a_read_only_copy(self):
        # A checkpoint keeps each cached gradient's digest until the client's
        # next cache, so nothing may rewrite the cached bytes in place.
        ledger = ParticipationLedger()
        source = np.array([1.0, 2.0])
        ledger.cache(1, source, 0.5)
        source[0] = 5.0
        assert ledger.last_gradient[1].tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            ledger.last_gradient[1][0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            ledger.last_gradient[1] += 1.0
        assert ledger.last_gradient[1].tolist() == [1.0, 2.0]


class TestWindowLength:
    def test_table_setting(self):
        ledger = ledger_with_history([set(range(1, 101))])
        assert window_length(ledger, 20) == 5

    def test_cold_start_is_one(self):
        assert window_length(ParticipationLedger(), 4) == 1

    def test_fractional_ratio_rounds_up(self):
        ledger = ledger_with_history([set(range(1, 8))])
        assert window_length(ledger, 2) == 4


class TestParticipationFrequency:
    def test_always_online_is_one(self):
        ledger = ledger_with_history([{1}] * 5)
        assert participation_frequency(ledger, 1, 5, 5) == 1.0

    def test_two_of_five(self):
        ledger = ledger_with_history([{1}, set(), {1}, set(), set()])
        assert participation_frequency(ledger, 1, 5, 5) == pytest.approx(0.4)

    def test_current_round_counts_for_newcomer(self):
        ledger = ledger_with_history([set(), set(), set(), {1}])
        assert participation_frequency(ledger, 1, 4, 4) == pytest.approx(0.25)

    def test_rounds_before_one_are_absences(self):
        ledger = ledger_with_history([{1}])
        assert participation_frequency(ledger, 1, 1, 4) == pytest.approx(0.25)


def brute_force_frequency(history: dict[int, set[int]], client: int, t: int, tau: int) -> float:
    hits = sum(1 for r in range(max(1, t - tau + 1), t + 1) if client in history.get(r, set()))
    return hits / tau


histories = st.lists(st.sets(st.integers(1, 6), max_size=6), min_size=1, max_size=12)


class TestWindowCountsMatchBruteForce:
    """The bisected window count against a walk over every round of the window."""

    @staticmethod
    def assert_matches(ledger, history):
        horizon = max(history) + 2
        for client in range(1, 8):
            for t in range(-1, horizon + 1):
                for tau in range(1, horizon + 2):
                    assert (participation_frequency(ledger, client, t, tau)
                            == brute_force_frequency(history, client, t, tau))

    @given(st.lists(st.tuples(st.integers(1, 3), st.sets(st.integers(1, 6), max_size=6)),
                    min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_ascending_recording_order(self, steps):
        # rounds arrive in ascending order, possibly with unrecorded rounds between
        history, t = {}, 0
        ledger = ParticipationLedger()
        for gap, members in steps:
            t += gap
            history[t] = members
            ledger.record_round(t, members)
        self.assert_matches(ledger, history)
        assert ledger.client_rounds == {
            cid: [r for r, members in history.items() if cid in members]
            for cid in set().union(*history.values())}

    @given(histories)
    @settings(max_examples=30, deadline=None)
    def test_after_checkpoint_round_trip(self, rounds):
        history = {t: members for t, members in enumerate(rounds, start=1)}
        ledger = ledger_with_history(rounds)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            save_ledger(ledger, root / "ledger.json", root / "gradients.bin")
            restored = load_ledger(root / "ledger.json", root / "gradients.bin")
        self.assert_matches(restored, history)
        assert restored.client_rounds == ledger.client_rounds


class TestFairnessWeights:
    def test_symmetry_gives_uniform_weights(self):
        wa = fairness_weights([1, 2, 3], {1: 0.5, 2: 0.5, 3: 0.5}, {1: 0.9, 2: 0.9, 3: 0.9},
                              gamma=1.0, k=2.0)
        for w in wa.values():
            assert w == pytest.approx(1 / 3, abs=1e-12)

    def test_inverse_frequency_with_neutral_sigmoid(self):
        wa = fairness_weights([1, 2], {1: 1.0, 2: 0.5}, {1: 1.0, 2: 1.0}, gamma=1.0, k=0.0)
        assert wa[1] == pytest.approx(1 / 3, abs=1e-12)
        assert wa[2] == pytest.approx(2 / 3, abs=1e-12)

    def test_sigmoid_contrast_hand_values(self):
        wa = fairness_weights([1, 2], {1: 1.0, 2: 1.0}, {1: 1.0, 2: -1.0}, gamma=2.0, k=2.0)
        denominator = sigmoid(2.0) + sigmoid(-2.0)
        assert wa[1] == pytest.approx(sigmoid(2.0) / denominator, abs=1e-12)
        assert wa[1] == pytest.approx(0.88080, abs=1e-5)
        assert wa[2] == pytest.approx(0.11920, abs=1e-5)

    def test_common_frequency_scaling_cancels(self):
        freqs = {1: 0.9, 2: 0.6, 3: 0.3}
        sims = {1: 0.2, 2: -0.1, 3: 0.7}
        base = fairness_weights([1, 2, 3], freqs, sims, gamma=1.3, k=1.7)
        scaled = fairness_weights([1, 2, 3], {i: 0.5 * f for i, f in freqs.items()}, sims,
                                  gamma=1.3, k=1.7)
        for cid in (1, 2, 3):
            assert scaled[cid] == pytest.approx(base[cid], rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_alignment_reward_underflow_names_client(self):
        # k = 1000 lies above ln(max float): exp(1000) overflows, so
        # sigmoid(k * rho) reads 0 for client 1 at rho = -1
        with pytest.raises(NumericalError, match=r"client 1\b"):
            fairness_weights([1, 2], {1: 1.0, 2: 1.0}, {1: -1.0, 2: 1.0}, gamma=0.0, k=1000.0)

    def test_weight_underflow_names_client(self):
        # k at its config limit keeps sigmoid(-k) ~ 5.6e-309 positive, but
        # client 2's reward 600^110 ~ 4e305 leaves client 1 a weight of 0
        with pytest.raises(NumericalError, match=r"client 1: weight"):
            fairness_weights([1, 2], {1: 1.0, 2: 1 / 600}, {1: -1.0, 2: 1.0},
                             gamma=110.0, k=709.78)


class TestPseudoGradient:
    def test_no_movement_means_zero_gradient(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(pseudo_gradient(v, v.copy(), 0.1), np.zeros(2))

    def test_recovers_true_gradient_after_one_step(self):
        spec = ModelSpec(3, (4,), 2)
        rng = np.random.default_rng(2)
        params = rng.uniform(-1, 1, spec.num_params())
        batch = Dataset(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6), spec.num_classes)
        grad = backward(params, spec, batch)
        local = params.copy()
        sgd_step(local, grad.copy(), 0.05)
        np.testing.assert_allclose(pseudo_gradient(params, local, 0.05), grad, rtol=1e-10)

    def test_scalar_arithmetic(self):
        np.testing.assert_allclose(pseudo_gradient(np.array([1.0]), np.array([0.5]), 0.1), [5.0])


class TestReuseGradient:
    def test_online_client_updates_cache(self):
        ledger = ParticipationLedger()
        assemble_round(ledger, [1], {1: np.array([2.0, 2.0])}, {1: 0.5}, t=1, gamma=0.5, k=2.0)
        fresh = np.array([1.0, -1.0])
        _, merged = assemble_round(ledger, [1], {1: fresh}, {1: 0.25}, t=2, gamma=0.5, k=2.0)
        np.testing.assert_array_equal(merged[1], fresh)
        np.testing.assert_array_equal(reuse_gradient(ledger, 1, t=2, tau=1), fresh)
        assert ledger.last_similarity[1] == 0.25

    def test_boundary_age_still_reuses(self):
        ledger = ledger_with_history([{1}])
        ledger.cache(1, np.array([2.0]), 0.5)
        out = reuse_gradient(ledger, 1, t=4, tau=3)
        np.testing.assert_array_equal(out, [2.0])

    def test_one_past_boundary_contributes_nothing(self):
        ledger = ledger_with_history([{1}])
        ledger.cache(1, np.array([2.0]), 0.5)
        assert reuse_gradient(ledger, 1, t=5, tau=3) is None

    def test_never_seen_client_contributes_nothing(self):
        assert reuse_gradient(ParticipationLedger(), 7, t=3, tau=3) is None


class TestAggregate:
    def test_zero_gradients_keep_global(self):
        global_params = np.array([1.0, -1.0])
        out = aggregate(global_params, {1: 0.5, 2: 0.5},
                        {1: np.zeros(2), 2: np.zeros(2)}, eta=0.1)
        np.testing.assert_array_equal(out, global_params)

    def test_uniform_pseudo_gradients_average_models(self):
        global_params = np.array([0.0])
        gradients = {1: pseudo_gradient(global_params, np.array([2.0]), 1.0),
                     2: pseudo_gradient(global_params, np.array([4.0]), 1.0)}
        out = aggregate(global_params, {1: 0.5, 2: 0.5}, gradients, eta=1.0)
        np.testing.assert_allclose(out, [3.0], rtol=1e-12)

    def test_single_full_weight_client_replaces_global(self):
        global_params = np.array([1.0, 2.0])
        local = np.array([0.3, -0.7])
        gradients = {1: pseudo_gradient(global_params, local, 0.2)}
        out = aggregate(global_params, {1: 1.0}, gradients, eta=0.2)
        np.testing.assert_allclose(out, local, rtol=1e-12)


class TestFedavgAggregate:
    def test_equal_sizes_average(self):
        out = fedavg_aggregate({1: np.array([0.0]), 2: np.array([2.0])}, {1: 5, 2: 5})
        np.testing.assert_allclose(out, [1.0])

    def test_size_weighted_average(self):
        out = fedavg_aggregate({1: np.array([0.0]), 2: np.array([4.0])}, {1: 1, 2: 3})
        np.testing.assert_allclose(out, [3.0])

    def test_single_client_identity(self):
        v = np.array([0.1, 0.2])
        np.testing.assert_allclose(fedavg_aggregate({1: v}, {1: 10}), v)


class TestAssembleRound:
    def test_full_participation_reduces_to_plain_weighting(self):
        ledger = ParticipationLedger()
        online = [1, 2, 3]
        gradients = {c: np.array([float(c)]) for c in online}
        sims = {c: 0.5 for c in online}
        assignment, merged = assemble_round(ledger, online, gradients, sims, t=1,
                                            gamma=0.5, k=2.0)
        assert set(assignment.weights) == set(online)
        assert sum(assignment.weights.values()) == pytest.approx(1.0, abs=1e-12)
        for c in online:
            assert assignment.weights[c] == pytest.approx(1 / 3, abs=1e-12)
            np.testing.assert_array_equal(merged[c], gradients[c])

    def test_recently_absent_client_is_reused_with_cache(self):
        ledger = ParticipationLedger()
        assemble_round(ledger, [1, 2], {1: np.array([1.0]), 2: np.array([2.0])},
                       {1: 0.6, 2: 0.1}, t=1, gamma=1.0, k=2.0)
        # round 2: client 2 offline; tau = ceil(2/1) = 2 so it is reused
        assignment, merged = assemble_round(ledger, [1], {1: np.array([3.0])}, {1: 0.6},
                                            t=2, gamma=1.0, k=2.0)
        assert set(assignment.weights) == {1, 2}
        np.testing.assert_array_equal(merged[2], [2.0])
        assert assignment.similarities[2] == pytest.approx(0.1)
        # hand-computed weights: f1 = 1 (rounds 1,2), f2 = 1/2 (round 1 of window {1,2})
        score1 = (1 / 1.0) * sigmoid(2.0 * 0.6)
        score2 = (1 / 0.5) * sigmoid(2.0 * 0.1)
        assert assignment.weights[1] == pytest.approx(score1 / (score1 + score2), rel=1e-12)
        assert assignment.weights[2] == pytest.approx(score2 / (score1 + score2), rel=1e-12)

    def test_long_absent_client_is_excluded(self):
        ledger = ParticipationLedger()
        assemble_round(ledger, [1, 2], {1: np.array([1.0]), 2: np.array([2.0])},
                       {1: 0.5, 2: 0.5}, t=1, gamma=0.5, k=2.0)
        for t in (2, 3, 4, 5):
            assignment, _ = assemble_round(ledger, [1], {1: np.array([1.0])}, {1: 0.5},
                                           t=t, gamma=0.5, k=2.0)
        # tau = ceil(2/1) = 2; by round 5 client 2 is 4 rounds stale
        assert set(assignment.weights) == {1}

    def test_boundary_stale_member_gets_frequency_floor(self):
        ledger = ParticipationLedger()
        assemble_round(ledger, [1, 2], {1: np.array([1.0]), 2: np.array([2.0])},
                       {1: 0.5, 2: 0.5}, t=1, gamma=0.5, k=2.0)
        assemble_round(ledger, [1], {1: np.array([1.0])}, {1: 0.5}, t=2, gamma=0.5, k=2.0)
        # t=3: tau = 2, client 2 last seen at round 1 (age exactly tau); its
        # window {2,3} contains no participation, so the floor 1/tau applies
        assignment, merged = assemble_round(ledger, [1], {1: np.array([1.0])}, {1: 0.5},
                                            t=3, gamma=0.5, k=2.0)
        assert set(assignment.weights) == {1, 2}
        assert assignment.frequencies[2] == pytest.approx(0.5)
        np.testing.assert_array_equal(merged[2], [2.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar add:RuntimeWarning")
    def test_weight_total_overflow_names_round(self):
        ledger = ParticipationLedger()
        assemble_round(ledger, [1, 2, 3], {c: np.array([1.0]) for c in (1, 2, 3)},
                       {c: 0.5 for c in (1, 2, 3)}, t=1, gamma=0.5, k=2.0)
        # t=2: tau = 3; clients 2 and 3 each score about 3^645.5 (1.4e308,
        # finite), and their sum overflows. run_round prefixes the round.
        with pytest.raises(NumericalError, match=r"^client [23]\b"):
            assemble_round(ledger, [1], {1: np.array([1.0])}, {1: 0.5},
                           t=2, gamma=645.5, k=100.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_alignment_reward_underflow_names_round_and_client(self):
        # the client here; run_round prefixes the round
        with pytest.raises(NumericalError, match=r"^client 1\b"):
            assemble_round(ParticipationLedger(), [1, 2], {c: np.array([1.0]) for c in (1, 2)},
                           {1: -1.0, 2: 1.0}, t=1, gamma=0.0, k=1000.0)


class TestWeightProperties:
    def test_simplex_and_monotonicity_under_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = int(rng.integers(2, 8))
            members = list(range(m))
            freqs = {i: float(rng.uniform(0.05, 1.0)) for i in members}
            sims = {i: float(rng.uniform(-1.0, 1.0)) for i in members}
            gamma = float(rng.uniform(0.0, 4.0))
            k = float(rng.uniform(0.0, 4.0))
            wa = fairness_weights(members, freqs, sims, gamma, k)
            total = sum(wa.values())
            assert abs(total - 1.0) < 1e-9
            assert all(w > 0 for w in wa.values())

            target = members[0]
            bumped_sims = dict(sims)
            bumped_sims[target] = min(1.0, sims[target] + 0.1)
            wa_rho = fairness_weights(members, freqs, bumped_sims, gamma, k)
            if k > 1e-9 and bumped_sims[target] > sims[target]:
                assert wa_rho[target] > wa[target]

            bumped_freqs = dict(freqs)
            bumped_freqs[target] = min(1.0, freqs[target] + 0.1)
            wa_f = fairness_weights(members, bumped_freqs, sims, gamma, k)
            if gamma > 1e-9 and bumped_freqs[target] > freqs[target]:
                assert wa_f[target] < wa[target]


class TestNeutralReduction:
    def test_neutral_parameters_match_fedavg_exactly(self):
        rng = np.random.default_rng(7)
        global_params = rng.normal(size=20)
        local_models = {i: global_params + rng.normal(size=20) * 0.1 for i in (1, 2, 3)}
        eta = 0.05
        gradients = {i: pseudo_gradient(global_params, m, eta) for i, m in local_models.items()}
        wa = fairness_weights([1, 2, 3], {i: 1.0 for i in (1, 2, 3)},
                              {i: 0.3 for i in (1, 2, 3)}, gamma=0.0, k=0.0)
        fair = aggregate(global_params, wa, gradients, eta)
        plain = fedavg_aggregate(local_models, {1: 4, 2: 4, 3: 4})
        np.testing.assert_allclose(fair, plain, atol=1e-9)
