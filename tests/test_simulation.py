import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefed.aggregation import ParticipationLedger
from corefed.config import ALGORITHMS, ExperimentConfig, SyntheticSource
from corefed.data import Dataset, Shard, gen_synthetic
from corefed.errors import ClientSkipped, PartitionError
from corefed.simulation import (
    RunState,
    build_shards,
    initial_params,
    lr_schedule,
    run_round,
    run_simulation,
    sample_clients,
)


def small_config(**overrides):
    base = dict(rounds=3, clients=5, online_per_round=0.4, seed=7, batch_size=16,
                dataset=SyntheticSource(num_classes=3, input_dim=6, n=240))
    base.update(overrides)
    return ExperimentConfig(**base)


def equal_shards(num_clients, per_class_per_client, num_classes=3, input_dim=6, seed=11):
    """Clients with identical class mixes and identical train/test sizes."""
    n = num_clients * num_classes * per_class_per_client
    ds = gen_synthetic(num_classes, input_dim, n, seed=seed)
    shards = []
    order = np.argsort(ds.labels, kind="stable")
    per_client = []
    for i in range(num_clients):
        idx = np.concatenate([order[c * num_clients * per_class_per_client + i::num_clients]
                              for c in range(num_classes)])
        per_client.append(np.sort(idx))
    for i, idx in enumerate(per_client):
        test_count = max(1, len(idx) // 5)
        shards.append(Shard(client_id=i + 1,
                            train=ds.subset(idx[test_count:]),
                            test=ds.subset(idx[:test_count])))
    return shards


class TestLrSchedule:
    def test_first_round_is_eta0(self):
        assert lr_schedule(0.1, 0.999, 1) == pytest.approx(0.1)

    def test_one_decay_step(self):
        assert lr_schedule(0.1, 0.999, 2) == pytest.approx(0.0999, abs=1e-12)

    def test_round_thousand(self):
        assert lr_schedule(0.1, 0.999, 1000) == pytest.approx(0.1 * 0.999 ** 999, rel=1e-12)
        assert lr_schedule(0.1, 0.999, 1000) == pytest.approx(0.03681, abs=5e-6)


class TestSampleClients:
    def test_full_participation_selects_everyone(self):
        cfg = small_config(online_per_round=5)
        state = RunState(round=0, params=np.zeros(1), ledger=ParticipationLedger(), seed=cfg.seed)
        assert sample_clients(state, cfg) == frozenset(range(1, 6))

    def test_same_seed_and_round_reproduce_sample(self):
        cfg = small_config()
        state = RunState(round=3, params=np.zeros(1), ledger=ParticipationLedger(), seed=cfg.seed)
        assert sample_clients(state, cfg) == sample_clients(state, cfg)

    def test_selection_rate_is_roughly_uniform(self):
        cfg = ExperimentConfig(rounds=1, clients=100, online_per_round=20, seed=3,
                               dataset=SyntheticSource(num_classes=2, input_dim=4, n=400))
        counts = np.zeros(101)
        for t in range(1000):
            state = RunState(round=t, params=np.zeros(1), ledger=ParticipationLedger(), seed=3)
            for cid in sample_clients(state, cfg):
                counts[cid] += 1
        rates = counts[1:] / 1000
        assert rates.min() >= 0.15 and rates.max() <= 0.25


class TestRunRound:
    def test_fedavg_single_client_adopts_its_model(self):
        cfg = small_config(algorithm="fedavg", clients=3, online_per_round=1, rounds=1)
        shards = equal_shards(3, 8)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        new_state, report = run_round(state, cfg, shards)
        assert len(report.online) == 1
        (only,) = report.online
        assert report.weights[only] == pytest.approx(1.0)
        # the new global must equal that client's trained local model
        from corefed.nn import local_train
        from corefed.rng import substream
        expected = local_train(state.params, cfg.model, shards[only - 1], cfg.local_epochs,
                               cfg.batch_size, lr_schedule(cfg.eta0, cfg.lr_decay, 1),
                               substream(cfg.seed, "shuffle", 1, only))
        np.testing.assert_allclose(new_state.params, expected, atol=1e-12)

    def test_report_weights_cover_reused_members_only_for_fair_modes(self):
        cfg = small_config(algorithm="corefed", rounds=3)
        result = run_simulation(cfg)
        for report in result.reports:
            assert set(report.online) <= set(report.weights)

    def test_refed_and_corefed_share_alignment_diagnostics(self):
        shards = equal_shards(4, 8)
        for_core = small_config(algorithm="corefed", clients=4, online_per_round=4, rounds=1)
        for_re = dataclasses.replace(for_core, algorithm="refed")
        state_core = RunState(round=0, params=initial_params(for_core),
                              ledger=ParticipationLedger(), seed=for_core.seed)
        state_re = RunState(round=0, params=initial_params(for_re),
                            ledger=ParticipationLedger(), seed=for_re.seed)
        _, report_core = run_round(state_core, for_core, shards)
        _, report_re = run_round(state_re, for_re, shards)
        assert report_core.contrastive_losses == report_re.contrastive_losses
        assert report_core.weights != report_re.weights

    def test_fedavg_mode_logs_no_contrastive(self):
        cfg = small_config(algorithm="fedavg", rounds=1)
        (report,) = run_simulation(cfg).reports
        assert report.contrastive_losses == {}
        assert math.isnan(report.mean_contrastive_loss)


class TestEverySampledClientTrains:
    @given(clients=st.integers(1, 12), extra=st.integers(0, 60), num_classes=st.integers(1, 6),
           alpha=st.floats(0.05, 10.0), test_fraction=st.floats(0.01, 0.99),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_built_shards_all_hold_training_data(self, clients, extra, num_classes, alpha,
                                                 test_fraction, seed):
        cfg = ExperimentConfig(clients=clients, dirichlet_alpha=alpha, test_fraction=test_fraction,
                               seed=seed, dataset=SyntheticSource(num_classes=num_classes,
                                                                  input_dim=2, n=clients + extra))
        try:
            shards = build_shards(cfg)
        except PartitionError:
            assume(False)
        assert [s.client_id for s in shards] == list(range(1, clients + 1))
        assert all(len(s.train) for s in shards)

    def test_injected_shard_without_training_data_stops_the_run(self):
        cfg = small_config(clients=3, online_per_round=3, rounds=1)
        shards = equal_shards(3, 8)
        no_train = shards[1].train.subset(np.empty(0, dtype=np.int64))
        shards[1] = Shard(client_id=2, train=no_train, test=shards[1].test)
        with pytest.raises(ClientSkipped, match=r"client 2 has no training data"):
            run_simulation(cfg, shards=shards)

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_report_online_is_the_sampled_draw(self, algorithm):
        cfg = small_config(algorithm=algorithm, rounds=4)
        shards = build_shards(cfg)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        for _ in range(cfg.rounds):
            drawn = sample_clients(state, cfg)
            state, report = run_round(state, cfg, shards)
            assert report.online == drawn

    def test_smallest_accepted_tau_c_gives_finite_contrastive_losses(self):
        (report,) = run_simulation(small_config(tau_c=2e-308, rounds=1)).reports
        assert report.contrastive_losses
        assert all(math.isfinite(loss) for loss in report.contrastive_losses.values())


class TestRunExperiment:
    def test_zero_rounds_returns_initial_model_untouched(self):
        cfg = small_config(rounds=0)
        result = run_simulation(cfg)
        assert result.reports == []
        np.testing.assert_array_equal(result.final_params, result.initial_params)
        np.testing.assert_array_equal(result.initial_params, initial_params(cfg))

    def test_full_determinism_of_report_stream(self):
        cfg = small_config(rounds=4)
        a = run_simulation(cfg).reports
        b = run_simulation(cfg).reports
        assert len(a) == len(b) == 4
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_algorithm_change_preserves_partition_and_samples(self):
        cfg_a = small_config(algorithm="corefed", rounds=3)
        cfg_b = small_config(algorithm="fedavg", rounds=3)
        shards_a = build_shards(cfg_a)
        shards_b = build_shards(cfg_b)
        for sa, sb in zip(shards_a, shards_b):
            np.testing.assert_array_equal(sa.train.inputs, sb.train.inputs)
            np.testing.assert_array_equal(sa.test.labels, sb.test.labels)
        online_a = [r.online for r in run_simulation(cfg_a).reports]
        online_b = [r.online for r in run_simulation(cfg_b).reports]
        assert online_a == online_b

    def test_ledger_distinct_count_monotone_and_bounded(self):
        cfg = small_config(rounds=6)
        shards = build_shards(cfg)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        previous = 0
        for _ in range(cfg.rounds):
            state, _ = run_round(state, cfg, shards)
            assert previous <= state.ledger.distinct_count <= cfg.clients
            previous = state.ledger.distinct_count

    def test_checkpoints_written_at_interval(self, tmp_path):
        cfg = small_config(rounds=4, checkpoint_interval=2)
        run_simulation(cfg, checkpoint_dir=tmp_path)
        for t in (2, 4):
            assert (tmp_path / f"round_{t}" / "global.bin").exists()
            assert (tmp_path / f"round_{t}" / "ledger.json").exists()
            assert (tmp_path / f"round_{t}" / "gradients.bin").exists()
        assert not (tmp_path / "round_1").exists()

    def test_checkpoint_global_matches_state(self, tmp_path):
        from corefed.checkpoint import read_vector
        cfg = small_config(rounds=2, checkpoint_interval=2)
        result = run_simulation(cfg, checkpoint_dir=tmp_path)
        stored = read_vector(tmp_path / "round_2" / "global.bin")
        np.testing.assert_array_equal(stored, result.final_params)


class TestNeutralReductionSmall:
    def test_corefed_equals_fedavg_with_neutral_parameters(self):
        shards = equal_shards(4, 10)
        base = dict(rounds=5, clients=4, online_per_round=4, gamma=0.0, k=0.0, seed=13,
                    batch_size=8, dataset=SyntheticSource(num_classes=3, input_dim=6, n=120))
        fair = run_simulation(ExperimentConfig(algorithm="corefed", **base), shards=shards)
        plain = run_simulation(ExperimentConfig(algorithm="fedavg", **base), shards=shards)
        np.testing.assert_allclose(fair.final_params, plain.final_params, atol=1e-9)
