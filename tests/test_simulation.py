import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefed import aggregation, embedding, simulation
from corefed.aggregation import ParticipationLedger
from corefed.config import ALGORITHMS, ExperimentConfig, SyntheticSource
from corefed.data import Dataset, Shard, gen_synthetic
from corefed.embedding import cosine
from corefed.errors import ClientSkipped, ConfigError, NumericalError, PartitionError
from corefed.metrics import evaluation_plan
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
        new_state, report = run_round(state, cfg, shards, evaluation_plan(cfg.model, shards))
        assert len(report.online) == 1
        (only,) = report.online
        # the new global must equal that client's trained local model
        from corefed.nn import local_train
        from corefed.rng import substream
        expected = local_train(state.params, cfg.model, shards[only - 1], cfg.local_epochs,
                               cfg.batch_size, lr_schedule(cfg.eta0, cfg.lr_decay, 1),
                               substream(cfg.seed, "shuffle", 1, only))
        np.testing.assert_allclose(new_state.params, expected, atol=1e-12)

    def test_refed_and_corefed_share_alignment_diagnostics(self):
        shards = equal_shards(4, 8)
        for_core = small_config(algorithm="corefed", clients=4, online_per_round=4, rounds=1)
        for_re = dataclasses.replace(for_core, algorithm="refed")
        state_core = RunState(round=0, params=initial_params(for_core),
                              ledger=ParticipationLedger(), seed=for_core.seed)
        state_re = RunState(round=0, params=initial_params(for_re),
                            ledger=ParticipationLedger(), seed=for_re.seed)
        plan = evaluation_plan(for_core.model, shards)
        new_core, report_core = run_round(state_core, for_core, shards, plan)
        new_re, report_re = run_round(state_re, for_re, shards, plan)
        assert report_core.contrastive_losses == report_re.contrastive_losses
        assert not np.array_equal(new_core.params, new_re.params)

    @pytest.mark.parametrize("algorithm", ["corefed", "cofed"])
    def test_weights_error_is_prefixed_with_the_round(self, monkeypatch, algorithm):
        # the weights name the client; run_round alone adds the round
        def fail(*args):
            raise NumericalError("client 2: weight underflows to 0.0")

        monkeypatch.setattr(aggregation, "fairness_weights", fail)
        cfg = small_config(algorithm=algorithm, rounds=1)
        shards = equal_shards(5, 8)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        with pytest.raises(NumericalError, match=r"^round 1: client 2: weight underflows"):
            run_round(state, cfg, shards, evaluation_plan(cfg.model, shards))

    @pytest.mark.parametrize("algorithm", ["corefed", "fedavg"])
    def test_aggregate_that_overflows_stops_the_round(self, monkeypatch, algorithm):
        # every local model is finite, so no client is named
        def overflow(*args):
            return np.full(cfg.model.num_params(), np.inf)

        monkeypatch.setattr(simulation, "aggregate", overflow)
        monkeypatch.setattr(simulation, "fedavg_aggregate", overflow)
        cfg = small_config(algorithm=algorithm, rounds=1)
        shards = equal_shards(5, 8)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        with pytest.raises(NumericalError, match=r"^round 1: aggregated model is not finite: "
                                                 r"the aggregation overflowed$"):
            run_round(state, cfg, shards, evaluation_plan(cfg.model, shards))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_round_takes_each_similarity_once(self, monkeypatch, algorithm):
        # per online client: its raw cosine with the global embedding, then
        # with align its refined one; per unordered pair with align: one
        calls = []

        def counted(a, b):
            calls.append(1)
            return cosine(a, b)

        monkeypatch.setattr(simulation, "cosine", counted)
        monkeypatch.setattr(embedding, "cosine", counted)
        cfg = small_config(algorithm=algorithm, online_per_round=3, rounds=2)
        run_simulation(cfg)
        align, fair = ALGORITHMS[algorithm]
        online = cfg.resolved_online()
        per_round = (2 * online + math.comb(online, 2) if align
                     else online if fair else 0)
        assert len(calls) == cfg.rounds * per_round

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

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_injected_shard_wider_than_the_model_is_rejected(self, part):
        cfg = small_config(clients=3, online_per_round=3, rounds=0)
        shards = equal_shards(3, 8)
        wide = equal_shards(3, 8, input_dim=7)[2]
        shards[2] = dataclasses.replace(shards[2], **{part: getattr(wide, part)})
        with pytest.raises(ConfigError, match=rf"^model\.input_dim 6 does not match client 3 "
                                              rf"{part} data dimension 7$"):
            run_simulation(cfg, shards=shards)

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_injected_shard_with_more_classes_than_the_model_is_rejected(self, part):
        cfg = small_config(clients=3, online_per_round=3, rounds=0)
        shards = equal_shards(3, 8)
        more = equal_shards(3, 8, num_classes=4)[0]
        shards[0] = dataclasses.replace(shards[0], **{part: getattr(more, part)})
        with pytest.raises(ConfigError, match=rf"^model\.num_classes 3 is too small for client 1 "
                                              rf"{part} labels \(4 classes\)$"):
            run_simulation(cfg, shards=shards)

    @pytest.mark.parametrize("inputs, labels, message", [
        (np.zeros((2, 6)), np.array([0, -1]), r"^client 2 train labels must lie in \[0, 3\)$"),
        (np.zeros((2, 6)), np.array([0, 3]), r"^client 2 train labels must lie in \[0, 3\)$"),
        (np.zeros((3, 6)), np.array([0, 1]), r"^client 2 train data needs one label per row"),
        (np.zeros(6), np.array([0]), r"^client 2 train data needs one label per row"),
    ], ids=["negative_label", "label_past_num_classes", "length_mismatch", "one_dimensional"])
    def test_injected_shard_breaking_the_dataset_rule_is_rejected_before_training(
            self, monkeypatch, inputs, labels, message):
        # Dataset checks nothing itself: _check_fits is the one check on injected data
        cfg = small_config(clients=3, online_per_round=3, rounds=1)
        shards = equal_shards(3, 8)
        shards[1] = dataclasses.replace(shards[1], train=Dataset(inputs, labels, 3))
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=message):
            run_simulation(cfg, shards=shards)
        assert trained == []

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_report_online_is_the_sampled_draw(self, algorithm):
        cfg = small_config(algorithm=algorithm, rounds=4)
        shards = build_shards(cfg)
        state = RunState(round=0, params=initial_params(cfg), ledger=ParticipationLedger(),
                         seed=cfg.seed)
        plan = evaluation_plan(cfg.model, shards)
        for _ in range(cfg.rounds):
            drawn = sample_clients(state, cfg)
            state, report = run_round(state, cfg, shards, plan)
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
        np.testing.assert_array_equal(result.final_params, initial_params(cfg))

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
        plan = evaluation_plan(cfg.model, shards)
        for _ in range(cfg.rounds):
            state, _ = run_round(state, cfg, shards, plan)
            assert previous <= len(state.ledger.client_rounds) <= cfg.clients
            previous = len(state.ledger.client_rounds)

    def test_checkpoints_written_at_interval(self, tmp_path):
        cfg = small_config(rounds=4, checkpoint_interval=2)
        run_simulation(cfg, checkpoint_dir=tmp_path)
        for t in (2, 4):
            assert (tmp_path / f"round_{t}" / "global.bin").exists()
            assert (tmp_path / f"round_{t}" / "ledger.json").exists()
            assert (tmp_path / f"round_{t}" / "gradients.bin").exists()
        assert not (tmp_path / "round_1").exists()

    def test_every_checkpoint_of_a_run_loads(self, tmp_path):
        # Later checkpoints reuse digests kept from earlier ones; each must still verify.
        from corefed.checkpoint import load_ledger
        cfg = small_config(algorithm="corefed", rounds=6, checkpoint_interval=1)
        run_simulation(cfg, checkpoint_dir=tmp_path)
        for t in range(1, cfg.rounds + 1):
            round_dir = tmp_path / f"round_{t}"
            ledger = load_ledger(round_dir / "ledger.json", round_dir / "gradients.bin")
            assert sorted(set().union(*ledger.client_rounds.values())) == list(range(1, t + 1))
            assert ledger.last_gradient.keys() == ledger.client_rounds.keys()

    def test_checkpoint_global_matches_state(self, tmp_path):
        from corefed.checkpoint import read_vector
        cfg = small_config(rounds=2, checkpoint_interval=2)
        result = run_simulation(cfg, checkpoint_dir=tmp_path)
        stored = read_vector(tmp_path / "round_2" / "global.bin")
        np.testing.assert_array_equal(stored, result.final_params)


class TestDeadLastLayer:
    def test_run_stops_naming_round_and_client(self):
        # the desk setting with a learning rate 500 times too large: every
        # hidden relu dies on the training data within a few rounds
        cfg = ExperimentConfig(algorithm="corefed", rounds=3, clients=10, online_per_round=0.4,
                               batch_size=50, dirichlet_alpha=0.5, eta0=50, seed=1,
                               dataset=SyntheticSource(num_classes=4, input_dim=32, n=2000))
        with pytest.raises(NumericalError, match=r"^round 2: client 2: all \d+ sample embeddings"):
            run_simulation(cfg)


class TestNeutralReductionSmall:
    def test_corefed_equals_fedavg_with_neutral_parameters(self):
        shards = equal_shards(4, 10)
        base = dict(rounds=5, clients=4, online_per_round=4, gamma=0.0, k=0.0, seed=13,
                    batch_size=8, dataset=SyntheticSource(num_classes=3, input_dim=6, n=120))
        fair = run_simulation(ExperimentConfig(algorithm="corefed", **base), shards=shards)
        plain = run_simulation(ExperimentConfig(algorithm="fedavg", **base), shards=shards)
        np.testing.assert_allclose(fair.final_params, plain.final_params, atol=1e-9)


def import_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    return tracer


class TestBenchmarkTracerNames:
    def test_every_name_the_benchmark_wraps_exists_unwrapped(self, monkeypatch):
        # perfbench/tracer.py reads each traced function off its corefed module
        # at import, so a renamed or deleted one fails this import.
        assert import_tracer(monkeypatch).untraced_problems() == []


class TestBenchmarkReferenceDigests:
    def test_every_reference_names_the_hash_of_its_workload_config(self, monkeypatch, tmp_path):
        # The benchmark looks a run's reference digest up by config_hash; if
        # the config's serialization drifts, the lookup finds nothing and the
        # byte check passes silently instead of failing.
        import_tracer(monkeypatch)
        import bench
        from corefed.cli import SEED_ENV_VAR
        from corefed.config import config_hash

        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        entries = json.loads(bench.REFERENCE_FILE.read_text(encoding="utf-8"))
        assert sorted(e["workload"] for e in entries) == sorted(bench.WORKLOADS)
        for entry in entries:
            workload = bench.WORKLOADS[entry["workload"]]
            _, cfg = bench.write_config(workload, entry["config_seed"] - 1, None,
                                        tmp_path / workload.name)
            assert config_hash(cfg) == entry["config_sha1"], workload.name


class TestBenchmarkTracerHooks:
    @pytest.mark.parametrize("algorithm", ["corefed", "fedavg"])
    def test_hooks_count_the_samples_each_call_receives(self, monkeypatch, algorithm):
        # The tracer's after-hooks read the data passed to backward and to
        # the evaluation forward; their counts must match the run's own sizes.
        tracer = import_tracer(monkeypatch)
        cfg = small_config(algorithm=algorithm, rounds=2, local_epochs=2)
        shards = {s.client_id: s for s in build_shards(cfg)}
        with tracer.Tracer() as probe:
            reports = run_simulation(cfg).reports
        metrics, _, problems = probe.layer_metrics()
        assert problems == []
        trained = sum(len(shards[cid].train) for r in reports for cid in r.online)
        assert metrics["nn.train_samples"] == (cfg.local_epochs * trained, "count")
        tested = sum(len(s.test) for s in shards.values())
        assert metrics["metrics.eval_samples"] == (cfg.rounds * tested, "count")
        # evaluation and training must go through the traced names, or the
        # benchmark's per-layer metrics would read zero
        assert metrics["metrics.eval_forward_calls"] == (cfg.rounds, "count")
        minibatches = sum(cfg.local_epochs * -(-len(shards[cid].train) // cfg.batch_size)
                          for r in reports for cid in r.online)
        assert metrics["nn.backward.calls"] == (minibatches, "count")
        calls = probe.self_times()[2]
        assert calls["nn.sgd_step"] == calls["nn.backward"]
        assert tracer.untraced_problems() == []

    @pytest.mark.parametrize("algorithm", ["corefed", "fedavg"])
    def test_set_up_goes_through_the_traced_names_once(self, monkeypatch, algorithm):
        # The benchmark's data metrics time one call of each set-up step and
        # compare shard bytes with dataset bytes; the substream count is one
        # split and one init stream, then one sampling stream per round and
        # one shuffle stream per online client.
        tracer = import_tracer(monkeypatch)
        cfg = small_config(algorithm=algorithm, rounds=3)
        with tracer.Tracer() as probe:
            run_simulation(cfg)
        metrics, _, problems = probe.layer_metrics()
        assert problems == []
        calls = probe.self_times()[2]
        for name in ("data.gen_synthetic", "data.dirichlet_partition", "data.split_test"):
            assert calls[name] == 1, name
        assert metrics["data.shard_mb"] == metrics["data.dataset_mb"]
        assert metrics["data.dataset_mb"][0] > 0
        expected = 2 + cfg.rounds * (1 + cfg.resolved_online())
        assert metrics["rng.substream.calls"] == (expected, "count")
