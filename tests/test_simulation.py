import ast
import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefed import aggregation, embedding, metrics, nn, simulation
from corefed.aggregation import ParticipationLedger, pseudo_gradient, window_bound
from corefed.checkpoint import load_ledger, read_vector
from corefed.config import ALGORITHMS, ExperimentConfig, SyntheticSource
from corefed.data import Dataset, Shard, gen_synthetic
from corefed.embedding import cosine
from corefed.errors import ConfigError, FormatError, InvariantError, NumericalError
from corefed.nn import ModelSpec, local_train
from corefed.rng import substream
from corefed.simulation import (
    RunState,
    build_shards,
    initial_params,
    lr_schedule,
    run_simulation,
    sample_clients,
)
from tests.round_oracle import run_oracle
from tests.test_data import attribute_users


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
        ((state, report, _),) = simulation.rounds(cfg, shards)
        (only,) = report.online
        # the new global must equal that client's trained local model
        expected = local_train(initial_params(cfg), cfg.model, shards[only - 1], cfg.local_epochs,
                               cfg.batch_size, lr_schedule(cfg.eta0, cfg.lr_decay, 1),
                               substream(cfg.seed, "shuffle", 1, only))
        np.testing.assert_allclose(state.params, expected, atol=1e-12)

    def test_refed_and_corefed_share_alignment_diagnostics(self):
        shards = equal_shards(4, 8)
        for_core = small_config(algorithm="corefed", clients=4, online_per_round=4, rounds=1)
        for_re = dataclasses.replace(for_core, algorithm="refed")
        ((core, report_core, _),) = simulation.rounds(for_core, shards)
        ((re, report_re, _),) = simulation.rounds(for_re, shards)
        assert report_core.contrastive_losses == report_re.contrastive_losses
        assert not np.array_equal(core.params, re.params)

    @pytest.mark.parametrize("algorithm", ["corefed", "cofed"])
    def test_weights_error_is_prefixed_with_the_round(self, monkeypatch, algorithm):
        # the weights name the client; run_round alone adds the round
        def fail(*args):
            raise NumericalError("client 2: weight underflows to 0.0")

        monkeypatch.setattr(aggregation, "fairness_weights", fail)
        cfg = small_config(algorithm=algorithm, rounds=1)
        with pytest.raises(NumericalError, match=r"^round 1: client 2: weight underflows"):
            next(simulation.rounds(cfg, equal_shards(5, 8)))

    @pytest.mark.parametrize("algorithm", ["corefed", "fedavg"])
    def test_aggregate_that_overflows_stops_the_round(self, monkeypatch, algorithm):
        # every local model is finite, so no client is named
        def overflow(*args):
            return np.full(cfg.model.num_params(), np.inf)

        monkeypatch.setattr(simulation, "aggregate", overflow)
        monkeypatch.setattr(simulation, "fedavg_aggregate", overflow)
        cfg = small_config(algorithm=algorithm, rounds=1)
        with pytest.raises(NumericalError, match=r"^round 1: aggregated model is not finite: "
                                                 r"the aggregation overflowed$"):
            next(simulation.rounds(cfg, equal_shards(5, 8)))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_round_takes_each_similarity_once(self, monkeypatch, algorithm):
        # per online client: its raw cosine with the global embedding, then
        # with align its refined one; per unordered pair with align: one
        calls = []

        def counted(*args):
            calls.append(1)
            return cosine(*args)

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
        except ConfigError:
            assume(False)
        assert [s.client_id for s in shards] == list(range(1, clients + 1))
        assert all(len(s.train) for s in shards)

    def test_partition_no_redraw_can_fill_stops_the_run_before_any_training(self, monkeypatch):
        # three samples for three clients: a draw at alpha 0.01 almost never gives one each
        cfg = small_config(clients=3, online_per_round=1, dirichlet_alpha=0.01,
                           dataset=SyntheticSource(num_classes=1, input_dim=6, n=3))
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=r"^no partition gave every client data after 100 "
                                              r"attempts \(m=3, alpha=0\.01, n=3\)$"):
            run_simulation(cfg)
        assert trained == []

    def test_injected_shard_without_training_data_stops_the_run(self, monkeypatch):
        cfg = small_config(clients=3, online_per_round=3, rounds=1)
        shards = equal_shards(3, 8)
        no_train = shards[1].train.subset(np.empty(0, dtype=np.int64))
        shards[1] = Shard(client_id=2, train=no_train, test=shards[1].test)
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=r"^client 2 has no training data$"):
            run_simulation(cfg, shards=shards)
        assert trained == []

    @pytest.mark.parametrize("ids, message", [
        ([1, 2, 3, 4], "client 5 is missing"),
        ([1, 2, 2, 3, 4, 5, 6], "client 2 is repeated"),
        ([1, 2, 3, 4, 5, 6, 7], "client 7 is extra"),
        ([0, 1, 2, 3, 4, 5, 6], "client 0 is extra"),
    ], ids=["missing", "repeated", "extra", "extra_below_one"])
    def test_injected_shards_need_each_client_id_once(self, monkeypatch, ids, message):
        # Every client a run scores must be one that it can sample and train.
        cfg = small_config(clients=6, online_per_round=6, rounds=1)
        pool = equal_shards(len(ids), 4)
        shards = [dataclasses.replace(shard, client_id=cid) for shard, cid in zip(pool, ids)]
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match=rf"^injected shards need client ids 1\.\.6 "
                                              rf"once each: {message}$"):
            run_simulation(cfg, shards=shards)
        assert trained == []

    @given(data=st.data(), clients=st.integers(1, 6), rounds=st.integers(1, 3),
           online=st.floats(0.1, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_injected_shards_in_any_order_give_the_built_run(self, data, clients, rounds,
                                                             online, seed):
        cfg = small_config(clients=clients, rounds=rounds, online_per_round=online, seed=seed)
        shards = data.draw(st.permutations(build_shards(cfg)))
        for algorithm in ALGORITHMS:
            run_cfg = dataclasses.replace(cfg, algorithm=algorithm)
            built, injected = run_simulation(run_cfg), run_simulation(run_cfg, shards=shards)
            assert injected.reports == built.reports
            assert injected.final_params.tobytes() == built.final_params.tobytes()

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
        (np.zeros((2, 6)), np.array([0.0, 1.0]),
         r"^client 2 train labels must be integers, not float64$"),
        (np.zeros((2, 6)), np.array([False, True]),
         r"^client 2 train labels must be integers, not bool$"),
    ], ids=["negative_label", "label_past_num_classes", "length_mismatch", "one_dimensional",
            "float_labels", "bool_labels"])
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
        for state, report, _ in simulation.rounds(cfg):
            before = dataclasses.replace(state, round=report.round - 1)
            assert report.online == sample_clients(before, cfg)

    def test_smallest_accepted_tau_c_gives_finite_contrastive_losses(self):
        (report,) = run_simulation(small_config(tau_c=2e-308, rounds=1)).reports
        assert report.contrastive_losses
        assert all(math.isfinite(loss) for loss in report.contrastive_losses.values())


class TestInputRulesStayInSetUp:
    # Config and data rules are checked once, where the input enters; the
    # modules that train, embed, aggregate and score trust what they get.
    @pytest.mark.parametrize("module", [nn, embedding, aggregation, metrics],
                             ids=lambda module: module.__name__)
    def test_inner_modules_raise_no_input_error(self, module):
        raised = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
        assert raised & {"ConfigError", "ClientSkipped"} == set()


class TestRaisedErrorTypes:
    # A fault in the input (a config, a data or checkpoint file) is a
    # ValueError that names its source; a fault in the run (a bug, a diverged
    # model) is a RuntimeError; FileExistsError is the one system fault the
    # package raises itself. A caller catching one kind must not catch
    # another, so a new type joins exactly one group here.
    GROUPS = {ValueError: {ConfigError, FormatError},
              RuntimeError: {InvariantError, NumericalError},
              OSError: {FileExistsError}}

    def test_the_package_raises_only_these_types(self):
        raised = set()
        for module in Path(simulation.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
        assert raised == {cls.__name__ for members in self.GROUPS.values() for cls in members}

    def test_each_type_falls_in_its_group_alone(self):
        for base, members in self.GROUPS.items():
            for cls in members:
                assert [group for group in self.GROUPS if issubclass(cls, group)] == [base], cls


class TestRoundMatchesOracle:
    @given(clients=st.integers(1, 7), online=st.integers(1, 7), rounds=st.integers(1, 7),
           gamma=st.sampled_from([0.0, 0.5, 2.0]), k=st.sampled_from([0.5, 2.0, 20.0]),
           beta=st.sampled_from([0.0, 0.5, 1.0]), eta0=st.sampled_from([0.05, 0.3]),
           lr_decay=st.sampled_from([1.0, 0.9]), local_epochs=st.integers(1, 2),
           batch_size=st.integers(2, 9), per_client=st.integers(4, 12), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_every_algorithm_follows_the_equations(self, clients, online, rounds, gamma, k, beta,
                                                   eta0, lr_decay, local_epochs, batch_size,
                                                   per_client, seed):
        cfg = ExperimentConfig(clients=clients, online_per_round=min(online, clients),
                               rounds=rounds, gamma=gamma, k=k, beta=beta, eta0=eta0,
                               lr_decay=lr_decay, local_epochs=local_epochs,
                               batch_size=batch_size, seed=seed,
                               dataset=SyntheticSource(num_classes=3, input_dim=4,
                                                       n=clients * per_client),
                               model=ModelSpec(4, (8,), 3))
        try:
            shards = build_shards(cfg)
        except ConfigError:  # a partition that no redraw fills
            assume(False)
        for algorithm in ALGORITHMS:
            run_cfg = dataclasses.replace(cfg, algorithm=algorithm)
            try:
                records = list(simulation.rounds(run_cfg, shards))
            except (ConfigError, NumericalError):  # no test row, or a dead layer stops it
                assume(False)
            assignments = [assignment for *_, assignment in records if assignment is not None]
            wanted, expected = run_oracle(run_cfg, shards)
            assert len(assignments) == len(wanted)
            for got, want in zip(assignments, wanted):
                assert sorted(got.weights) == want["members"]
                assert Fraction(got.window_tau) == want["tau"]
                # count / tau as a float is the float nearest the fraction: no other
                # fraction with a denominator up to tau lies that close
                assert {cid: Fraction(f).limit_denominator(want["tau"])
                        for cid, f in got.frequencies.items()} == want["frequencies"]
                assert all(abs(got.weights[cid] - w) <= 1e-12 for cid, w in want["weights"].items())
            final = records[-1][0].params
            assert np.linalg.norm(final - expected) <= 1e-10 * np.linalg.norm(expected)


# 12 clients, 2 online: a cached gradient stays in memory until its client
# last trained window_bound = 6 rounds ago.
RECOMPUTE_CONFIG = ExperimentConfig(rounds=40, clients=12, online_per_round=2, batch_size=20,
                                    dataset=SyntheticSource(num_classes=4, input_dim=16, n=960))


class TestCachedGradientsRecompute:
    # A cached gradient is a pure function of the global vector before its
    # client's last round t and of that client's round-t shuffle stream, so a
    # checkpoint that keeps those vectors could recompute the cache bit for bit.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algorithm", ["corefed", "cofed"])
    def test_every_cached_gradient_is_its_clients_last_update(self, algorithm, seed):
        cfg = dataclasses.replace(RECOMPUTE_CONFIG, algorithm=algorithm, seed=seed)
        shards = build_shards(cfg)
        trained_from, live, ages = {1: initial_params(cfg)}, [], set()
        for state, _, _ in simulation.rounds(cfg, shards):
            for cid, cached in state.ledger.last_gradient.items():
                t = state.ledger.client_rounds[cid][-1]
                ages.add(state.round - t)
                eta = lr_schedule(cfg.eta0, cfg.lr_decay, t)
                local = local_train(trained_from[t], cfg.model, shards[cid - 1], cfg.local_epochs,
                                    cfg.batch_size, eta, substream(cfg.seed, "shuffle", t, cid))
                assert pseudo_gradient(trained_from[t], local, eta).tobytes() == cached.tobytes(), \
                    f"round {state.round}, client {cid} (last trained in round {t})"
            trained_from[state.round + 1] = state.params
            live.append(len(state.ledger.last_gradient))
        assert len(live) == cfg.rounds and max(live) > cfg.resolved_online(), live
        # only a record that comes before its round's release holds a gradient this old
        assert max(ages) == window_bound(cfg.clients, cfg.resolved_online())


class TestRoundKernelsCallUfuncsDirectly:
    # The round's per-sample and per-client paths call the ufunc reductions and
    # the dot products behind numpy's Python-level wrappers themselves, which
    # keeps every bit and skips the wrappers' per-call cost on arrays of a few rows.
    KERNELS = {("nn.py", "backward"), ("nn.py", "local_train"),
               ("embedding.py", "client_embedding"), ("embedding.py", "global_embedding"),
               ("embedding.py", "cosine"), ("embedding.py", "contrastive_loss"),
               ("embedding.py", "build_alignment_records"), ("metrics.py", "evaluate_accuracy"),
               ("metrics.py", "mean_contrastive_loss"), ("metrics.py", "fairness_summary")}

    def test_no_kernel_names_a_numpy_wrapper(self):
        owners = {"nn.py": [nn], "embedding.py": [embedding],
                  "metrics.py": [metrics, metrics.RoundReport]}
        assert all(any(hasattr(owner, name) for owner in owners[module])
                   for module, name in self.KERNELS)
        assert attribute_users({"linalg", "clip", "mean", "sum", "max"}) & self.KERNELS == set()


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
        seen = [len(state.ledger.client_rounds) for state, _, _ in simulation.rounds(cfg)]
        assert seen == sorted(seen) and seen[-1] <= cfg.clients


class TestRoundRecords:
    # simulation.rounds owns the loop: run_simulation and every observer read its records.
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_records_carry_the_runs_reports(self, algorithm):
        cfg = small_config(algorithm=algorithm, rounds=4)
        records, result = list(simulation.rounds(cfg)), run_simulation(cfg)
        assert [state.round for state, _, _ in records] == list(range(1, cfg.rounds + 1))
        assert [report for _, report, _ in records] == result.reports
        assert records[-1][0].params.tobytes() == result.final_params.tobytes()

    def test_a_due_checkpoint_is_complete_when_its_record_arrives(self, tmp_path):
        # round_6 copies the records of gradients released after round_4 was saved
        cfg = small_config(algorithm="corefed", rounds=6, checkpoint_interval=2)
        for state, _, _ in simulation.rounds(cfg, checkpoint_dir=tmp_path):
            due = [f"round_{t}" for t in range(2, state.round + 1, 2)]
            assert sorted(path.name for path in tmp_path.iterdir()) == due
            if state.round % 2:
                continue
            round_dir = tmp_path / due[-1]
            assert read_vector(round_dir / "global.bin").tobytes() == state.params.tobytes()
            ledger = load_ledger(round_dir / "ledger.json", round_dir / "gradients.bin")
            assert ledger.client_rounds == state.ledger.client_rounds
            assert ledger.last_gradient.keys() == ledger.client_rounds.keys()
            assert all(ledger.last_gradient[cid].tobytes() == cached.tobytes()
                       for cid, cached in state.ledger.last_gradient.items())

    def test_only_the_fair_path_assigns_weights(self):
        for algorithm in ALGORITHMS:
            for _, report, assignment in simulation.rounds(small_config(algorithm=algorithm)):
                assert (assignment is None) == (algorithm in ("refed", "fedavg"))
                assert assignment is None or report.online <= assignment.weights.keys()

    def test_a_bad_injected_shard_stops_the_first_record(self, monkeypatch):
        cfg = small_config(clients=3, online_per_round=3, rounds=2)
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        records = simulation.rounds(cfg, equal_shards(2, 8))
        with pytest.raises(ConfigError, match=r"^injected shards need client ids 1\.\.3 once each: "
                                              r"client 3 is missing$"):
            next(records)
        assert trained == []

    def test_only_rounds_runs_a_round(self):
        # each top-level statement under src/corefed that names run_round: called, bound or imported
        users = set()
        for module in Path(simulation.__file__).parent.glob("*.py"):
            for top in ast.parse(module.read_text(encoding="utf-8")).body:
                if any("run_round" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       node.name if isinstance(node, ast.alias) else None)
                       for node in ast.walk(top)):
                    users.add((module.name, getattr(top, "name", "<module>")))
        assert users == {("simulation.py", "rounds")}


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


class TestBenchmarkReferenceBytes:
    # The benchmark rejects a change whose run directory differs from the
    # reference digest; this runs each benchmarked workload's reference
    # config the way the benchmark does, so a moved byte fails here first.
    BENCHMARKED = [w["name"] for w in json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["workloads"]]

    @pytest.mark.parametrize("name", BENCHMARKED)
    def test_reference_config_writes_the_reference_digest(self, monkeypatch, tmp_path, name):
        import_tracer(monkeypatch)
        import bench
        from corefed import cli

        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        (entry,) = [e for e in json.loads(bench.REFERENCE_FILE.read_text(encoding="utf-8"))
                    if e["workload"] == name]
        workload = bench.WORKLOADS[name]
        path, cfg = bench.write_config(workload, entry["config_seed"] - 1, None, tmp_path)
        run_id = f"seed{cfg.seed}"  # summary.json holds the run id: it must be the benchmark's
        assert cli.main(workload.argv(path, tmp_path / "out", run_id)) == 0
        assert bench.tree_digest(tmp_path / "out" / run_id) == entry["digest"]


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
