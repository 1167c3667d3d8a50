import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corefed.data import Dataset, Shard
from corefed.embedding import _NORM_EPS
from corefed.errors import ConfigError, NumericalError
from corefed import simulation
from corefed.config import ExperimentConfig, SyntheticSource
from corefed.metrics import (
    RoundReport,
    evaluate_accuracy,
    evaluation_plan,
    fairness_summary,
)
from corefed.nn import ModelSpec, forward, unflatten

vectors = st.lists(st.floats(-5, 5), min_size=2, max_size=8)


def angle(local, global_params):
    """One client's angular distance, as ``fairness_summary`` measures it."""
    return fairness_summary({1: local}, global_params)[0]


def l1(local, global_params):
    """One client's Manhattan distance, as ``fairness_summary`` measures it."""
    return fairness_summary({1: local}, global_params)[1]


class TestDCosine:
    def test_identical_models_have_zero_distance(self):
        v = np.array([0.4, -1.2, 3.0])
        assert angle(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_opposite_models_are_pi_apart(self):
        v = np.array([1.0, 2.0])
        assert angle(v, -v) == pytest.approx(math.pi, abs=1e-7)

    def test_hand_computed_quarter_pi(self):
        value = angle(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(math.pi / 4, abs=1e-12)
        assert value == pytest.approx(0.78540, abs=1e-5)

    @given(vectors, st.floats(0.01, 50), st.floats(0.01, 50))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_and_bounds(self, values, sa, sb):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-9:
            return
        w = np.roll(v, 1) + 0.3
        if np.linalg.norm(w) < 1e-9:
            return
        base = angle(v, w)
        assert 0.0 <= base <= math.pi
        assert angle(sa * v, sb * w) == pytest.approx(base, abs=1e-7)

    def test_zero_norm_local_is_skipped_from_the_angular_mean_only(self):
        global_params = np.array([1.0, 0.0])
        locals_ = {1: np.zeros(2), 2: np.array([1.0, 1.0])}
        d_cos, d_man = fairness_summary(locals_, global_params)
        assert d_cos == pytest.approx(math.pi / 4, abs=1e-12)
        assert d_man == pytest.approx((1.0 + 1.0) / 2, abs=1e-12)

    def test_angular_mean_is_nan_when_every_client_is_skipped(self):
        d_cos, d_man = fairness_summary({1: np.zeros(2), 2: np.zeros(2)}, np.ones(2))
        assert math.isnan(d_cos)
        assert d_man == 2.0
        d_cos, d_man = fairness_summary({1: np.ones(2)}, np.zeros(2))
        assert math.isnan(d_cos)
        assert d_man == 2.0

    def test_not_a_number_local_is_not_skipped(self):
        # its norm is NaN, not below the threshold, so the NaN reaches both
        # means; pytest turns any RuntimeWarning on the way into an error
        locals_ = {1: np.array([np.nan, 1.0]), 2: np.array([1.0, 1.0])}
        d_cos, d_man = fairness_summary(locals_, np.array([1.0, 0.0]))
        assert math.isnan(d_cos)
        assert math.isnan(d_man)


class TestDManhattan:
    def test_identical_is_zero(self):
        v = np.array([1.0, 2.0])
        assert l1(v, v) == 0.0

    def test_hand_computed_value(self):
        assert l1(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(3.0)

    def test_additive_over_layer_blocks(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        split_sum = l1(a[:4], b[:4]) + l1(a[4:], b[4:])
        assert l1(a, b) == pytest.approx(split_sum, rel=1e-12)

    def test_degree_one_homogeneity(self):
        a = np.array([1.0, -2.0])
        b = np.array([0.5, 3.0])
        assert l1(3 * a, 3 * b) == pytest.approx(3 * l1(a, b), rel=1e-12)


def shard(client_id, inputs, labels, num_classes):
    ds = Dataset(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64), num_classes)
    return Shard(client_id=client_id, train=ds, test=ds)


def zero_output_model(spec):
    """Hidden biases of 1 and every other parameter 0: a live last hidden
    layer under an all-zero output layer, so every logit is 0."""
    params = np.zeros(spec.num_params())
    for _, bias in unflatten(params, spec)[:-1]:
        bias[:] = 1.0
    return params


class TestEvaluateAccuracy:
    def setup_method(self):
        self.spec = ModelSpec(2, (3,), 4)

    def test_zero_model_predicts_first_class_everywhere(self):
        # all-zero logits: argmax tie resolves to class 0
        balanced = shard(1, np.random.default_rng(0).uniform(size=(8, 2)),
                         np.tile(np.arange(4), 2), 4)
        plan = evaluation_plan(self.spec, [balanced])
        mean, accuracies = evaluate_accuracy(zero_output_model(self.spec), self.spec, plan)
        assert mean == pytest.approx(0.25)
        assert dict(zip(plan.client_ids, accuracies)) == {1: pytest.approx(0.25)}

    def test_dead_last_hidden_layer_is_numerical_error(self):
        s = shard(1, np.random.default_rng(0).uniform(size=(8, 2)), np.tile(np.arange(4), 2), 4)
        with pytest.raises(NumericalError, match="last hidden layer is dead on all 8 test rows"):
            evaluate_accuracy(np.zeros(self.spec.num_params()), self.spec,
                              evaluation_plan(self.spec, [s]))

    def test_one_live_row_keeps_the_model_alive(self):
        # the first row's activations are all 0, the last row's are not
        params = np.zeros(self.spec.num_params())
        unflatten(params, self.spec)[0][0][:] = 1.0
        s = shard(1, [[0.0, 0.0]] * 3 + [[0.5, 0.0]], [0, 1, 0, 1], 4)
        mean, _ = evaluate_accuracy(params, self.spec, evaluation_plan(self.spec, [s]))
        assert mean == 0.5

    def test_tie_break_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        params = rng.uniform(-1, 1, self.spec.num_params())
        s = shard(1, rng.uniform(size=(12, 2)), rng.integers(0, 4, size=12), 4)
        _, accuracies = evaluate_accuracy(params, self.spec, evaluation_plan(self.spec, [s]))

        _, logits = forward(params, self.spec, s.test)
        hits = 0
        for row, label in zip(logits, s.test.labels):
            best, best_value = 0, row[0]
            for j in range(1, len(row)):
                if row[j] > best_value:
                    best, best_value = j, row[j]
            hits += best == label
        assert list(accuracies) == [pytest.approx(hits / 12)]

    def test_clients_without_test_data_are_excluded(self):
        rng = np.random.default_rng(1)
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 4)
        with_data = shard(1, rng.uniform(size=(4, 2)), rng.integers(0, 4, size=4), 4)
        no_data = Shard(client_id=2, train=with_data.train, test=empty)
        plan = evaluation_plan(self.spec, [with_data, no_data])
        _, accuracies = evaluate_accuracy(zero_output_model(self.spec), self.spec, plan)
        assert plan.client_ids == (1,)
        assert len(accuracies) == 1

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        params = rng.uniform(-1, 1, self.spec.num_params())
        inputs = rng.uniform(size=(10, 2))
        labels = rng.integers(0, 4, size=10)
        perm = rng.permutation(10)
        a, b = (evaluate_accuracy(params, self.spec, evaluation_plan(self.spec, [s]))
                for s in (shard(1, inputs, labels, 4), shard(1, inputs[perm], labels[perm], 4)))
        assert a[0] == b[0]


def per_slice_accuracy(global_params, spec, shards):
    """The one-forward-per-client evaluation, kept as the oracle."""
    per_client = {}
    live = False
    for s in shards:
        if not len(s.test):
            continue
        embeddings, logits = forward(global_params, spec, s.test)
        live = live or bool((embeddings > 0.0).any())
        per_client[s.client_id] = float(np.mean(logits.argmax(axis=1) == s.test.labels))
    if not live:
        raise NumericalError("dead last hidden layer")
    return float(np.mean(list(per_client.values()))), per_client


class TestOnePassMatchesPerSliceOracle:
    @given(seed=st.integers(0, 2**32 - 1),
           num_classes=st.sampled_from([1, 2, 3, 10]),
           slice_sizes=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7, 40]), min_size=1, max_size=12),
           zero_params=st.booleans())
    @settings(max_examples=80, deadline=None)
    @example(seed=18, num_classes=2, slice_sizes=[1], zero_params=False)  # a dead random model
    def test_bitwise_equal(self, seed, num_classes, slice_sizes, zero_params):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(5, (6, 4), num_classes)
        params = (zero_output_model(spec) if zero_params
                  else rng.normal(0.0, 1.0, spec.num_params()))
        shards = []
        for cid, n in enumerate(slice_sizes, start=1):
            test = Dataset(rng.uniform(size=(n, 5)), rng.integers(0, num_classes, size=n),
                           num_classes)
            shards.append(Shard(client_id=cid, train=test, test=test))
        assume(any(slice_sizes))  # run_simulation rejects shards without a test row
        plan = evaluation_plan(spec, shards)
        try:
            expected_mean, expected = per_slice_accuracy(params, spec, shards)
        except NumericalError:  # no test row has a live embedding
            with pytest.raises(NumericalError, match="last hidden layer is dead"):
                evaluate_accuracy(params, spec, plan)
            return
        mean, accuracies = evaluate_accuracy(params, spec, plan)
        assert list(zip(plan.client_ids, accuracies)) == list(expected.items())
        assert mean == expected_mean


def wrapper_evaluate_accuracy(global_params, spec, plan):
    """``evaluate_accuracy`` through ``ndarray.max`` and ``np.mean``, kept as its bitwise
    reference; None where it finds the last hidden layer dead."""
    embeddings, logits = forward(global_params, spec, plan.data)
    if not (embeddings[0].max() > 0.0 or embeddings.max() > 0.0):
        return None
    hits = np.add.reduceat(logits.argmax(axis=1) == plan.data.labels, plan.starts,
                           dtype=np.int64)
    accuracies = hits / plan.sizes
    return float(np.mean(accuracies)), accuracies


class TestEvaluateAccuracyArithmetic:
    @given(seed=st.integers(0, 2**32 - 1), num_classes=st.sampled_from([1, 2, 3, 7]),
           slice_sizes=st.lists(st.integers(1, 30), min_size=1, max_size=40),
           params_scale=st.sampled_from([1.0, 0.1, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_max_and_mean(self, seed, num_classes, slice_sizes, params_scale):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(3, (4,), num_classes)
        params = params_scale * rng.normal(size=spec.num_params())
        shards = [shard(cid, rng.uniform(-1, 1, size=(n, 3)),
                        rng.integers(0, num_classes, size=n), num_classes)
                  for cid, n in enumerate(slice_sizes, start=1)]
        plan = evaluation_plan(spec, shards)
        expected = wrapper_evaluate_accuracy(params, spec, plan)
        if expected is None:
            with pytest.raises(NumericalError, match="last hidden layer is dead"):
                evaluate_accuracy(params, spec, plan)
            return
        mean, accuracies = evaluate_accuracy(params, spec, plan)
        assert np.float64(mean).tobytes() == np.float64(expected[0]).tobytes()
        assert bytes(accuracies) == expected[1].tobytes()


def plan_config(rounds):
    return ExperimentConfig(rounds=rounds, clients=3, online_per_round=3, seed=7, batch_size=16,
                            dataset=SyntheticSource(num_classes=3, input_dim=6, n=120))


class TestPlanPerRun:
    def test_no_test_slice_stops_the_run_before_any_training(self, monkeypatch):
        cfg = plan_config(rounds=2)
        shards = [Shard(client_id=s.client_id, train=s.train, test=s.train.subset(np.empty(0, int)))
                  for s in simulation.build_shards(cfg)]
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match="^no shard has a non-empty test slice$"):
            simulation.run_simulation(cfg, shards=shards)
        assert trained == []

    def test_built_shards_without_a_test_row_stop_the_run_before_any_training(self, monkeypatch):
        # one client holding one sample of each class: split_test keeps all three for training
        cfg = ExperimentConfig(rounds=1, clients=1, online_per_round=1,
                               dataset=SyntheticSource(num_classes=3, input_dim=6, n=3))
        trained = []
        monkeypatch.setattr(simulation, "local_train", lambda *args: trained.append(args))
        with pytest.raises(ConfigError, match="^no shard has a non-empty test slice$"):
            simulation.run_simulation(cfg)
        assert trained == []

    def test_three_round_run_builds_one_plan(self, monkeypatch):
        plans = []

        def counted(*args):
            plans.append(evaluation_plan(*args))
            return plans[-1]

        monkeypatch.setattr(simulation, "evaluation_plan", counted)
        assert len(simulation.run_simulation(plan_config(rounds=3)).reports) == 3
        assert len(plans) == 1


def crowd_like_shards():
    """``build_shards`` output shaped like the crowd benchmark, at 60 clients."""
    cfg = ExperimentConfig(clients=60, online_per_round=5, seed=3, dirichlet_alpha=0.5,
                           dataset=SyntheticSource(num_classes=10, input_dim=32, n=6000))
    return cfg.model, simulation.build_shards(cfg)


def assert_plan_concatenates(plan, shards):
    tested = [s for s in shards if len(s.test)]
    assert plan.client_ids == tuple(s.client_id for s in tested)
    for got, parts in ((plan.data.inputs, [s.test.inputs for s in tested]),
                       (plan.data.labels, [s.test.labels for s in tested])):
        want = np.concatenate(parts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_plan_is_a_copy(plan, shards):
    assert_plan_concatenates(plan, shards)
    for s in shards:
        assert not np.shares_memory(plan.data.inputs, s.test.inputs)


class TestPlanLayout:
    def test_build_shards_plan_is_a_view_of_the_test_rows(self):
        spec, shards = crowd_like_shards()
        first = next(s for s in shards if len(s.test))
        tracemalloc.start()
        try:
            plan = evaluation_plan(spec, shards)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(plan.data.inputs, first.test.inputs)
        assert np.shares_memory(plan.data.labels, first.test.labels)
        # a copy would allocate the test inputs and labels; labels are the smaller
        assert peak - plan.sizes.nbytes - plan.starts.nbytes < plan.data.labels.nbytes
        assert_plan_concatenates(plan, shards)

    def test_descending_ids_are_copied_value_for_value(self):
        spec, shards = crowd_like_shards()
        assert_plan_is_a_copy(evaluation_plan(spec, shards[::-1]), shards[::-1])

    def test_slices_with_gaps_are_copied_value_for_value(self):
        spec, shards = crowd_like_shards()
        every_other = [s for s in shards if len(s.test)][::2]
        assert_plan_is_a_copy(evaluation_plan(spec, every_other), every_other)


class TestAccuraciesPerRound:
    def test_one_float64_buffer_per_report_over_one_shared_id_tuple(self):
        # a dict of boxed floats took 55 bytes a client and round; the array takes 8
        cfg = plan_config(rounds=3)
        shards = simulation.build_shards(cfg)
        tested = [s.client_id for s in shards if len(s.test)]
        reports = simulation.run_simulation(cfg, shards=shards).reports
        for report in reports:
            buffer = memoryview(report.accuracies)
            assert (buffer.format, buffer.itemsize, buffer.ndim) == ("d", 8, 1)
            assert len(buffer) == len(tested)
            assert report.client_ids is reports[0].client_ids
        assert list(reports[0].client_ids) == tested


class TestFairnessSummary:
    def test_all_local_models_equal_global(self):
        v = np.array([1.0, 2.0, 3.0])
        d_cos, d_man = fairness_summary({1: v.copy(), 2: v.copy()}, v)
        assert d_cos == pytest.approx(0.0, abs=1e-7)
        assert d_man == 0.0

    def test_symmetric_locals_give_l1_norm(self):
        center = np.array([1.0, 1.0])
        offset = np.array([0.25, -0.5])
        _, d_man = fairness_summary({1: center + offset, 2: center - offset}, center)
        assert d_man == pytest.approx(np.abs(offset).sum(), rel=1e-12)

    def test_three_client_hand_computation(self):
        global_params = np.array([1.0, 0.0])
        locals_ = {1: np.array([1.0, 1.0]), 2: np.array([2.0, 0.0]), 3: np.array([0.0, 1.0])}
        d_cos, d_man = fairness_summary(locals_, global_params)
        expected_cos = (math.pi / 4 + 0.0 + math.pi / 2) / 3
        expected_man = (1.0 + 1.0 + 2.0) / 3
        assert d_cos == pytest.approx(expected_cos, abs=1e-12)
        assert d_man == pytest.approx(expected_man, abs=1e-12)


def linalg_fairness_summary(local_models, global_params):
    """``fairness_summary`` through ``np.linalg.norm``, ``np.clip``, ``ndarray.sum`` and
    ``np.mean``, kept as the bitwise reference for its direct ufunc calls."""
    global_norm = np.linalg.norm(global_params)
    cosines = []
    manhattans = []
    for params in local_models.values():
        norm = np.linalg.norm(params)
        if not (norm < _NORM_EPS or global_norm < _NORM_EPS):
            cosine = np.dot(params, global_params) / (norm * global_norm)
            cosines.append(float(np.arccos(np.clip(cosine, -1.0, 1.0))))
        manhattans.append(float(np.abs(params - global_params).sum()))
    cos_mean = float(np.mean(cosines)) if cosines else math.nan
    return cos_mean, float(np.mean(manhattans))


class TestFairnessSummaryArithmetic:
    @given(kinds=st.lists(st.sampled_from(["random", "zero", "global", "parallel", "opposite"]),
                          min_size=1, max_size=7),
           global_kind=st.sampled_from(["random", "random", "zero"]), width=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(kinds=["zero", "zero"], global_kind="random", width=3, seed=0)
    @example(kinds=["random", "global"], global_kind="zero", width=5, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_linalg_norm_clip_and_mean(self, kinds, global_kind, width, seed):
        rng = np.random.default_rng(seed)
        global_params = rng.normal(size=width) if global_kind == "random" else np.zeros(width)
        made = {"random": lambda: rng.normal(size=width), "zero": lambda: np.zeros(width),
                "global": global_params.copy,
                "parallel": lambda: rng.uniform(0.1, 10.0) * global_params,
                "opposite": lambda: -rng.uniform(0.1, 10.0) * global_params}
        local_models = {cid: made[kind]() for cid, kind in enumerate(kinds, start=1)}
        got = np.array(fairness_summary(local_models, global_params))
        expected = np.array(linalg_fairness_summary(local_models, global_params))
        assert got.tobytes() == expected.tobytes()


class TestRoundReport:
    def test_mean_contrastive_skips_sentinels(self):
        report = RoundReport(round=1, mean_accuracy=0.5,
                             client_ids=(1,), accuracies=array("d", [0.5]),
                             d_cosine_mean=0.0, d_manhattan_mean=0.0,
                             contrastive_losses={1: 0.25, 2: None, 3: 0.75},
                             learning_rate=0.1, online=frozenset({1}))
        assert report.mean_contrastive_loss == pytest.approx(0.5)
        assert report.num_online == 1

    @given(losses=st.lists(st.one_of(st.none(), st.floats(-50, 50)), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mean_contrastive_same_bits_as_np_mean(self, losses):
        report = RoundReport(round=1, mean_accuracy=0.5, client_ids=(1,),
                             accuracies=array("d", [0.5]), d_cosine_mean=0.0,
                             d_manhattan_mean=0.0, contrastive_losses=dict(enumerate(losses)))
        values = [v for v in losses if v is not None]
        expected = float(np.mean(values)) if values else math.nan
        assert np.float64(report.mean_contrastive_loss).tobytes() == np.float64(expected).tobytes()

    def test_mean_contrastive_nan_when_absent(self):
        report = RoundReport(round=1, mean_accuracy=0.5,
                             client_ids=(1,), accuracies=array("d", [0.5]),
                             d_cosine_mean=0.0, d_manhattan_mean=0.0,
                             contrastive_losses={}, learning_rate=0.1,
                             online=frozenset({1}))
        assert math.isnan(report.mean_contrastive_loss)
