import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefed.data import Dataset, Shard
from corefed.errors import MeasurementError
from corefed.metrics import (
    RoundReport,
    d_cosine,
    d_manhattan,
    evaluate_accuracy,
    fairness_summary,
)
from corefed.nn import Batch, ModelSpec, forward

vectors = st.lists(st.floats(-5, 5), min_size=2, max_size=8)


class TestDCosine:
    def test_identical_models_have_zero_distance(self):
        v = np.array([0.4, -1.2, 3.0])
        assert d_cosine(v, v) == pytest.approx(0.0, abs=1e-7)

    def test_opposite_models_are_pi_apart(self):
        v = np.array([1.0, 2.0])
        assert d_cosine(v, -v) == pytest.approx(math.pi, abs=1e-7)

    def test_hand_computed_quarter_pi(self):
        value = d_cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(math.pi / 4, abs=1e-12)
        assert value == pytest.approx(0.78540, abs=1e-5)

    def test_zero_norm_is_measurement_error(self):
        with pytest.raises(MeasurementError):
            d_cosine(np.zeros(3), np.ones(3))

    @given(vectors, st.floats(0.01, 50), st.floats(0.01, 50))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_and_bounds(self, values, sa, sb):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-9:
            return
        w = np.roll(v, 1) + 0.3
        if np.linalg.norm(w) < 1e-9:
            return
        base = d_cosine(v, w)
        assert 0.0 <= base <= math.pi
        assert d_cosine(sa * v, sb * w) == pytest.approx(base, abs=1e-7)


class TestDManhattan:
    def test_identical_is_zero(self):
        v = np.array([1.0, 2.0])
        assert d_manhattan(v, v) == 0.0

    def test_hand_computed_value(self):
        assert d_manhattan(np.array([1.0, 2.0]), np.array([0.0, 4.0])) == pytest.approx(3.0)

    def test_additive_over_layer_blocks(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        split_sum = d_manhattan(a[:4], b[:4]) + d_manhattan(a[4:], b[4:])
        assert d_manhattan(a, b) == pytest.approx(split_sum, rel=1e-12)

    def test_degree_one_homogeneity(self):
        a = np.array([1.0, -2.0])
        b = np.array([0.5, 3.0])
        assert d_manhattan(3 * a, 3 * b) == pytest.approx(3 * d_manhattan(a, b), rel=1e-12)


def shard(client_id, inputs, labels, num_classes):
    ds = Dataset(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64), num_classes)
    return Shard(client_id=client_id, train=ds, test=ds)


class TestEvaluateAccuracy:
    def setup_method(self):
        self.spec = ModelSpec(2, (3,), 4)

    def test_zero_model_predicts_first_class_everywhere(self):
        # all-zero logits: argmax tie resolves to class 0
        balanced = shard(1, np.random.default_rng(0).uniform(size=(8, 2)),
                         np.tile(np.arange(4), 2), 4)
        mean, per_client = evaluate_accuracy(np.zeros(self.spec.num_params()), self.spec, [balanced])
        assert mean == pytest.approx(0.25)
        assert per_client == {1: pytest.approx(0.25)}

    def test_tie_break_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        params = rng.uniform(-1, 1, self.spec.num_params())
        s = shard(1, rng.uniform(size=(12, 2)), rng.integers(0, 4, size=12), 4)
        _, per_client = evaluate_accuracy(params, self.spec, [s])

        _, logits = forward(params, self.spec, Batch(s.test.inputs, s.test.labels))
        hits = 0
        for row, label in zip(logits, s.test.labels):
            best, best_value = 0, row[0]
            for j in range(1, len(row)):
                if row[j] > best_value:
                    best, best_value = j, row[j]
            hits += best == label
        assert per_client[1] == pytest.approx(hits / 12)

    def test_clients_without_test_data_are_excluded(self):
        rng = np.random.default_rng(1)
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 4)
        with_data = shard(1, rng.uniform(size=(4, 2)), rng.integers(0, 4, size=4), 4)
        no_data = Shard(client_id=2, train=with_data.train, test=empty)
        mean, per_client = evaluate_accuracy(np.zeros(self.spec.num_params()), self.spec,
                                             [with_data, no_data])
        assert set(per_client) == {1}

    def test_all_empty_is_measurement_error(self):
        empty = Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 4)
        s = Shard(client_id=1, train=empty, test=empty)
        with pytest.raises(MeasurementError):
            evaluate_accuracy(np.zeros(self.spec.num_params()), self.spec, [s])

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        params = rng.uniform(-1, 1, self.spec.num_params())
        inputs = rng.uniform(size=(10, 2))
        labels = rng.integers(0, 4, size=10)
        perm = rng.permutation(10)
        a = evaluate_accuracy(params, self.spec, [shard(1, inputs, labels, 4)])
        b = evaluate_accuracy(params, self.spec, [shard(1, inputs[perm], labels[perm], 4)])
        assert a[0] == b[0]


def per_slice_accuracy(global_params, spec, shards):
    """The one-forward-per-client evaluation, kept as the oracle."""
    per_client = {}
    for s in shards:
        if not len(s.test):
            continue
        _, logits = forward(global_params, spec, Batch(s.test.inputs, s.test.labels))
        per_client[s.client_id] = float(np.mean(logits.argmax(axis=1) == s.test.labels))
    if not per_client:
        raise MeasurementError("no shard has a non-empty test slice")
    return float(np.mean(list(per_client.values()))), per_client


class TestOnePassMatchesPerSliceOracle:
    @given(seed=st.integers(0, 2**32 - 1),
           num_classes=st.sampled_from([1, 2, 3, 10]),
           slice_sizes=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7, 40]), min_size=1, max_size=12),
           zero_params=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal(self, seed, num_classes, slice_sizes, zero_params):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(5, (6, 4), num_classes)
        params = (np.zeros(spec.num_params()) if zero_params
                  else rng.normal(0.0, 1.0, spec.num_params()))
        shards = []
        for cid, n in enumerate(slice_sizes, start=1):
            test = Dataset(rng.uniform(size=(n, 5)), rng.integers(0, num_classes, size=n),
                           num_classes)
            shards.append(Shard(client_id=cid, train=test, test=test))
        if not any(slice_sizes):
            with pytest.raises(MeasurementError):
                evaluate_accuracy(params, spec, shards)
            return
        mean, per_client = evaluate_accuracy(params, spec, shards)
        expected_mean, expected = per_slice_accuracy(params, spec, shards)
        assert list(per_client.items()) == list(expected.items())
        assert mean == expected_mean


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fairness_summary({}, np.ones(2))


class TestRoundReport:
    def test_mean_contrastive_skips_sentinels(self):
        report = RoundReport(round=1, mean_accuracy=0.5, per_client_accuracy={1: 0.5},
                             d_cosine_mean=0.0, d_manhattan_mean=0.0,
                             contrastive_losses={1: 0.25, 2: None, 3: 0.75},
                             weights={1: 1.0}, learning_rate=0.1, online=frozenset({1}))
        assert report.mean_contrastive_loss == pytest.approx(0.5)
        assert report.num_online == 1

    def test_mean_contrastive_nan_when_absent(self):
        report = RoundReport(round=1, mean_accuracy=0.5, per_client_accuracy={1: 0.5},
                             d_cosine_mean=0.0, d_manhattan_mean=0.0,
                             contrastive_losses={}, weights={1: 1.0},
                             learning_rate=0.1, online=frozenset({1}))
        assert math.isnan(report.mean_contrastive_loss)
