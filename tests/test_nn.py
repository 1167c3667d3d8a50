import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefed.data import Dataset, Shard
from corefed.nn import (
    ModelSpec,
    backward,
    flatten,
    forward,
    init_params,
    local_train,
    sgd_step,
    unflatten,
)


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch: the objective ``backward``
    differentiates, kept here as the finite-difference oracle."""
    if len(logits) != len(labels):
        raise ValueError("logits and labels disagree on batch size")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


def make_shard(inputs, labels, num_classes, client_id=1):
    ds = Dataset(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64), num_classes)
    empty = Dataset(np.empty((0, ds.input_dim)), np.empty(0, dtype=np.int64), num_classes)
    return Shard(client_id=client_id, train=ds, test=empty)


class TestModelSpec:
    def test_param_count_matches_layer_sum(self):
        spec = ModelSpec(4, (5, 3), 2)
        assert spec.num_params() == (4 + 1) * 5 + (5 + 1) * 3 + (3 + 1) * 2


class TestFlatten:
    @given(st.integers(1, 6), st.lists(st.integers(1, 7), min_size=1, max_size=3), st.integers(2, 5),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_is_identity(self, input_dim, hidden, classes, seed):
        spec = ModelSpec(input_dim, tuple(hidden), classes)
        params = np.random.default_rng(seed).normal(size=spec.num_params())
        assert np.array_equal(flatten(unflatten(params, spec)), params)


class TestForward:
    def test_zero_params_give_uniform_softmax(self):
        spec = ModelSpec(3, (4,), 5)
        batch = Dataset(np.random.default_rng(0).normal(size=(2, 3)), np.array([0, 1]), 5)
        _, logits = forward(np.zeros(spec.num_params()), spec, batch)
        assert np.array_equal(logits, np.zeros((2, 5)))
        assert loss(logits, batch.labels) == pytest.approx(math.log(5))

    def test_identity_hidden_layer_passes_input_through(self):
        spec = ModelSpec(3, (3,), 2)
        layers = [(np.eye(3), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2))]
        x = np.array([[0.5, 0.0, 1.5]])
        emb, _ = forward(flatten(layers), spec, Dataset(x, np.array([0]), 2))
        assert np.array_equal(emb, x)

    def test_matches_straight_line_oracle(self):
        spec = ModelSpec(6, (5, 4), 3)
        rng = np.random.default_rng(42)
        params = rng.uniform(-1, 1, spec.num_params())
        x = rng.normal(size=(7, 6))
        emb, logits = forward(params, spec, Dataset(x, np.zeros(7, dtype=np.int64), 3))

        # independent slicing and matrix chain
        w1 = params[:30].reshape(6, 5)
        b1 = params[30:35]
        w2 = params[35:55].reshape(5, 4)
        b2 = params[55:59]
        w3 = params[59:71].reshape(4, 3)
        b3 = params[71:74]
        h1 = np.maximum(x @ w1 + b1, 0)
        h2 = np.maximum(h1 @ w2 + b2, 0)
        expected_logits = h2 @ w3 + b3
        np.testing.assert_allclose(emb, h2, rtol=1e-10)
        np.testing.assert_allclose(logits, expected_logits, rtol=1e-10)


class TestLoss:
    def test_confident_correct_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss(logits, np.array([0, 1])) < 1e-10

    def test_hand_computed_binary_case(self):
        # softmax CE of logits (1, 2) with label 1 is ln(1 + e^-1)
        value = loss(np.array([[1.0, 2.0]]), np.array([1]))
        assert value == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)
        assert value == pytest.approx(0.3132616875182228, abs=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        perm = rng.permutation(6)
        assert loss(logits, labels) == pytest.approx(loss(logits[perm], labels[perm]), rel=1e-12)


class TestBackward:
    def test_zero_input_zero_params_only_output_bias_moves(self):
        spec = ModelSpec(3, (4,), 2)
        batch = Dataset(np.zeros((2, 3)), np.array([0, 0]), 2)
        grad_layers = unflatten(backward(np.zeros(spec.num_params()), spec, batch), spec)
        for w, b in grad_layers[:-1]:
            assert not w.any() and not b.any()
        w_out, b_out = grad_layers[-1]
        assert not w_out.any()
        assert b_out.any()

    def test_duplicated_batch_leaves_gradient_unchanged(self):
        spec = ModelSpec(4, (3,), 3)
        rng = np.random.default_rng(3)
        params = rng.uniform(-1, 1, spec.num_params())
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        single = backward(params, spec, Dataset(x, y, 3))
        doubled = backward(params, spec, Dataset(np.vstack([x, x]), np.concatenate([y, y]), 3))
        np.testing.assert_allclose(doubled, single, rtol=1e-12)

    def test_gradient_permutation_invariance(self):
        spec = ModelSpec(4, (3,), 3)
        rng = np.random.default_rng(9)
        params = rng.uniform(-1, 1, spec.num_params())
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        perm = rng.permutation(6)
        np.testing.assert_allclose(backward(params, spec, Dataset(x[perm], y[perm], 3)),
                                   backward(params, spec, Dataset(x, y, 3)), rtol=1e-12)

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_central_finite_differences(self, trial):
        rng = np.random.default_rng(1000 + trial)
        hidden = tuple(rng.integers(2, 7, size=rng.integers(1, 3)))
        spec = ModelSpec(int(rng.integers(2, 7)), hidden, int(rng.integers(2, 5)))
        assert spec.num_params() <= 500
        params = rng.uniform(-1, 1, spec.num_params())
        batch = Dataset(rng.normal(size=(4, spec.input_dim)),
                        rng.integers(0, spec.num_classes, size=4), spec.num_classes)
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
            numeric = (up - down) / (2 * h)
            assert abs(numeric - analytic[j]) / abs(analytic[j]) < 1e-4


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, -2.0])
        sgd_step(params, np.zeros(2), 0.5)
        np.testing.assert_array_equal(params, [1.0, -2.0])

    def test_unit_lr_self_gradient_zeroes(self):
        params = np.array([1.0, -2.0])
        sgd_step(params, params.copy(), 1.0)
        np.testing.assert_array_equal(params, np.zeros(2))

    def test_elementwise_arithmetic(self):
        params = np.array([1.0, 2.0])
        sgd_step(params, np.array([0.5, -0.5]), 0.1)
        np.testing.assert_allclose(params, [0.95, 2.05], rtol=1e-15)


class TestLocalTrain:
    def setup_method(self):
        self.spec = ModelSpec(3, (4,), 2)
        rng = np.random.default_rng(5)
        self.params = rng.uniform(-1, 1, self.spec.num_params())
        self.shard = make_shard(rng.normal(size=(10, 3)), rng.integers(0, 2, size=10), 2)

    def test_zero_epochs_is_identity(self):
        out = local_train(self.params, self.spec, self.shard, 0, 4, 0.1,
                          np.random.default_rng(0))
        np.testing.assert_array_equal(out, self.params)

    def test_single_sample_single_epoch_equals_one_step(self):
        shard = make_shard(self.shard.train.inputs[:1], self.shard.train.labels[:1], 2)
        out = local_train(self.params, self.spec, shard, 1, 4, 0.1, np.random.default_rng(0))
        expected = self.params.copy()
        sgd_step(expected, backward(self.params, self.spec, shard.train), 0.1)
        np.testing.assert_array_equal(out, expected)

    def test_fixed_seed_is_bitwise_reproducible(self):
        runs = [local_train(self.params, self.spec, self.shard, 2, 3, 0.05,
                            np.random.default_rng(77)) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_partial_final_batch_is_used(self):
        # batch_size 7 over 10 samples: second batch has 3 samples and must still train
        full = local_train(self.params, self.spec, self.shard, 1, 7, 0.1, np.random.default_rng(1))
        order = np.random.default_rng(1).permutation(10)
        first, second = (Dataset(self.shard.train.inputs[part], self.shard.train.labels[part], 2)
                         for part in (order[:7], order[7:]))
        expected = self.params.copy()
        sgd_step(expected, backward(expected, self.spec, first), 0.1)
        sgd_step(expected, backward(expected, self.spec, second), 0.1)
        np.testing.assert_array_equal(full, expected)


class TestInitParams:
    def test_bounds_scale_with_fan_in(self):
        spec = ModelSpec(16, (4,), 2)
        params = init_params(spec, np.random.default_rng(0))
        layers = unflatten(params, spec)
        assert np.abs(layers[0][0]).max() <= 1 / 4
        assert np.abs(layers[1][0]).max() <= 1 / 2

    def test_seeded_init_reproducible(self):
        spec = ModelSpec(5, (4,), 3)
        a = init_params(spec, np.random.default_rng(123))
        b = init_params(spec, np.random.default_rng(123))
        assert np.array_equal(a, b)


def oracle_forward(params, spec, data):
    """The out-of-place forward pass, kept as the bitwise reference."""
    layers = unflatten(params, spec)
    activation = data.inputs
    for w, b in layers[:-1]:
        activation = np.maximum(activation @ w + b, 0.0)
    w_out, b_out = layers[-1]
    return activation, activation @ w_out + b_out


def oracle_backward(params, spec, batch):
    """The out-of-place gradient, assembled with ``flatten``, kept as the bitwise reference."""
    layers = unflatten(params, spec)
    n = len(batch.inputs)
    activations = [batch.inputs]
    for w, b in layers[:-1]:
        activations.append(np.maximum(activations[-1] @ w + b, 0.0))
    w_out, b_out = layers[-1]
    logits = activations[-1] @ w_out + b_out
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    delta = exp / exp.sum(axis=1, keepdims=True)
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    grads = [(activations[-1].T @ delta, delta.sum(axis=0))]
    upstream = delta
    for layer_index in range(len(layers) - 2, -1, -1):
        upstream = (upstream @ layers[layer_index + 1][0].T) * (activations[layer_index + 1] > 0.0)
        grads.append((activations[layer_index].T @ upstream, upstream.sum(axis=0)))
    grads.reverse()
    return flatten(grads)


def oracle_local_train(params, spec, shard, epochs, batch_size, lr, rng):
    """Mini-batch SGD with a new parameter vector per step, kept as the bitwise reference."""
    current = params.copy()
    for _ in range(epochs):
        order = rng.permutation(len(shard.train))
        for start in range(0, len(shard.train), batch_size):
            batch = shard.train.subset(order[start : start + batch_size])
            current = current - lr * oracle_backward(current, spec, batch)
    return current


def copy_per_batch_local_train(params, spec, shard, epochs, batch_size, lr, rng):
    """``local_train`` with a fancy-indexed copy of every minibatch, kept as the bitwise
    reference for its row views of one shuffled copy per epoch."""
    current = params.copy()
    grad = np.empty_like(current)
    for _ in range(epochs):
        order = rng.permutation(len(shard.train))
        for start in range(0, len(shard.train), batch_size):
            batch = shard.train.subset(order[start : start + batch_size])
            sgd_step(current, backward(current, spec, batch, grad), lr)
    return current


class TestRowViewMinibatches:
    # Odd widths put most row views off a 64-byte boundary; a view and a copy
    # of the same rows must still give BLAS the same products.
    @given(input_dim=st.integers(1, 40), hidden=st.lists(st.integers(1, 9), min_size=1, max_size=2),
           classes=st.integers(1, 5), n=st.integers(1, 60), batch_size=st.integers(1, 17),
           epochs=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_same_bits_as_a_copy_per_minibatch(self, input_dim, hidden, classes, n, batch_size,
                                               epochs, seed):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(input_dim, tuple(hidden), classes)
        params = rng.normal(0.0, 1.0, spec.num_params())
        shard = make_shard(rng.uniform(size=(n, input_dim)), rng.integers(0, classes, size=n), classes)
        trained = local_train(params, spec, shard, epochs, batch_size, 0.05,
                              np.random.default_rng(seed))
        expected = copy_per_batch_local_train(params, spec, shard, epochs, batch_size, 0.05,
                                              np.random.default_rng(seed))
        assert trained.tobytes() == expected.tobytes()


class TestKernelsMatchOutOfPlaceOracle:
    @given(input_dim=st.integers(1, 12),
           hidden=st.lists(st.integers(1, 16), min_size=1, max_size=3),
           classes=st.integers(1, 6), n=st.integers(1, 64), batch_size=st.integers(1, 64),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_and_no_input_written(self, input_dim, hidden, classes, n, batch_size,
                                                seed):
        rng = np.random.default_rng(seed)
        spec = ModelSpec(input_dim, tuple(hidden), classes)
        params = rng.normal(0.0, 1.0, spec.num_params())
        batch = Dataset(rng.uniform(size=(n, input_dim)), rng.integers(0, classes, size=n), classes)
        before = (params.tobytes(), batch.inputs.tobytes(), batch.labels.tobytes())

        embeddings, logits = forward(params, spec, batch)
        expected_embeddings, expected_logits = oracle_forward(params, spec, batch)
        assert np.array_equal(embeddings, expected_embeddings)
        assert np.array_equal(logits, expected_logits)
        assert np.array_equal(backward(params, spec, batch), oracle_backward(params, spec, batch))
        shard = Shard(client_id=1, train=batch, test=batch)
        trained = local_train(params, spec, shard, 2, batch_size, 0.05, np.random.default_rng(seed))
        expected = oracle_local_train(params, spec, shard, 2, batch_size, 0.05,
                                      np.random.default_rng(seed))
        assert np.array_equal(trained, expected)

        assert (params.tobytes(), batch.inputs.tobytes(), batch.labels.tobytes()) == before
