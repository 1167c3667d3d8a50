import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefed.data import Dataset, Shard
from corefed.embedding import (
    _NORM_EPS,
    alignment_vector,
    build_alignment_records,
    client_embedding,
    contrastive_loss,
    cosine,
    distill,
    global_embedding,
)
from corefed.errors import ConfigError, ProtocolError
from corefed.nn import Batch, ModelSpec, forward

finite_vectors = st.lists(st.floats(-10, 10), min_size=2, max_size=6)


def shard_with(inputs, labels, num_classes=2):
    ds = Dataset(np.asarray(inputs, dtype=np.float64), np.asarray(labels, dtype=np.int64), num_classes)
    return Shard(client_id=1, train=ds, test=ds)


class TestClientEmbedding:
    def setup_method(self):
        self.spec = ModelSpec(3, (4,), 2)
        self.params = np.random.default_rng(42).uniform(-1, 1, self.spec.num_params())

    def test_single_sample_is_unit_normalized(self):
        shard = shard_with([[0.3, 0.8, 0.1]], [0])
        z = client_embedding(self.params, self.spec, shard)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)

    def test_matches_normalize_then_average_oracle(self):
        rng = np.random.default_rng(11)
        shard = shard_with(rng.uniform(0, 1, size=(5, 3)), rng.integers(0, 2, size=5))
        z = client_embedding(self.params, self.spec, shard)
        feats, _ = forward(self.params, self.spec, Batch(shard.train.inputs, shard.train.labels))
        expected = np.mean([f / np.linalg.norm(f) for f in feats], axis=0)
        np.testing.assert_allclose(z, expected, rtol=1e-10)
        assert np.linalg.norm(z) <= 1 + 1e-9

    def test_all_degenerate_samples_give_zero_embedding(self, caplog):
        # zero parameters make every feature vector zero
        shard = shard_with([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]], [0, 1])
        with caplog.at_level("WARNING"):
            z = client_embedding(np.zeros(self.spec.num_params()), self.spec, shard)
        assert np.array_equal(z, np.zeros(4))
        assert any("degenerate" in record.message for record in caplog.records)

    def test_empty_shard_rejected(self):
        empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=np.int64), 2)
        with pytest.raises(ProtocolError):
            client_embedding(self.params, self.spec, Shard(client_id=1, train=empty, test=empty))


class TestGlobalEmbedding:
    def test_single_client_passthrough(self):
        z = np.array([0.2, -0.4])
        np.testing.assert_array_equal(global_embedding([z]), z)

    def test_opposite_embeddings_cancel(self):
        u = np.array([0.6, 0.8])
        np.testing.assert_allclose(global_embedding([u, -u]), np.zeros(2), atol=1e-16)

    def test_two_axis_vectors_average(self):
        np.testing.assert_allclose(global_embedding([np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
                                   [0.5, 0.5], rtol=1e-15)

    def test_empty_list_rejected(self):
        with pytest.raises(ProtocolError):
            global_embedding([])


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -0.7, 0.1])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_hand_computed_45_degrees(self):
        value = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_near_zero_norm_is_neutral(self):
        assert cosine(np.array([1e-13, 0.0]), np.array([1.0, 0.0])) == 0.0

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        assert cosine(va, vb) == cosine(vb, va)
        assert -1.0 <= cosine(va, vb) <= 1.0

    @given(finite_vectors, st.floats(0.01, 100))
    @settings(max_examples=60, deadline=None)
    def test_positive_scale_invariance(self, a, scale):
        v = np.array(a)
        # cosine is 0 below the absolute norm _NORM_EPS (pinned above), so the
        # property only holds where v and scale * v lie on the same side of it.
        assume((np.linalg.norm(v) < _NORM_EPS) == (np.linalg.norm(scale * v) < _NORM_EPS))
        w = np.roll(v, 1) + 0.5
        assert cosine(scale * v, w) == pytest.approx(cosine(v, w), abs=1e-9)


class TestContrastiveLoss:
    def test_identical_pair_with_unit_temperature_is_zero(self):
        z = np.array([0.6, 0.8])
        embeddings = {1: z, 2: z.copy()}
        assert contrastive_loss(1, embeddings, z, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_three_client_case(self):
        # client 1 aligned with the global, two orthogonal negatives
        embeddings = {1: np.array([1.0, 0.0, 0.0]),
                      2: np.array([0.0, 1.0, 0.0]),
                      3: np.array([0.0, 0.0, 1.0])}
        z_global = np.array([1.0, 0.0, 0.0])
        value = contrastive_loss(1, embeddings, z_global, 1.0)
        assert value == pytest.approx(math.log(2) - 1, abs=1e-12)
        assert value == pytest.approx(-0.3068528194400547, abs=1e-10)

    def test_common_scaling_leaves_loss_unchanged(self):
        rng = np.random.default_rng(0)
        embeddings = {i: rng.normal(size=4) for i in range(3)}
        z_global = rng.normal(size=4)
        base = contrastive_loss(0, embeddings, z_global, 0.07)
        scaled = contrastive_loss(0, {i: 3.0 * z for i, z in embeddings.items()},
                                  3.0 * z_global, 0.07)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_single_client_returns_sentinel(self):
        z = np.array([1.0, 0.0])
        assert contrastive_loss(1, {1: z}, z, 1.0) is None

    def test_strictly_decreasing_in_global_alignment(self):
        negatives = {2: np.array([0.0, 1.0]), 3: np.array([1.0, 1.0])}
        previous = math.inf
        for angle in (1.2, 0.8, 0.4, 0.1):
            z_i = np.array([math.cos(angle), math.sin(angle)])
            embeddings = {1: z_i, **negatives}
            value = contrastive_loss(1, embeddings, np.array([1.0, 0.0]), 0.5)
            assert value < previous
            previous = value

    def test_bad_temperature_rejected(self):
        z = np.array([1.0, 0.0])
        with pytest.raises(ConfigError):
            contrastive_loss(1, {1: z, 2: z}, z, 0.0)


class TestAlignmentVector:
    def test_fully_aligned_returns_global(self):
        z = np.array([0.6, 0.8])
        np.testing.assert_allclose(alignment_vector(z, z), z, rtol=1e-12)

    def test_orthogonal_returns_zero(self):
        np.testing.assert_allclose(alignment_vector(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                                   np.zeros(2), atol=1e-15)

    def test_anti_aligned_returns_negated_global(self):
        z = np.array([0.3, -0.4])
        np.testing.assert_allclose(alignment_vector(-z, z), -z, rtol=1e-12)


class TestDistill:
    def test_beta_zero_keeps_client_embedding(self):
        z = np.array([1.0, 2.0])
        np.testing.assert_array_equal(distill(z, np.array([5.0, 5.0]), 0.0), z)

    def test_beta_one_returns_target(self):
        target = np.array([5.0, 5.0])
        np.testing.assert_array_equal(distill(np.array([1.0, 2.0]), target, 1.0), target)

    def test_hand_computed_orthogonal_case(self):
        # cos((1,0),(0,1)) = 0 so the alignment target is the zero vector
        z_i = np.array([1.0, 0.0])
        z_align = alignment_vector(z_i, np.array([0.0, 1.0]))
        np.testing.assert_allclose(distill(z_i, z_align, 0.5), [0.5, 0.0], rtol=1e-12)

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ConfigError):
            distill(np.zeros(2), np.zeros(2), 1.5)

    @given(finite_vectors, st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_convex_combination_per_coordinate(self, values, beta):
        z = np.array(values)
        target = np.roll(z, 1) * 2.0
        mixed = distill(z, target, beta)
        low = np.minimum(z, target) - 1e-12
        high = np.maximum(z, target) + 1e-12
        assert np.all(mixed >= low) and np.all(mixed <= high)


class TestAlignmentRecords:
    def test_similarity_recomputable_from_distilled_embedding(self):
        rng = np.random.default_rng(4)
        embeddings = {i: rng.normal(size=5) for i in (1, 2, 3)}
        z_global = global_embedding(list(embeddings.values()))
        similarities, losses = build_alignment_records(embeddings, z_global, beta=0.5, tau_c=0.07)
        assert list(similarities) == list(losses) == [1, 2, 3]
        for cid, raw in embeddings.items():
            refined = distill(raw, alignment_vector(raw, z_global), 0.5)
            assert similarities[cid] == cosine(refined, z_global)
            assert losses[cid] == contrastive_loss(cid, embeddings, z_global, 0.07)
