import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corefed import embedding
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
from corefed.errors import NumericalError
from corefed.nn import ModelSpec, forward

finite_vectors = st.lists(st.floats(-10, 10), min_size=2, max_size=6)


def client_contrastive_loss(i, embeddings, z_global, tau_c):
    """Client ``i``'s InfoNCE score, each cosine taken on its own, peers in dict order."""
    negatives = [cosine(embeddings[i], z) for cid, z in embeddings.items() if cid != i]
    return contrastive_loss(cosine(embeddings[i], z_global), negatives, tau_c)


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
        feats, _ = forward(self.params, self.spec, shard.train)
        expected = np.mean([f / np.linalg.norm(f) for f in feats], axis=0)
        np.testing.assert_allclose(z, expected, rtol=1e-10)
        assert np.linalg.norm(z) <= 1 + 1e-9

    def test_all_degenerate_samples_raise(self):
        # zero parameters make every feature vector zero: the last hidden layer is dead
        shard = shard_with([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]], [0, 1])
        with pytest.raises(NumericalError, match=r"client 1: all 2 sample embeddings"):
            client_embedding(np.zeros(self.spec.num_params()), self.spec, shard)

    def test_not_a_number_features_count_as_degenerate(self):
        shard = shard_with([[0.1, 0.2, 0.3], [0.5, 0.5, 0.5]], [0, 1])
        with pytest.raises(NumericalError, match="degenerate"):
            client_embedding(np.full(self.spec.num_params(), np.nan), self.spec, shard)


def linalg_client_embedding(features):
    """``client_embedding``'s arithmetic through ``np.linalg.norm``, a boolean-mask copy
    and ``ndarray.mean``, kept as the bitwise reference for its direct ufunc calls."""
    norms = np.linalg.norm(features, axis=1)
    usable = norms >= _NORM_EPS
    return (features[usable] / norms[usable, None]).mean(axis=0)


# Rows by their norm: usable, exactly zero, below _NORM_EPS, just above it, not a number.
ROW_SCALES = {"unit": 1.0, "zero": 0.0, "near-zero": 1e-14, "just-usable": 1e-12, "nan": math.nan}


class TestClientEmbeddingArithmetic:
    @given(kinds=st.lists(st.sampled_from(sorted(ROW_SCALES)), min_size=1, max_size=30),
           width=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    @example(kinds=["unit"], width=3, seed=0)
    @example(kinds=["zero", "nan", "just-usable", "near-zero"], width=5, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_linalg_norm_and_mean(self, kinds, width, seed):
        assume(any(kind in ("unit", "just-usable") for kind in kinds))
        rng = np.random.default_rng(seed)
        features = rng.uniform(1.0, 2.0, size=(len(kinds), width))
        features *= rng.choice([-1.0, 1.0], size=features.shape)
        features *= np.array([ROW_SCALES[kind] for kind in kinds])[:, None]
        expected = linalg_client_embedding(features)
        with mock.patch.object(embedding, "forward", lambda *args: (features.copy(), None)):
            z = client_embedding(None, None, shard_with(np.zeros((len(kinds), 1)), [0] * len(kinds)))
        assert z.tobytes() == expected.tobytes()


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


class TestGlobalEmbeddingArithmetic:
    @given(count=st.integers(1, 12), width=st.integers(1, 20),
           scale=st.sampled_from([1.0, 1e-14, 1e150, 0.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_ndarray_mean(self, count, width, scale, seed):
        rng = np.random.default_rng(seed)
        embeddings = [scale * rng.normal(size=width) for _ in range(count)]
        expected = np.stack(embeddings).mean(axis=0)
        assert global_embedding(embeddings).tobytes() == expected.tobytes()


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


def linalg_cosine(a, b):
    """``cosine`` through ``np.linalg.norm`` and ``np.clip``, kept as its bitwise reference."""
    norm_a = np.linalg.norm(a)
    norm_b = np.linalg.norm(b)
    if norm_a < _NORM_EPS or norm_b < _NORM_EPS:
        return 0.0
    return float(np.clip(np.dot(a, b) / (norm_a * norm_b), -1.0, 1.0))


@st.composite
def vector_pairs(draw):
    """Two vectors of one width: unrelated, (anti)parallel, zero, tiny or holding a NaN."""
    width = draw(st.integers(1, 12))
    a = np.array(draw(st.lists(st.floats(-100, 100), min_size=width, max_size=width)))
    relation = draw(st.sampled_from(["unrelated", "parallel", "antiparallel", "same", "zero",
                                     "tiny", "nan"]))
    b = np.array(draw(st.lists(st.floats(-100, 100), min_size=width, max_size=width)))
    scale = draw(st.floats(1e-3, 1e3))
    if relation == "parallel":
        b = scale * a
    elif relation == "antiparallel":
        b = -scale * a
    elif relation == "same":
        b = a.copy()
    elif relation == "zero":
        b = np.zeros(width)
    elif relation == "tiny":
        b *= 1e-14
    elif relation == "nan":
        b[draw(st.integers(0, width - 1))] = math.nan
    return (a, b) if draw(st.booleans()) else (b, a)


class TestCosineArithmetic:
    @given(vector_pairs())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_linalg_norm_and_clip(self, pair):
        a, b = pair
        expected = np.float64(linalg_cosine(a, b)).tobytes()
        assert np.float64(cosine(a, b)).tobytes() == expected
        # the norms build_alignment_records passes, taken once per embedding
        given_norms = cosine(a, b, math.sqrt(a.dot(a)), math.sqrt(b.dot(b)))
        assert np.float64(given_norms).tobytes() == expected


def wrapper_contrastive_loss(positive, negatives, tau_c):
    """``contrastive_loss`` through ``ndarray.max`` and ``ndarray.sum``, kept as its
    bitwise reference."""
    if not negatives:
        return None
    scaled = np.array(negatives) / tau_c
    peak = scaled.max()
    return float(peak + np.log(np.exp(scaled - peak).sum()) - positive / tau_c)


class TestContrastiveLossArithmetic:
    @given(positive=st.floats(-1, 1), negatives=st.lists(st.floats(-1, 1), max_size=40),
           tau_c=st.one_of(st.floats(0.01, 10.0), st.sampled_from([1e-3, 0.07, 1.0])))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_max_and_sum(self, positive, negatives, tau_c):
        got = contrastive_loss(positive, negatives, tau_c)
        expected = wrapper_contrastive_loss(positive, negatives, tau_c)
        assert (got is None) == (expected is None)
        if got is not None:
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestContrastiveLoss:
    def test_identical_pair_with_unit_temperature_is_zero(self):
        z = np.array([0.6, 0.8])
        embeddings = {1: z, 2: z.copy()}
        assert client_contrastive_loss(1, embeddings, z, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_three_client_case(self):
        # client 1 aligned with the global, two orthogonal negatives
        embeddings = {1: np.array([1.0, 0.0, 0.0]),
                      2: np.array([0.0, 1.0, 0.0]),
                      3: np.array([0.0, 0.0, 1.0])}
        z_global = np.array([1.0, 0.0, 0.0])
        value = client_contrastive_loss(1, embeddings, z_global, 1.0)
        assert value == pytest.approx(math.log(2) - 1, abs=1e-12)
        assert value == pytest.approx(-0.3068528194400547, abs=1e-10)

    def test_common_scaling_leaves_loss_unchanged(self):
        rng = np.random.default_rng(0)
        embeddings = {i: rng.normal(size=4) for i in range(3)}
        z_global = rng.normal(size=4)
        base = client_contrastive_loss(0, embeddings, z_global, 0.07)
        scaled = client_contrastive_loss(0, {i: 3.0 * z for i, z in embeddings.items()},
                                  3.0 * z_global, 0.07)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_single_client_returns_sentinel(self):
        z = np.array([1.0, 0.0])
        assert client_contrastive_loss(1, {1: z}, z, 1.0) is None

    def test_strictly_decreasing_in_global_alignment(self):
        negatives = {2: np.array([0.0, 1.0]), 3: np.array([1.0, 1.0])}
        previous = math.inf
        for angle in (1.2, 0.8, 0.4, 0.1):
            z_i = np.array([math.cos(angle), math.sin(angle)])
            embeddings = {1: z_i, **negatives}
            value = client_contrastive_loss(1, embeddings, np.array([1.0, 0.0]), 0.5)
            assert value < previous
            previous = value


class TestAlignmentVector:
    def test_fully_aligned_returns_global(self):
        z = np.array([0.6, 0.8])
        np.testing.assert_allclose(alignment_vector(cosine(z, z), z), z, rtol=1e-12)

    def test_orthogonal_returns_zero(self):
        z_i, z_global = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        np.testing.assert_allclose(alignment_vector(cosine(z_i, z_global), z_global), np.zeros(2),
                                   atol=1e-15)

    def test_anti_aligned_returns_negated_global(self):
        z = np.array([0.3, -0.4])
        np.testing.assert_allclose(alignment_vector(cosine(-z, z), z), -z, rtol=1e-12)


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
        z_global = np.array([0.0, 1.0])
        z_align = alignment_vector(cosine(z_i, z_global), z_global)
        np.testing.assert_allclose(distill(z_i, z_align, 0.5), [0.5, 0.0], rtol=1e-12)

    @given(finite_vectors, st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_convex_combination_per_coordinate(self, values, beta):
        z = np.array(values)
        target = np.roll(z, 1) * 2.0
        mixed = distill(z, target, beta)
        low = np.minimum(z, target) - 1e-12
        high = np.maximum(z, target) + 1e-12
        assert np.all(mixed >= low) and np.all(mixed <= high)


def raw_similarities(embeddings, z_global):
    return {cid: cosine(z, z_global) for cid, z in embeddings.items()}


class TestAlignmentRecords:
    def test_similarity_recomputable_from_distilled_embedding(self):
        rng = np.random.default_rng(4)
        embeddings = {i: rng.normal(size=5) for i in (1, 2, 3)}
        z_global = global_embedding(list(embeddings.values()))
        similarities, losses = build_alignment_records(
            embeddings, raw_similarities(embeddings, z_global), z_global, beta=0.5, tau_c=0.07)
        assert list(similarities) == list(losses) == [1, 2, 3]
        for cid, raw in embeddings.items():
            refined = distill(raw, alignment_vector(cosine(raw, z_global), z_global), 0.5)
            assert similarities[cid] == cosine(refined, z_global)
            assert losses[cid] == client_contrastive_loss(cid, embeddings, z_global, 0.07)

    def test_each_cosine_is_computed_once(self, monkeypatch):
        # the raw similarities come in; per client: one cosine of its refined
        # embedding; per unordered pair of clients: one
        rng = np.random.default_rng(6)
        embeddings = {i: rng.normal(size=5) for i in (4, 1, 3, 2)}
        z_global = global_embedding(list(embeddings.values()))
        to_global = raw_similarities(embeddings, z_global)
        calls = []
        monkeypatch.setattr(embedding, "cosine", lambda *args: calls.append(1) or cosine(*args))
        build_alignment_records(embeddings, to_global, z_global, beta=0.5, tau_c=0.07)
        assert len(calls) == 4 + 6
