import ast
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corefed
from corefed.data import (
    IDX1_MAGIC,
    IDX3_MAGIC,
    Dataset,
    PartitionPlan,
    Shard,
    dirichlet_partition,
    gen_synthetic,
    load_idx,
    read_exact,
    split_test,
)
from corefed.errors import FormatError
from corefed.rng import substream


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=IDX3_MAGIC,
                   label_magic=IDX1_MAGIC, image_count=None, label_count=None):
    images_path = tmp_path / "images.idx3"
    labels_path = tmp_path / "labels.idx1"
    n_img = len(pixels) // (rows * cols) if image_count is None else image_count
    images_path.write_bytes(struct.pack(">IIII", image_magic, n_img, rows, cols) + bytes(pixels))
    n_lab = len(labels) if label_count is None else label_count
    labels_path.write_bytes(struct.pack(">II", label_magic, n_lab) + bytes(labels))
    return images_path, labels_path


class TestGenSynthetic:
    def test_single_class_all_zero_labels(self):
        ds = gen_synthetic(1, 4, 20, seed=0)
        assert np.array_equal(ds.labels, np.zeros(20, dtype=np.int64))

    def test_same_seed_bit_identical(self):
        a = gen_synthetic(3, 5, 100, seed=9)
        b = gen_synthetic(3, 5, 100, seed=9)
        assert np.array_equal(a.inputs, b.inputs) and np.array_equal(a.labels, b.labels)

    def test_values_clipped_and_balanced(self):
        ds = gen_synthetic(3, 4, 100, seed=2)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [34, 33, 33]

    def test_nearest_mean_classifier_separates_classes(self):
        # oracle: centroid classifier fit on the generated data
        ds = gen_synthetic(4, 8, 1000, seed=7)
        centroids = np.stack([ds.inputs[ds.labels == c].mean(axis=0) for c in range(4)])
        distances = ((ds.inputs[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (distances.argmin(axis=1) == ds.labels).mean()
        assert accuracy > 0.9


class TestLoadIdx:
    def test_hand_built_two_image_file(self, tmp_path):
        pixels = [0, 255, 128, 64, 255, 0, 0, 255]
        paths = write_idx_pair(tmp_path, pixels, [1, 0])
        ds = load_idx(*paths)
        assert ds.inputs.shape == (2, 4)
        np.testing.assert_allclose(ds.inputs[0], [0.0, 1.0, 128 / 255, 64 / 255])
        np.testing.assert_allclose(ds.inputs[1], [1.0, 0.0, 0.0, 1.0])
        assert ds.labels.tolist() == [1, 0]
        assert ds.num_classes == 2

    def test_label_magic_checked(self, tmp_path):
        good = write_idx_pair(tmp_path, [0] * 4, [0], rows=2, cols=2)
        load_idx(*good)  # 0x801 accepted
        bad = write_idx_pair(tmp_path, [0] * 4, [0], label_magic=0x00000802)
        with pytest.raises(FormatError):
            load_idx(*bad)

    def test_image_magic_checked(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 4, [0], image_magic=0x00000804)
        with pytest.raises(FormatError):
            load_idx(*paths)

    def test_count_mismatch_rejected(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 8, [0, 1, 1])
        with pytest.raises(FormatError):
            load_idx(*paths)

    def test_empty_file_is_format_error(self, tmp_path):
        images = tmp_path / "empty.idx3"
        images.write_bytes(b"")
        labels = tmp_path / "labels.idx1"
        labels.write_bytes(struct.pack(">II", IDX1_MAGIC, 0))
        with pytest.raises(FormatError, match="truncated while reading image header"):
            load_idx(images, labels)

    def test_in_place_scaling_matches_division(self, tmp_path):
        rows, cols, count = 3, 5, 7
        pixels = np.random.default_rng(4).integers(0, 256, count * rows * cols, dtype=np.uint8)
        paths = write_idx_pair(tmp_path, pixels.tolist(), [0, 1, 2, 0, 1, 2, 0], rows=rows, cols=cols)
        expected = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
        inputs = load_idx(*paths).inputs
        assert inputs.dtype == np.float64 and inputs.flags.c_contiguous
        assert inputs.tobytes() == expected.tobytes()

    def test_truncated_pixels_is_format_error(self, tmp_path):
        paths = write_idx_pair(tmp_path, [0] * 6, [0, 1], image_count=2)
        with pytest.raises(FormatError, match="truncated while reading pixel data"):
            load_idx(*paths)

    def test_declared_size_past_the_file_is_rejected_unread(self, tmp_path):
        # count, rows and cols all 0xFFFFFFFF in a 17-byte file: asking read()
        # for count * rows * cols bytes raised OverflowError
        images, labels = write_idx_pair(tmp_path, [0], [0], rows=0xFFFFFFFF, cols=0xFFFFFFFF,
                                        image_count=0xFFFFFFFF)
        assert len(images.read_bytes()) == 17
        with pytest.raises(FormatError, match="truncated while reading pixel data"):
            load_idx(images, labels)

    def test_image_size_past_the_index_range_is_format_error(self, tmp_path):
        # count 0 declares no pixels, so the size check passes; reshaping to
        # 0xFFFFFFFF ** 2 columns raised numpy's "Maximum allowed dimension exceeded"
        images, labels = write_idx_pair(tmp_path, [], [], rows=0xFFFFFFFF, cols=0xFFFFFFFF,
                                        image_count=0)
        with pytest.raises(FormatError, match=re.escape(f"{images}: 4294967295 x 4294967295")):
            load_idx(images, labels)


def attribute_users(names, receiver=None):
    """Each (module, function) under src/corefed that names an attribute in ``names``;
    given a ``receiver``, only as an attribute of that bare name."""
    users = set()
    for module in sorted(Path(corefed.__file__).parent.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                users.update((module.name, function.name) for node in ast.walk(function)
                             if isinstance(node, ast.Attribute) and node.attr in names
                             and (receiver is None or isinstance(node.value, ast.Name)
                                  and node.value.id == receiver))
    return users


class TestOneBoundedReader:
    # Every binary input is checked against the bytes left in its file by
    # data.read_exact; a second fstat is a second reader restating the check.
    def test_only_the_bounded_reader_asks_for_a_file_size(self):
        assert attribute_users({"fstat"}) == {("data.py", "read_exact")}

    # A raw descriptor read bypasses that check, and so does its own
    # end-of-file test; file objects go through read_exact instead.
    def test_no_function_reads_a_raw_descriptor(self):
        assert attribute_users({"pread", "read", "preadv", "readv"}, receiver="os") == set()

    @pytest.mark.parametrize("size, shrink, message", [
        (7, 0, "wanted 7 bytes, 6 left"),  # past the end: refused before read() is called
        (4, 1, "wanted 4 bytes, 3 left"),  # the file shrank under the reader after the check
    ], ids=["past-the-end", "shrank"])
    def test_a_small_read_is_checked_like_a_large_one(self, tmp_path, size, shrink, message):
        path = tmp_path / "six.bin"
        path.write_bytes(bytes(6))
        reads = []
        with open(path, "rb") as fh:
            class Spy:
                fileno, tell = fh.fileno, fh.tell

                def read(self, n):
                    reads.append(n)
                    return fh.read(n)[: n - shrink]
            with pytest.raises(FormatError, match=re.escape(
                    f"{path}: truncated while reading header ({message})")):
                read_exact(Spy(), size, path, "header")
        assert reads == ([] if size > 6 else [size])


def label_entropy(labels, num_classes):
    counts = np.bincount(labels, minlength=num_classes)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def mean_client_entropy(dataset, plan):
    values = []
    for client in range(plan.num_clients):
        idx = np.flatnonzero(plan.assignment == client)
        values.append(label_entropy(dataset.labels[idx], dataset.num_classes))
    return float(np.mean(values))


class TestDirichletPartition:
    def test_single_client_gets_everything_in_order(self):
        ds = gen_synthetic(3, 4, 50, seed=1)
        plan = dirichlet_partition(ds, 1, 0.5, seed=4)
        assert np.array_equal(np.flatnonzero(plan.assignment == 0), np.arange(50))

    def test_huge_alpha_balances_shares(self):
        ds = gen_synthetic(10, 4, 10000, seed=0)
        for seed in (1, 2, 3):
            plan = dirichlet_partition(ds, 2, 1e6, seed=seed)
            for c in range(10):
                class_idx = np.flatnonzero(ds.labels == c)
                share = np.mean(plan.assignment[class_idx] == 0)
                assert abs(share - 0.5) < 0.05

    def test_low_alpha_lowers_label_entropy(self):
        ds = gen_synthetic(4, 4, 4000, seed=3)
        skewed = mean_client_entropy(ds, dirichlet_partition(ds, 10, 0.1, seed=8))
        flat = mean_client_entropy(ds, dirichlet_partition(ds, 10, 100.0, seed=8))
        assert skewed < flat

    def test_entropy_monotone_in_alpha_over_seeds(self):
        ds = gen_synthetic(4, 4, 4000, seed=3)
        means = {}
        for alpha in (0.1, 0.5, 100.0):
            means[alpha] = np.mean([mean_client_entropy(ds, dirichlet_partition(ds, 10, alpha, seed=s))
                                    for s in range(5)])
        assert means[0.1] < means[0.5] < means[100.0]

    def test_every_sample_assigned_exactly_once(self):
        ds = gen_synthetic(5, 4, 997, seed=6)
        plan = dirichlet_partition(ds, 7, 0.3, seed=2)
        assert plan.assignment.min() >= 0 and plan.assignment.max() < 7
        assert sum(len(np.flatnonzero(plan.assignment == c)) for c in range(7)) == 997

    def test_deterministic_under_seed(self):
        ds = gen_synthetic(4, 4, 500, seed=5)
        a = dirichlet_partition(ds, 5, 0.5, seed=11)
        b = dirichlet_partition(ds, 5, 0.5, seed=11)
        assert np.array_equal(a.assignment, b.assignment)

    def test_impossible_partition_gives_none(self):
        tiny = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        assert dirichlet_partition(tiny, 5, 0.5, seed=0) is None


class TestSplitTest:
    def test_fraction_respected_up_to_class_rounding(self):
        ds = gen_synthetic(4, 4, 100, seed=1)
        plan = dirichlet_partition(ds, 1, 1.0, seed=0)
        (shard,) = split_test(ds, plan, 0.2)
        assert len(shard.train) + len(shard.test) == 100
        assert abs(len(shard.test) - 20) <= 4

    def test_single_sample_client_keeps_it_for_train(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
        plan = dirichlet_partition(ds, 1, 1.0, seed=0)
        # craft a 1-sample assignment directly
        plan = type(plan)(num_clients=2, seed=0, assignment=np.array([0, 0, 1]))
        shards = split_test(ds, plan, 0.2)
        lone = shards[1]
        assert len(lone.train) == 1 and len(lone.test) == 0

    def test_same_seed_identical_split(self):
        ds = gen_synthetic(4, 4, 300, seed=2)
        plan = dirichlet_partition(ds, 4, 0.5, seed=9)
        a = split_test(ds, plan, 0.25)
        b = split_test(ds, plan, 0.25)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.train.inputs, sb.train.inputs)
            assert np.array_equal(sa.test.labels, sb.test.labels)

    def test_no_sample_in_two_slices(self):
        ds = gen_synthetic(4, 4, 400, seed=8)
        plan = dirichlet_partition(ds, 5, 0.5, seed=3)
        shards = split_test(ds, plan, 0.2)
        total = sum(len(s.train) + len(s.test) for s in shards)
        assert total == 400
        # reconstruct index sets through fingerprints of rows
        seen = set()
        for shard in shards:
            for block in (shard.train, shard.test):
                for row, label in zip(block.inputs, block.labels):
                    key = (row.tobytes(), int(label))
                    assert key not in seen
                    seen.add(key)


# The set-up functions as they were before the sort-based rewrite. The
# rewrite must reproduce their outputs byte for byte, from the same draws.


def oracle_gen_synthetic(num_classes, input_dim, n, seed):
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(num_classes, input_dim))
    counts = np.full(num_classes, n // num_classes, dtype=int)
    counts[: n % num_classes] += 1
    inputs = np.empty((n, input_dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    offset = 0
    for c in range(num_classes):
        block = means[c] + 0.3 * rng.standard_normal((counts[c], input_dim))
        inputs[offset : offset + counts[c]] = np.clip(block, 0.0, 1.0)
        labels[offset : offset + counts[c]] = c
        offset += counts[c]
    return Dataset(inputs, labels, num_classes)


def oracle_largest_remainder(proportions, total):
    quotas = proportions * total
    counts = np.floor(quotas).astype(int)
    shortfall = total - counts.sum()
    if shortfall:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def oracle_dirichlet_partition(dataset, m, alpha, seed):
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    for _ in range(100):
        assignment = np.full(len(dataset), -1, dtype=np.int64)
        for c in range(dataset.num_classes):
            class_idx = np.flatnonzero(labels == c)
            if not len(class_idx):
                continue
            shuffled = rng.permutation(class_idx)
            counts = oracle_largest_remainder(rng.dirichlet(np.full(m, alpha)), len(class_idx))
            offset = 0
            for client, count in enumerate(counts):
                assignment[shuffled[offset : offset + count]] = client
                offset += count
        if len(np.unique(assignment[assignment >= 0])) == m:
            return PartitionPlan(num_clients=m, seed=seed, assignment=assignment)
    return None


def oracle_split_test(dataset, plan, test_fraction):
    rng = substream(plan.seed, "split")
    shards = []
    for client in range(plan.num_clients):
        owned = np.flatnonzero(plan.assignment == client)
        train_parts, test_parts = [], []
        for c in range(dataset.num_classes):
            class_idx = owned[dataset.labels[owned] == c]
            k = len(class_idx)
            if not k:
                continue
            if k == 1:
                train_parts.append(class_idx)
                continue
            n_test = min(k - 1, max(1, round(k * test_fraction)))
            order = rng.permutation(k)
            test_parts.append(np.sort(class_idx[order[:n_test]]))
            train_parts.append(np.sort(class_idx[order[n_test:]]))
        train_idx = np.sort(np.concatenate(train_parts)) if train_parts else np.empty(0, dtype=np.int64)
        test_idx = np.sort(np.concatenate(test_parts)) if test_parts else np.empty(0, dtype=np.int64)
        shards.append(Shard(client + 1, dataset.subset(train_idx), dataset.subset(test_idx)))
    return shards


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.flags.c_contiguous and b.flags.c_contiguous
    assert a.tobytes() == b.tobytes()


def assert_same_shards(got, want):
    assert [s.client_id for s in got] == [s.client_id for s in want]
    for g, w in zip(got, want):
        for part_g, part_w in ((g.train, w.train), (g.test, w.test)):
            assert part_g.num_classes == part_w.num_classes
            assert_same_array(part_g.inputs, part_w.inputs)
            assert_same_array(part_g.labels, part_w.labels)


def row_offset(part, owner):
    address = part.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    return address // (owner.nbytes // len(owner))


def assert_one_block(shards):
    """Every non-empty slice is a view of one array: the train slices in client
    order, then the test slices in client order, end to end."""
    parts = [s.train for s in shards] + [s.test for s in shards]
    for arrays in ([p.inputs for p in parts], [p.labels for p in parts]):
        owners = [a.base for a in arrays if len(a)]
        if not owners:
            continue
        row = 0
        for a in arrays:
            if len(a):
                assert a.base is owners[0] and row_offset(a, owners[0]) == row
            row += len(a)
        assert row == len(owners[0])


@st.composite
def setups(draw):
    num_classes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 80))
    clients = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return dict(num_classes=num_classes, input_dim=draw(st.integers(1, 4)), n=n, clients=clients,
                alpha=draw(st.sampled_from([0.05, 0.5, 1.0, 1e3])),
                test_fraction=draw(st.floats(0.01, 0.99)), seed=draw(st.integers(0, 2**32 - 1)))


class TestSetupMatchesOracle:
    @given(setups())
    @example(dict(num_classes=3, input_dim=2, n=40, clients=1, alpha=0.5, test_fraction=0.2, seed=1))
    @example(dict(num_classes=2, input_dim=2, n=6, clients=6, alpha=1e3, test_fraction=0.5, seed=3))
    @example(dict(num_classes=5, input_dim=1, n=3, clients=1, alpha=1.0, test_fraction=0.3, seed=0))
    @settings(max_examples=150, deadline=None)
    def test_dataset_plan_and_shards_byte_identical(self, setup):
        args = (setup["num_classes"], setup["input_dim"], setup["n"], setup["seed"])
        ds, want_ds = gen_synthetic(*args), oracle_gen_synthetic(*args)
        assert_same_array(ds.inputs, want_ds.inputs)
        assert_same_array(ds.labels, want_ds.labels)
        part = (setup["clients"], setup["alpha"], setup["seed"])
        want_plan, plan = oracle_dirichlet_partition(ds, *part), dirichlet_partition(ds, *part)
        if want_plan is None:
            assert plan is None
            return
        assert_same_array(plan.assignment, want_plan.assignment)
        shards = split_test(ds, plan, setup["test_fraction"])
        assert_same_shards(shards, oracle_split_test(ds, want_plan, setup["test_fraction"]))
        assert_one_block(shards)

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(1, 4), st.floats(0.01, 0.99),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_hand_built_plan_with_unowned_samples(self, n, m, num_classes, test_fraction, seed):
        # -1 and values >= m belong to no shard; some clients and classes end
        # up with 0 or 1 samples
        ds = gen_synthetic(num_classes, 2, n, seed=seed % 1000)
        assignment = np.random.default_rng(seed).integers(-1, m + 2, n)
        plan = PartitionPlan(num_clients=m, seed=seed, assignment=assignment)
        shards = split_test(ds, plan, test_fraction)
        assert_same_shards(shards, oracle_split_test(ds, plan, test_fraction))
        assert_one_block(shards)
        owned = int(((assignment >= 0) & (assignment < m)).sum())
        assert sum(len(s.train) + len(s.test) for s in shards) == owned

    def test_test_slices_lie_end_to_end_past_an_empty_one(self):
        # client 2 holds one sample, so its test slice is empty
        ds = Dataset(np.arange(24.0).reshape(12, 2), np.array([0, 1] * 6), 2)
        plan = PartitionPlan(num_clients=3, seed=4, assignment=np.array([0] * 6 + [1] + [2] * 5))
        shards = split_test(ds, plan, 0.4)
        assert [len(s.test) for s in shards] == [2, 0, 2]
        assert_one_block(shards)
