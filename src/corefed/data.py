"""Datasets, the IDX loader, and heterogeneous client partitioning.

A Dataset is a dense (n, input_dim) float64 matrix scaled to [0, 1] plus
integer class labels. Client shards are produced by per-class Dirichlet
allocation followed by a stratified train/test split inside each client.

Arguments are trusted: sizes, class counts, ``alpha`` and ``test_fraction``
come from a config that ``config._validate`` accepted, and
``simulation._check_fits`` checks every dataset from outside (IDX files and
injected shards) against the model before a round runs.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .rng import substream

IDX3_MAGIC = 0x00000803
IDX1_MAGIC = 0x00000801

_PARTITION_RETRIES = 100


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: inputs in [0, 1], labels in [0, num_classes)."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices: np.ndarray | slice) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class Shard:
    """One client's private data with its train/test split.

    ``split_test`` keeps at least one sample of every class for training, so
    each shard of a ``dirichlet_partition`` plan holds training data. The test
    slice is empty when every class the client holds has a single sample.
    """

    client_id: int
    train: Dataset
    test: Dataset


@dataclass(frozen=True)
class PartitionPlan:
    """Per-sample client assignment produced by ``dirichlet_partition``."""

    num_clients: int
    seed: int
    assignment: np.ndarray = field(repr=False)


def gen_synthetic(num_classes: int, input_dim: int, n: int, seed: int) -> Dataset:
    """Generate separable Gaussian class blobs clipped to [0, 1].

    Class means are drawn uniformly in [0, 1]^d once from the seeded stream;
    samples add isotropic noise with sigma = 0.3. Class counts are balanced
    up to the remainder of n / num_classes.
    """
    rng = np.random.default_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(num_classes, input_dim))
    counts = np.full(num_classes, n // num_classes, dtype=int)
    counts[: n % num_classes] += 1
    inputs = np.empty((n, input_dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    offset = 0
    for c in range(num_classes):
        block = rng.standard_normal(out=inputs[offset : offset + counts[c]])
        block *= 0.3
        block += means[c]
        np.clip(block, 0.0, 1.0, out=block)
        labels[offset : offset + counts[c]] = c
        offset += counts[c]
    return Dataset(inputs, labels, num_classes)


def read_exact(fh, nbytes: int, path, what: str) -> bytes:
    """The next ``nbytes`` of the buffered file ``fh`` at ``path``, where every binary input is read.
    A size below 0 or past the bytes left raises FormatError unread, a file that shrank under it after."""
    left = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
    if 0 <= nbytes <= left:
        data = fh.read(nbytes)
        left = len(data)
    if left != nbytes:
        raise FormatError(f"{path}: truncated while reading {what} (wanted {nbytes} bytes, {left} left)")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX3 image file and IDX1 label file into a Dataset.

    Layout (big-endian):
      images  [magic u32 = 0x00000803][count u32][rows u32][cols u32][pixels u8 ...]
      labels  [magic u32 = 0x00000801][count u32][labels u8 ...]

    Pixels are scaled to [0, 1] by division by 255 and flattened row-major.
    A declared payload longer than the rest of its file raises FormatError
    before it is read, as does an image size past the index range.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", read_exact(fh, 16, images_path, "image header"))
        if magic != IDX3_MAGIC:
            raise FormatError(f"{images_path}: bad IDX3 magic 0x{magic:08x}")
        pixels = read_exact(fh, count * rows * cols, images_path, "pixel data")
        if rows * cols > np.iinfo(np.intp).max:  # only a count of 0 gets here
            raise FormatError(f"{images_path}: {rows} x {cols} pixels per image "
                              f"exceed the index range")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", read_exact(fh, 8, labels_path, "label header"))
        if magic != IDX1_MAGIC:
            raise FormatError(f"{labels_path}: bad IDX1 magic 0x{magic:08x}")
        raw_labels = read_exact(fh, label_count, labels_path, "label data")
    if label_count != count:
        raise FormatError(f"image count {count} does not match label count {label_count}")
    inputs = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    inputs /= 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if count else 1
    return Dataset(inputs, labels, num_classes)


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer counts summing exactly to ``total``, proportional to ``proportions``."""
    quotas = proportions * total
    counts = np.floor(quotas).astype(int)
    shortfall = total - counts.sum()
    if shortfall:
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:shortfall]] += 1
    return counts


def dirichlet_partition(dataset: Dataset, m: int, alpha: float, seed: int) -> PartitionPlan | None:
    """Assign samples to m clients by per-class Dirichlet(alpha) proportions.

    For each class, client proportions are drawn from Dirichlet(alpha * 1_m)
    and the class's samples are allocated by largest-remainder rounding. A
    plan that leaves any client empty is redrawn, up to ``_PARTITION_RETRIES``
    times; None when no draw gives every client a sample.
    """
    rng = np.random.default_rng(seed)
    classes = [np.flatnonzero(dataset.labels == c) for c in range(dataset.num_classes)]
    for _ in range(_PARTITION_RETRIES):
        assignment = np.full(len(dataset), -1, dtype=np.int64)
        for class_idx in filter(len, classes):  # an empty class takes no draws
            shuffled = rng.permutation(class_idx)
            counts = _largest_remainder(rng.dirichlet(np.full(m, alpha)), len(class_idx))
            assignment[shuffled] = np.repeat(np.arange(m), counts)
        if np.bincount(assignment, minlength=m).all():
            return PartitionPlan(num_clients=m, seed=seed, assignment=assignment)
    return None


def split_test(dataset: Dataset, plan: PartitionPlan, test_fraction: float) -> list[Shard]:
    """Split each client's samples into stratified train/test shards.

    Within a client, each class contributes round(k * test_fraction) test
    samples, floored at 1 when the class has at least 2 samples and capped
    so that train keeps at least 1. Client ids are 1-based; samples assigned
    outside 0..num_clients-1 belong to no shard.

    All shards are views of one gathered array: the train slices in client
    order, then the test slices in client order.
    """
    rng = substream(plan.seed, "split")
    m, num_classes, n = plan.num_clients, dataset.num_classes, len(dataset)
    owned = np.flatnonzero((plan.assignment >= 0) & (plan.assignment < m))
    # sorting key * n + index orders the indices by key stably, faster than argsort
    packed = np.sort((plan.assignment[owned] * num_classes + dataset.labels[owned]) * n + owned)
    grouped, groups = packed % n, packed // n
    sizes = np.bincount(groups, minlength=m * num_classes)
    starts = np.cumsum(sizes) - sizes
    # a group shuffled in place draws as rng.permutation(k); its first n_test go to test
    for start, k in zip(starts[sizes >= 2].tolist(), sizes[sizes >= 2].tolist()):
        rng.shuffle(grouped[start : start + k])
    n_test = np.minimum(sizes - 1, np.maximum(1, np.round(sizes * test_fraction).astype(np.int64)))
    is_test = np.arange(len(grouped)) - np.repeat(starts, sizes) < np.repeat(n_test, sizes)
    # run c holds client c's train rows, run m + c its test rows, each in
    # dataset order; the test runs lie end to end for ``evaluation_plan``
    runs = groups // num_classes + m * is_test
    ordered = np.sort(runs * n + grouped) % n
    inputs, labels = dataset.inputs[ordered], dataset.labels[ordered]
    bounds = [0] + np.cumsum(np.bincount(runs, minlength=2 * m)).tolist()
    parts = [Dataset(inputs[a:b], labels[a:b], num_classes) for a, b in zip(bounds, bounds[1:])]
    return [Shard(client + 1, parts[client], parts[m + client]) for client in range(m)]
