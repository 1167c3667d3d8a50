"""Datasets, the IDX loader, and heterogeneous client partitioning.

A Dataset is a dense (n, input_dim) float64 matrix scaled to [0, 1] plus
integer class labels. Client shards are produced by per-class Dirichlet
allocation followed by a stratified train/test split inside each client.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, PartitionError, TruncatedFileError
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

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("inputs must be (n, d), labels must be (n,)")
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels disagree on sample count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
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

    def client_indices(self, client: int) -> np.ndarray:
        """Sample indices assigned to ``client`` (0-based), in dataset order."""
        return np.flatnonzero(self.assignment == client)


def gen_synthetic(num_classes: int, input_dim: int, n: int, seed: int) -> Dataset:
    """Generate separable Gaussian class blobs clipped to [0, 1].

    Class means are drawn uniformly in [0, 1]^d once from the seeded stream;
    samples add isotropic noise with sigma = 0.3. Class counts are balanced
    up to the remainder of n / num_classes.
    """
    if num_classes < 1 or input_dim < 1 or n < 1:
        raise ValueError("num_classes, input_dim and n must all be positive")
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


def _read_exact(fh, nbytes: int, path, what: str) -> bytes:
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise TruncatedFileError(f"{path}: truncated while reading {what} "
                                 f"(wanted {nbytes} bytes, got {len(data)})")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX3 image file and IDX1 label file into a Dataset.

    Layout (big-endian):
      images  [magic u32 = 0x00000803][count u32][rows u32][cols u32][pixels u8 ...]
      labels  [magic u32 = 0x00000801][count u32][labels u8 ...]

    Pixels are scaled to [0, 1] by division by 255 and flattened row-major.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "image header"))
        if magic != IDX3_MAGIC:
            raise FormatError(f"{images_path}: bad IDX3 magic 0x{magic:08x}")
        pixels = _read_exact(fh, count * rows * cols, images_path, "pixel data")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "label header"))
        if magic != IDX1_MAGIC:
            raise FormatError(f"{labels_path}: bad IDX1 magic 0x{magic:08x}")
        raw_labels = _read_exact(fh, label_count, labels_path, "label data")
    if label_count != count:
        raise FormatError(f"image count {count} does not match label count {label_count}")
    inputs = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols) / 255.0
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


def dirichlet_partition(dataset: Dataset, m: int, alpha: float, seed: int) -> PartitionPlan:
    """Assign samples to m clients by per-class Dirichlet(alpha) proportions.

    For each class, client proportions are drawn from Dirichlet(alpha * 1_m)
    and the class's samples are allocated by largest-remainder rounding. A
    plan that leaves any client empty is redrawn (up to a bounded number of
    attempts).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = np.random.default_rng(seed)
    labels = dataset.labels
    for _ in range(_PARTITION_RETRIES):
        assignment = np.full(len(dataset), -1, dtype=np.int64)
        for c in range(dataset.num_classes):
            class_idx = np.flatnonzero(labels == c)
            if not len(class_idx):
                continue
            shuffled = rng.permutation(class_idx)
            counts = _largest_remainder(rng.dirichlet(np.full(m, alpha)), len(class_idx))
            offset = 0
            for client, count in enumerate(counts):
                assignment[shuffled[offset : offset + count]] = client
                offset += count
        if len(np.unique(assignment[assignment >= 0])) == m:
            return PartitionPlan(num_clients=m, seed=seed, assignment=assignment)
    raise PartitionError(f"no partition gave every client data after {_PARTITION_RETRIES} attempts "
                         f"(m={m}, alpha={alpha}, n={len(dataset)})")


def split_test(dataset: Dataset, plan: PartitionPlan, test_fraction: float) -> list[Shard]:
    """Split each client's samples into stratified train/test shards.

    Within a client, each class contributes round(k * test_fraction) test
    samples, floored at 1 when the class has at least 2 samples and capped
    so that train keeps at least 1. Client ids are 1-based.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    rng = substream(plan.seed, "split")
    shards = []
    for client in range(plan.num_clients):
        owned = plan.client_indices(client)
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
