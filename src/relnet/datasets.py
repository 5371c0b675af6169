"""Dataset loading: CIFAR-10 binary batches and the synthetic desk-scale set.

CIFAR-10 binary layout: five train files data_batch_1..5.bin plus
test_batch.bin, each exactly 10000 records of 3073 bytes (1 label byte,
then 1024 red, 1024 green, 1024 blue bytes, row-major).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .seeding import child_seed

CIFAR_RECORD_BYTES = 3073
CIFAR_RECORDS_PER_FILE = 10000
CIFAR_FILE_BYTES = CIFAR_RECORD_BYTES * CIFAR_RECORDS_PER_FILE
CIFAR_DIM = 3072
CIFAR_CLASSES = 10
STATS_FILENAME = "cifar10_stats.json"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N, D) with integer labels in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.n_classes
        ):
            raise FormatError("labels out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def astype(self, dtype) -> "Dataset":
        return Dataset(
            features=self.features.astype(dtype, copy=False),
            labels=self.labels,
            n_classes=self.n_classes,
        )


def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    if len(raw) != CIFAR_FILE_BYTES:
        raise FormatError(
            f"{path}: expected {CIFAR_FILE_BYTES} bytes, found {len(raw)}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(
        CIFAR_RECORDS_PER_FILE, CIFAR_RECORD_BYTES
    )
    labels = records[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise FormatError(f"{path}: label byte {labels.max()} exceeds 9")
    pixels = records[:, 1:]
    return pixels, labels


def _load_split(paths: list[Path], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Cast each file's pixels into one preallocated (records, 3072) array,
    then scale it to [0,1] in place."""
    x = np.empty((len(paths) * CIFAR_RECORDS_PER_FILE, CIFAR_DIM), dtype=dtype)
    labels = []
    for i, path in enumerate(paths):
        pixels, file_labels = _read_cifar_file(path)
        x[i * CIFAR_RECORDS_PER_FILE : (i + 1) * CIFAR_RECORDS_PER_FILE] = pixels
        labels.append(file_labels)
        del pixels  # release this file's bytes before reading the next
    x /= 255.0
    return x, np.concatenate(labels)


def _channel_stats(features01: np.ndarray) -> tuple[list[float], list[float]]:
    # Channels are the three contiguous 1024-byte planes of each record.
    planes = features01.reshape(-1, 3, 1024)
    mean = planes.mean(axis=(0, 2), dtype=np.float64)
    std = planes.std(axis=(0, 2), dtype=np.float64)
    return mean.tolist(), std.tolist()


def _cache_stats(path: Path, mean: list[float], std: list[float]) -> None:
    """Write the statistics cache atomically: a temporary file in the same
    directory, then a rename, so a concurrent reader sees the whole file or
    none. A directory that refuses the write is left without a cache."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps({"mean": mean, "std": std}))
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)


def load_cifar10(
    dir_path,
    normalize: str = "standard",
    dtype=np.float32,
) -> tuple[Dataset, Dataset]:
    """Load the six binary batches under dir_path.

    normalize="standard": scale to [0,1] then standardize each channel with
    training-set statistics, computed once and cached as JSON next to the
    data (written atomically; skipped when the directory is read-only).
    normalize="raw": stop at the [0,1] scaling.

    Every pass writes into the two feature arrays, so peak memory is those
    arrays plus one raw file; only the first standard load, which computes
    the statistics, adds a float64 temporary of the training set.
    """
    if normalize not in ("standard", "raw"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    root = Path(dir_path)
    x_train, y_train = _load_split(
        [root / f"data_batch_{b}.bin" for b in range(1, 6)], dtype
    )
    x_test, y_test = _load_split([root / "test_batch.bin"], dtype)

    if normalize == "standard":
        stats_path = root / STATS_FILENAME
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            mean, std = stats["mean"], stats["std"]
        else:
            mean, std = _channel_stats(x_train)
            _cache_stats(stats_path, mean, std)
        mean_a = np.asarray(mean, dtype=dtype).reshape(1, 3, 1)
        std_a = np.asarray(std, dtype=dtype).reshape(1, 3, 1)
        for x in (x_train, x_test):
            planes = x.reshape(-1, 3, 1024)
            planes -= mean_a
            planes /= std_a

    train = Dataset(features=x_train, labels=y_train, n_classes=CIFAR_CLASSES)
    test = Dataset(features=x_test, labels=y_test, n_classes=CIFAR_CLASSES)
    return train, test


def synthetic_blobs(
    n_per_class: int,
    classes: int,
    dim: int,
    spread: float,
    seed: int,
    dtype=np.float64,
) -> Dataset:
    """Gaussian blob classification set: class c sits at 3*e_c with isotropic
    noise of standard deviation `spread`."""
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if dim < classes:
        raise ValueError(f"dim ({dim}) must be >= classes ({classes})")
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class)
    centers = np.zeros((classes, dim))
    centers[np.arange(classes), np.arange(classes)] = 3.0
    features = centers[labels] + spread * rng.standard_normal((n, dim))
    return Dataset(
        features=features.astype(dtype), labels=labels, n_classes=classes
    )


def batch_iter(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (x, y) minibatches under a fresh shuffle per (seed, epoch).

    The trailing partial batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(child_seed(seed, epoch))
    order = rng.permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.features[idx], ds.labels[idx]
