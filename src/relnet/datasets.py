"""Dataset loading: CIFAR-10 binary batches and the synthetic desk-scale set.

CIFAR-10 binary layout: five train files data_batch_1..5.bin plus
test_batch.bin, each exactly 10000 records of 3073 bytes (1 label byte,
then 1024 red, 1024 green, 1024 blue bytes, row-major).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

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
    """Stored rows (N, D) with integer labels in [0, n_classes).

    `features` holds the rows as stored. When `decode` is set, it maps any
    block of stored rows to the feature values (CIFAR-10 keeps its uint8
    pixels and standardizes each block as it is read); read feature values
    through `rows`.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    decode: Callable[[np.ndarray], np.ndarray] | None = None

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

    def rows(self, index) -> np.ndarray:
        """Feature values of the rows selected by `index` (a slice or an index
        array); a fresh array when decoded."""
        x = self.features[index]
        return x if self.decode is None else self.decode(x)

    def astype(self, dtype) -> "Dataset":
        """The same dataset with its feature values cast to dtype, stored
        decoded."""
        return Dataset(
            features=self.rows(slice(None)).astype(dtype, copy=False),
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


def _load_split(paths: list[Path]) -> tuple[np.ndarray, np.ndarray]:
    """Copy each file's pixels into one preallocated (records, 3072) uint8
    array."""
    pixels = np.empty((len(paths) * CIFAR_RECORDS_PER_FILE, CIFAR_DIM), dtype=np.uint8)
    labels = []
    for i, path in enumerate(paths):
        file_pixels, file_labels = _read_cifar_file(path)
        pixels[i * CIFAR_RECORDS_PER_FILE : (i + 1) * CIFAR_RECORDS_PER_FILE] = file_pixels
        labels.append(file_labels)
        del file_pixels  # release this file's bytes before reading the next
    return pixels, np.concatenate(labels)


def decode_pixels(pixels: np.ndarray, dtype, mean=None, std=None) -> np.ndarray:
    """Feature values of a block of CIFAR-10 pixel rows, as a new array.

    Casts to dtype and scales to [0,1]; with mean and std (dtype arrays of
    shape (1, 3, 1)) it then standardizes each channel in place. Each pass
    is one correctly rounded operation per element whose result depends only
    on the pixel byte and its channel, so a block equals the same rows of the
    whole decoded split bit for bit.
    """
    x = pixels.astype(dtype)
    x /= 255.0
    if mean is not None:
        planes = x.reshape(-1, 3, 1024)
        planes -= mean
        planes /= std
    return x


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

    Each split keeps its pixels as a (N, 3072) uint8 array (0.18 GB in all)
    and decodes rows to dtype features as they are read (`decode_pixels`):
    normalize="standard" scales to [0,1] then standardizes each channel with
    training-set statistics, computed once and cached as JSON next to the
    data (written atomically; skipped when the directory is read-only).
    normalize="raw": stop at the [0,1] scaling.

    Only the first standard load, which computes the statistics, decodes the
    whole training set once, plus a float64 temporary of it.
    """
    if normalize not in ("standard", "raw"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    root = Path(dir_path)
    x_train, y_train = _load_split([root / f"data_batch_{b}.bin" for b in range(1, 6)])
    x_test, y_test = _load_split([root / "test_batch.bin"])

    decode = partial(decode_pixels, dtype=dtype)
    if normalize == "standard":
        stats_path = root / STATS_FILENAME
        if stats_path.exists():
            stats = json.loads(stats_path.read_text())
            mean, std = stats["mean"], stats["std"]
        else:
            mean, std = _channel_stats(decode(x_train))
            _cache_stats(stats_path, mean, std)
        decode = partial(
            decode,
            mean=np.asarray(mean, dtype=dtype).reshape(1, 3, 1),
            std=np.asarray(std, dtype=dtype).reshape(1, 3, 1),
        )

    train = Dataset(x_train, y_train, CIFAR_CLASSES, decode)
    test = Dataset(x_test, y_test, CIFAR_CLASSES, decode)
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

    x holds feature values (`Dataset.rows`), decoded per batch for a coded
    dataset. The trailing partial batch is kept.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(child_seed(seed, epoch))
    order = rng.permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.rows(idx), ds.labels[idx]
