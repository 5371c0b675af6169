"""Dataset loading: CIFAR-10 binary batches and the synthetic desk-scale set.

CIFAR-10 binary layout: five train files data_batch_1..5.bin plus
test_batch.bin, each exactly 10000 records of 3073 bytes (1 label byte,
then 1024 red, 1024 green, 1024 blue bytes, row-major).
"""

from __future__ import annotations

import json
import mmap
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidValue, ShapeError, require_at_least
from .reading import field_types, keys_of, read_json, read_spec
from .seeding import child_seed, rng

CIFAR_DIM = 3072  # three channel planes of 32x32 pixels
CIFAR_RECORD_BYTES = 1 + CIFAR_DIM
CIFAR_RECORDS_PER_FILE = 10000
CIFAR_FILE_BYTES = CIFAR_RECORD_BYTES * CIFAR_RECORDS_PER_FILE
CIFAR_CLASSES = 10
STATS_FILENAME = "cifar10_stats.json"
ChannelStats = tuple[list[float], list[float]]  # per-channel (mean, std), RGB order


@dataclass(frozen=True)
class Dataset:
    """Feature rows (N, D), N >= 1, with integer labels in [0, n_classes).

    `features` is an array, or an array-like with `shape` whose `[index]`
    gives the selected rows' feature values as numpy selects rows (CIFAR-10's
    `MappedPixels` decodes its stored bytes as it gathers them).
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if self.features.shape[0] == 0:
            raise ShapeError("a dataset needs at least one row, got 0")
        if self.features.shape[0] != self.labels.shape[0]:
            raise FormatError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise FormatError("labels out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class MappedPixels:
    """The (N, 3072) feature rows of a CIFAR-10 split, kept as the uint8
    pixels of its files' read-only mappings, each a (records, 3073) array.

    `[index]` selects rows as numpy selects them from an (N,) array (a slice,
    a scalar, an integer array of any shape, a bool mask), gathers their
    pixels into a new array and decodes it: cast to dtype, scaled to [0,1]
    and, given mean and std (three each), each channel standardized. Each
    pass is one correctly rounded operation per element that depends only on
    the pixel byte and its channel, so a block equals the same rows of the
    whole decoded split bit for bit.
    """

    def __init__(self, files: list[np.ndarray], dtype, mean=None, std=None):
        self._pixels = [records[:, 1:] for records in files]
        self._records = files[0].shape[0]
        self.shape = (len(files) * self._records, CIFAR_DIM)
        self._dtype = dtype
        if mean is not None:
            mean, std = (np.asarray(v, dtype=dtype).reshape(1, 3, 1) for v in (mean, std))
        self._mean, self._std = mean, std

    def __getitem__(self, index) -> np.ndarray:
        rows = np.arange(self.shape[0])[index]
        file, row = np.divmod(rows, self._records)
        out = np.empty(rows.shape + (CIFAR_DIM,), dtype=np.uint8)
        for f, pixels in enumerate(self._pixels):
            hit = file == f
            out[hit] = pixels[row[hit]]
        x = out.astype(self._dtype)
        x /= 255.0
        if self._mean is not None:
            planes = x.reshape(-1, 3, CIFAR_DIM // 3)
            planes -= self._mean
            planes /= self._std
        return x


def _map_cifar_file(path: Path) -> np.ndarray:
    """The file's (records, 3073) bytes, mapped read-only; checks its size
    before mapping it."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != CIFAR_FILE_BYTES:
            raise FormatError(f"{path}: expected {CIFAR_FILE_BYTES} bytes, found {size}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(mapped, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)


def _train_paths(dir_path) -> list[Path]:
    return [Path(dir_path) / f"data_batch_{b}.bin" for b in range(1, 6)]


def _load_split(
    paths: list[Path], dtype, mean=None, std=None
) -> tuple[MappedPixels, np.ndarray]:
    """Map each file read-only; its pixel rows stay in the page cache, and
    its labels are checked and copied."""
    files, labels = [], []
    for path in paths:
        records = _map_cifar_file(path)
        file_labels = records[:, 0].astype(np.int64)
        if file_labels.max() >= CIFAR_CLASSES:
            raise FormatError(f"{path}: label byte {file_labels.max()} exceeds {CIFAR_CLASSES - 1}")
        files.append(records)
        labels.append(file_labels)
    return MappedPixels(files, dtype, mean, std), np.concatenate(labels)


def channel_stats(dir_path) -> ChannelStats:
    """Per-channel (mean, std) of the CIFAR-10 training set under dir_path,
    read from the cache next to the data when it exists. Else they are
    computed from the single-precision [0,1] values at any load precision, so
    the cache never depends on which load wrote it, and cached
    (`_cache_stats`); that decodes the whole training set once (a
    `MappedPixels` without mean and std), plus a float64 temporary of it. A
    sweep's pool calls this once, in the sweep process, and hands the result
    to its workers (`load_cifar10`'s `stats`).
    A cache that is not a `_StatsCache` (`read_spec`) raises FormatError."""
    path = Path(dir_path) / STATS_FILENAME
    if path.exists():
        return _read_stats(path)
    x_train, _ = _load_split(_train_paths(dir_path), np.float32)
    # Channels are the three contiguous planes of each record.
    planes = x_train[:].reshape(-1, 3, CIFAR_DIM // 3)
    mean = planes.mean(axis=(0, 2), dtype=np.float64).tolist()
    std = planes.std(axis=(0, 2), dtype=np.float64).tolist()
    _cache_stats(path, mean, std)
    return mean, std


@dataclass(frozen=True)
class _StatsCache:
    """The statistics cache's JSON object: three channel means and three stds > 0."""

    mean: tuple[float, ...]
    std: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, values in (("mean", self.mean), ("std", self.std)):
            if len(values) != 3:
                raise InvalidValue(name, f"must hold 3 numbers, got {len(values)}")
        if min(self.std) <= 0:
            raise InvalidValue("std", f"must hold numbers > 0, got {list(self.std)}")


# Resolved at import, as a module-level re.compile is, so that a CIFAR-10
# load's set-up does not pay the ~0.15 ms of resolving them.
field_types(_StatsCache)


def _read_stats(path: Path) -> ChannelStats:
    where = f"{path}: cache"
    try:
        stats = read_spec(_StatsCache, read_json(path.read_bytes(), where), source=keys_of(where))
    except (FormatError, InvalidValue) as exc:
        raise FormatError(f"{exc}; delete it to have them recomputed") from None
    return list(stats.mean), list(stats.std)


def _cache_stats(path: Path, mean: list[float], std: list[float]) -> None:
    """Write the statistics cache atomically: a temporary file in the same
    directory, then a rename, so a concurrent reader sees the whole file or
    none. A directory that refuses the write is left without a cache."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(asdict(_StatsCache(tuple(mean), tuple(std)))))
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)


def load_cifar10(
    dir_path, dtype=np.float32, stats: ChannelStats | None = None
) -> tuple[Dataset, Dataset]:
    """Load the six binary batches under dir_path.

    Each split's features are a `MappedPixels` over the mapped files: no
    load-time copy, and every process on the machine that loads the same
    files shares the one copy the page cache holds (0.18 GB in all). Its
    rows decode to dtype features as they are read: scaled to [0,1], then
    each channel standardized with the training set's (mean, std). `stats`
    gives them; None looks them up with `channel_stats` first, which
    computes them once and caches them as JSON next to the data (written
    atomically; skipped when the directory is read-only).

    The files must not change while the datasets are in use: after one is
    rewritten in place (a copy over it, a truncation), reading a row past its
    new end kills the process with SIGBUS, and rewritten rows change under
    it. Replacing a file by a rename is safe: the mapping keeps the old file.
    """
    mean, std = channel_stats(dir_path) if stats is None else stats
    x_train, y_train = _load_split(_train_paths(dir_path), dtype, mean, std)
    x_test, y_test = _load_split([Path(dir_path) / "test_batch.bin"], dtype, mean, std)
    return Dataset(x_train, y_train, CIFAR_CLASSES), Dataset(x_test, y_test, CIFAR_CLASSES)


@dataclass(frozen=True)
class BlobsSpec:
    """Synthetic blobs; the test split draws from a child stream of `seed`."""

    classes: int = 10
    dim: int = 48
    n_per_class: int = 500
    test_n_per_class: int = 100
    spread: float = 1.0
    seed: int = 1234

    def __post_init__(self) -> None:
        """Raise InvalidValue naming the first field out of its range."""
        require_at_least(1, n_per_class=self.n_per_class, test_n_per_class=self.test_n_per_class)
        require_at_least(2, classes=self.classes)
        if self.dim < self.classes:
            raise InvalidValue("dim", f"must be >= classes ({self.classes}), got {self.dim}")


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
    BlobsSpec(classes, dim, n_per_class)  # raises InvalidValue on a size out of range
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class)
    centers = np.zeros((classes, dim))
    centers[np.arange(classes), np.arange(classes)] = 3.0
    features = centers[labels] + spread * rng(seed).standard_normal((n, dim))
    return Dataset(
        features=features.astype(dtype), labels=labels, n_classes=classes
    )


def batch_iter(ds: Dataset, batch_size: int, seed: int, epoch: int):
    """Yield (x, y) minibatches under a fresh shuffle per (seed, epoch).

    x holds the batch's feature values (`features[idx]`, which CIFAR-10's
    `MappedPixels` decodes per batch); the trailing partial batch is kept.
    """
    require_at_least(1, batch_size=batch_size)
    order = rng(child_seed(seed, epoch)).permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.features[idx], ds.labels[idx]
