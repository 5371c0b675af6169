"""Synthetic CIFAR-10 binaries in the exact layout `load_cifar10` reads.

Five train files of 10,000 records and one test file of 10,000 records,
3,073 bytes each: one label byte, then 3,072 pixel bytes. Pixels are
N(128, 64) grey-level noise plus a per-class pattern of +-1.5 grey levels,
so the class signal is weak and one epoch stays in CIFAR's loss range
(about 2.3 down to 2.2). A strongly separable set would drive the loss
towards 0, where subnormal floats slow the backward pass several-fold;
the paper's runs never reach that regime.
"""

from __future__ import annotations

from pathlib import Path
from statistics import NormalDist

import numpy as np

RECORD_BYTES = 3073
PIXELS = 3072
RECORDS_PER_FILE = 10000
CLASSES = 10
TRAIN_FILES = 5
NOISE_STD = 64.0
SIGNAL = 1.5


def _noise_table() -> np.ndarray:
    """Twice N(0, NOISE_STD) at 65,536 evenly spaced quantiles, rounded.

    Indexing it with uniform 16-bit draws samples the noise far faster than
    drawing normals, and integer arithmetic keeps the writer cheap.
    """
    dist = NormalDist(0.0, 2.0 * NOISE_STD)
    quantiles = [dist.inv_cdf((k + 0.5) / 65536) for k in range(65536)]
    return np.rint(quantiles).astype(np.int16)


def _records(rng: np.random.Generator, table: np.ndarray, patterns: np.ndarray) -> bytes:
    labels = rng.integers(0, CLASSES, size=RECORDS_PER_FILE, dtype=np.uint8)
    draws = np.frombuffer(rng.bytes(RECORDS_PER_FILE * PIXELS * 2), dtype=np.uint16)
    pixels = table[draws].reshape(RECORDS_PER_FILE, PIXELS)
    pixels += patterns[labels]
    pixels >>= 1  # halves and rounds: the table and patterns are in half grey levels
    np.clip(pixels, 0, 255, out=pixels)
    out = np.empty((RECORDS_PER_FILE, RECORD_BYTES), dtype=np.uint8)
    out[:, 0] = labels
    out[:, 1:] = pixels
    return out.tobytes()


def write_cifar10(directory, seed: int) -> Path:
    """Write data_batch_1..5.bin and test_batch.bin under `directory`."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(CLASSES, PIXELS), dtype=np.int16) * 2 - 1
    # 2*128 + 1 centres the grey level and makes the shift round to nearest.
    patterns = (257 + round(2 * SIGNAL) * signs).astype(np.int16)
    table = _noise_table()
    names = [f"data_batch_{b}.bin" for b in range(1, TRAIN_FILES + 1)]
    for name in names + ["test_batch.bin"]:
        (root / name).write_bytes(_records(rng, table, patterns))
    return root
