"""Deterministic 64-bit seed derivation.

All randomness in the package flows through numpy Generators built by `rng`
from explicit integers. Child seeds (per community, per run stream) are
derived with splitmix64 so that no two streams share a seed and derivation
is reproducible across sessions.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Per-run child streams: one run seed fans out into independent graph,
# model-init, and shuffle seeds.
_GRAPH_STREAM = 101
_MODEL_STREAM = 102
_SHUFFLE_STREAM = 103


def splitmix64(x: int) -> int:
    """One splitmix64 output step; a well-mixed 64-bit hash of x."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(seed: int, index: int) -> int:
    """Derive the seed for child stream `index`: seed XOR splitmix64(index), mixed."""
    return splitmix64((int(seed) & _MASK64) ^ splitmix64(int(index) & _MASK64))


def rng(seed: int) -> np.random.Generator:
    """The numpy Generator of `seed` modulo 2**64 (a negative seed too)."""
    return np.random.default_rng(int(seed) & _MASK64)
