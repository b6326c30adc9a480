"""Deterministic seeded random streams.

One generator algorithm is used package-wide: numpy's PCG64, keyed by a
SplitMix64 mix of ``(seed, stream_id)``.  Uniform draws map 53 random bits
onto [0, 1); exponentials invert the CDF.  Identical (seed, stream_id) pairs
therefore reproduce identical sequences across runs and platforms, and
distinct stream ids give unrelated streams (the mix is a bijection of the
counter, so no two ids share a key under one seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream_key(seed: int, stream_id: int) -> int:
    """Output number ``stream_id`` of the SplitMix64 sequence seeded by ``seed``.

    ``seed`` must lie in [0, 2**64): the mix works modulo 2**64, so any other
    seed would silently alias one inside that range.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    if stream_id < 0:
        raise ValueError(f"stream_id must be >= 0, got {stream_id}")
    return _mix64((seed + (stream_id + 1) * _SPLITMIX64_GAMMA) & _MASK64)


@dataclass
class SeededStream:
    """Reproducible random stream for one (seed, stream_id) pair."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        key = derive_stream_key(self.seed, self.stream_id)
        self._generator = np.random.Generator(np.random.PCG64(key))

    def uniforms(self, count: int) -> np.ndarray:
        """iid uniforms on [0, 1) with 53-bit granularity."""
        return self._generator.random(count)

    def uniform(self) -> float:
        return float(self._generator.random())

    def exponentials(self, count: int) -> np.ndarray:
        """iid standard exponentials, -log(1 - u) for uniform u."""
        return -np.log1p(-self._generator.random(count))

    def exponential(self) -> float:
        return float(-np.log1p(-self._generator.random()))
