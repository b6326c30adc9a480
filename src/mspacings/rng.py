"""Deterministic seeded random streams.

One generator algorithm is used package-wide: numpy's PCG64, keyed by a
SplitMix64 mix of ``(seed, stream_id)``.  Uniform draws map 53 random bits
onto [0, 1); exponentials invert the CDF.  Identical (seed, stream_id) pairs
therefore reproduce identical sequences across runs and platforms, and
distinct stream ids give unrelated streams (the mix is a bijection of the
counter, so no two ids in [0, 2**64) share a key under one seed).

Monte Carlo routines draw replication r from stream (seed, r) and handle
replications in chunks, one matrix row each (:meth:`SeededStream.rows`), of
at most ``CHUNK_VALUES`` values per array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15

#: Values per array in one chunk of replications (512 KiB of doubles); a
#: chunk of rows that are ``width`` values wide holds
#: max(1, CHUNK_VALUES // width) replications.
CHUNK_VALUES = 1 << 16


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_stream_key(seed: int, stream_id: int) -> int:
    """Output number ``stream_id`` of the SplitMix64 sequence seeded by ``seed``.

    ``seed`` and ``stream_id`` must lie in [0, 2**64): the mix works modulo
    2**64, so any other value would silently alias one inside that range.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    if not 0 <= stream_id <= _MASK64:
        raise ValueError(f"stream_id {stream_id} is outside [0, 2**64)")
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

    def exponentials(self, count: int) -> np.ndarray:
        """iid standard exponentials, -log(1 - u) for uniform u."""
        values = self._generator.random(count)
        np.negative(values, out=values)
        np.log1p(values, out=values)
        return np.negative(values, out=values)

    @classmethod
    def rows(cls, seed: int, first: int, count: int, width: int,
             draw: str = "uniforms", wrap: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
        """(count, width + wrap) draws for replications first .. first + count - 1.

        Row r holds ``width`` values of ``draw`` ("uniforms" or
        "exponentials") from stream (seed, first + r), followed by a copy of
        its first ``wrap`` values (the circular extension of the row).  Each
        row is exactly what a one-replication draw of that stream returns.
        The rows are written into ``out`` when it is given.
        """
        if out is None:
            out = np.empty((count, width + wrap))
        for row in range(count):
            out[row, :width] = getattr(cls(seed, first + row), draw)(width)
        out[:, width:] = out[:, :wrap]
        return out
