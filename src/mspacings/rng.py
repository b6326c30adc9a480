"""Deterministic seeded random streams.

One generator algorithm is used package-wide: numpy's PCG64, keyed by a
SplitMix64 mix of ``(seed, stream_id)``.  Uniform draws map 53 random bits
onto [0, 1); exponentials invert the CDF, -log(1 - u), in place on the
uniforms.  Identical (seed, stream_id) pairs therefore reproduce identical
sequences across runs and platforms, and distinct stream ids give unrelated
streams (the mix is a bijection of the counter, so no two ids in [0, 2**64)
share a key under one seed).

Monte Carlo routines draw replication r from stream (seed, r) and handle
replications in chunks, one matrix row each (:meth:`SeededStream.rows`), of
at most ``CHUNK_VALUES`` values per array.

A single stream is seeded by numpy itself: ``PCG64(key)`` runs the key
through numpy's ``SeedSequence`` and PCG64's seeding step.  Building that
generator costs about as much as a few thousand draws, so ``rows`` keys a
chunk's streams in one vectorised pass instead: SplitMix64 on a vector of
stream ids, ``SeedSequence`` on a (4, rows) array of 32-bit pool words, and
PCG64's seeding step in Python integers.  It then makes one stream of the
class and, for each row, sets its generator to the row's (state, increment)
and its ``stream_id`` to the row's id, and draws the row's uniforms straight
into the chunk with ``uniforms(width, out=row)``.  Exponential rows invert
the CDF once, over the whole chunk.  The states equal those of numpy's own
seeding, so every row equals the single-stream draw bit for bit.

``uniforms(count, out=None)`` is the one draw that a subclass overrides: it
changes both uniform and exponential draws, of single streams and of rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64's output mix: xor-shift and multiply twice, then a last xor-shift
_SPLITMIX64_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_SPLITMIX64_LAST_SHIFT = 31
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: Values per array in one chunk of replications (512 KiB of doubles); a
#: chunk of rows that are ``width`` values wide holds
#: max(1, CHUNK_VALUES // width) replications.
CHUNK_VALUES = 1 << 16

_ROW_DRAWS = ("uniforms", "exponentials")


def _mix64(z: int) -> int:
    z &= _MASK64
    for shift, mult in _SPLITMIX64_MIX:
        z = ((z ^ (z >> shift)) * mult) & _MASK64
    return (z ^ (z >> _SPLITMIX64_LAST_SHIFT)) & _MASK64


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` + 1 values of SeedSequence's running hash
    multiplier, as a uint32 column: call k xors with entry k and multiplies
    by entry k + 1.  The sequence does not depend on the data."""
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return np.array(values, dtype=np.uint32)[:, None]


# numpy's SeedSequence with its pool of four 32-bit words: 4 + 12 hashes
# while mixing the entropy into the pool, 8 while generating the 256 bits
# that seed PCG64 (numpy.random.bit_generator).
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_OTHER_WORDS = tuple(np.array([d for d in range(4) if d != s]) for s in range(4))

# the constants of the vectorised SplitMix64 and seed words as uint64 scalars
_U64_ONE, _U64_GAMMA, _U64_LOW32, _U64_32, _U64_LAST_SHIFT = map(
    np.uint64, (1, _SPLITMIX64_GAMMA, _MASK32, 32, _SPLITMIX64_LAST_SHIFT))
_U64_MIX = tuple((np.uint64(shift), np.uint64(mult)) for shift, mult in _SPLITMIX64_MIX)


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` with its constant;
    ``constants`` holds one more row than ``values``."""
    values = values ^ constants[:-1]
    values *= constants[1:]
    values ^= values >> _XSHIFT
    return values


def _stream_keys(seed: int, first: int, count: int) -> np.ndarray:
    """``derive_stream_key(seed, first + r)`` for r < count, as uint64.

    The ids must lie in [0, 2**64); uint64 arithmetic wraps modulo 2**64
    exactly as the scalar mix does.
    """
    z = np.arange(count, dtype=np.uint64)
    z += np.uint64(first)
    z += _U64_ONE
    z *= _U64_GAMMA
    z += np.uint64(seed)
    for shift, mult in _U64_MIX:
        z ^= z >> shift
        z *= mult
    z ^= z >> _U64_LAST_SHIFT
    return z


def _pcg64_states(keys: np.ndarray) -> list[tuple[int, int]]:
    """The (state, increment) of ``np.random.PCG64(key)`` for each key."""
    # SeedSequence: the key's two 32-bit words, then zeros, fill the pool
    pool = np.zeros((4, keys.size), dtype=np.uint32)
    pool[0] = keys & _U64_LOW32
    pool[1] = keys >> _U64_32
    pool = _hashmix(pool, _HASH_A[:5])
    # every word mixes into every other one, in order of the source word
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hashmix(pool[src], _HASH_A[4 + 3 * src : 8 + 3 * src])
        mixed = pool[dst] * _MIX_MULT_L
        mixed -= hashed * _MIX_MULT_R
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    # eight output words cycle through the pool; pairs (low, high) form the
    # four 64-bit seed words
    words = _hashmix(np.tile(pool, (2, 1)), _HASH_B)
    seeds = words[0::2].astype(np.uint64)
    seeds |= words[1::2].astype(np.uint64) << _U64_32
    # PCG64 seeding: inc = 2 initseq + 1, then two steps of the LCG from 0
    # with initstate added in between
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*seeds.tolist()):
        inc = (((seq_hi << 64) | seq_lo) << 1 | 1) & _MASK128
        initstate = (state_hi << 64) | state_lo
        states.append((((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _inverse_cdf(values: np.ndarray) -> np.ndarray:
    """Standard exponentials -log(1 - u) from uniforms u, in place."""
    np.negative(values, out=values)
    np.log1p(values, out=values)
    return np.negative(values, out=values)


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

    def uniforms(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """iid uniforms on [0, 1) with 53-bit granularity, written into
        ``out`` (a C-contiguous array of ``count`` doubles) when it is given."""
        return self._generator.random(count, out=out)

    def exponentials(self, count: int) -> np.ndarray:
        """iid standard exponentials, -log(1 - u) for uniform u."""
        return _inverse_cdf(self.uniforms(count))

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

        All rows are keyed in one vectorised pass and drawn by one ``cls``
        instance through ``uniforms(width, out=row)`` (see the module
        docstring); its ``seed`` and ``stream_id`` are the row's while it
        draws.
        """
        if draw not in _ROW_DRAWS:
            raise ValueError(f"unknown draw {draw!r}; expected one of {_ROW_DRAWS}")
        if out is None:
            out = np.empty((count, width + wrap))
        if count:
            # the first out-of-range id that a loop over the rows would meet
            derive_stream_key(seed, first)
            derive_stream_key(seed, min(first + count - 1, _MASK64 + 1))
            bit_generator = np.random.PCG64(0)  # every row replaces its state
            # a stream of the class, without numpy's seeding of a new generator
            stream = cls.__new__(cls)
            stream.seed, stream._generator = seed, np.random.Generator(bit_generator)
            states = _pcg64_states(_stream_keys(seed, first, count))
            for row, (state, inc) in enumerate(states):
                bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
                stream.stream_id = first + row
                target = out[row, :width]
                drawn = stream.uniforms(width, out=target)
                if drawn is not target:  # an override that returns a new array
                    target[...] = drawn
            if draw == "exponentials":
                _inverse_cdf(out[:, :width])
        out[:, width:] = out[:, :wrap]
        return out
