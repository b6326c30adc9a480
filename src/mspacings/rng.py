"""Deterministic seeded random streams.

One generator algorithm is used package-wide: numpy's PCG64, keyed by a
SplitMix64 mix of ``(seed, stream_id)``.  Uniform draws map 53 random bits
onto [0, 1); exponentials invert the CDF, -log(1 - u), in place on the
uniforms.  Identical (seed, stream_id) pairs therefore reproduce identical
sequences across runs and platforms, and distinct stream ids give unrelated
streams (the mix is a bijection of the counter, so no two ids in [0, 2**64)
share a key under one seed).

Monte Carlo routines draw replication r from stream (seed, r) and handle
replications in chunks, one matrix row each (:meth:`SeededStream.chunks`),
of at most ``CHUNK_VALUES`` values per array.

A single stream is seeded by numpy itself: ``PCG64(key)`` runs the key
through numpy's ``SeedSequence`` and PCG64's seeding step.  ``SeedSequence``
costs about as much as a few thousand draws, so ``chunks`` takes the seed
words of a run's streams in one vectorised pass per block of at most
``_KEY_BLOCK`` (4096) replications, whatever the chunk size: SplitMix64 on a
vector of stream ids, then ``SeedSequence`` on a (4, ids) array of 32-bit
pool words.  Each row's PCG64 then seeds itself from its four words in
numpy's C code, through a minimal ``ISeedSequence`` that hands them over.
One stream of the class draws every row: its generator and ``stream_id``
become the row's, and ``uniforms(width, out=row)`` writes the row's
uniforms straight into the chunk.  Exponential rows invert the CDF once
per chunk.  The words equal numpy's ``SeedSequence(key).generate_state(4,
np.uint64)``, so every row equals the single-stream draw bit for bit.

``uniforms(count, out=None)`` is the one draw that a subclass overrides: it
changes both uniform and exponential draws, of single streams and of rows.
``exponentials(count, out=None)`` writes into ``out`` as ``uniforms`` does,
so a long stream can be drawn block by block into one array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_SPLITMIX64_GAMMA = 0x9E3779B97F4A7C15
# SplitMix64's output mix: xor-shift and multiply twice, then a last xor-shift
_SPLITMIX64_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_SPLITMIX64_LAST_SHIFT = 31

#: Values per array in one chunk of replications (512 KiB of doubles); a
#: chunk of rows that are ``width`` values wide holds
#: max(1, CHUNK_VALUES // width) replications.
CHUNK_VALUES = 1 << 16

#: Stream ids keyed in one vectorised pass, 32 bytes of seed words each.
_KEY_BLOCK = 4096

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


def _seed_words(keys: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(key).generate_state(4, np.uint64)`` for each
    key, one C-contiguous row of four uint64 words per key."""
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
    seeds = words[1::2].T.astype(np.uint64, order="C")
    seeds <<= _U64_32
    seeds |= words[0::2].T
    return seeds


@functools.cache
def _seed_words_class() -> type:
    """An ``ISeedSequence`` that hands a bit generator the seed words it
    holds, so that ``PCG64(_seed_words_class()(words))`` seeds itself from
    one row of :func:`_seed_words` in numpy's C code.

    It is defined on first use: ``numpy.random`` is imported only when a
    stream is drawn, not with the package.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        # PCG64 asks for exactly generate_state(4, np.uint64)
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


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

    def exponentials(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """iid standard exponentials, -log(1 - u) for uniform u, written into
        ``out`` as :meth:`uniforms` writes its draws.  A stream drawn in
        slices, one after another, gives the same values as one draw."""
        drawn = self.uniforms(count, out=out)
        if out is not None and drawn is not out:  # an override that returns a new array
            out[...] = drawn
            drawn = out
        return _inverse_cdf(drawn)

    @classmethod
    def chunks(cls, seed: int, count: int, out: np.ndarray, draw: str = "uniforms",
               wrap: int = 0):
        """Draws for replications 0 .. count - 1, in chunks of ``len(out)``
        rows written into ``out``.

        Yields (first replication, rows) for each chunk in turn; the rows are
        a leading slice of ``out`` and are overwritten by the next chunk.  Row
        r holds ``out.shape[1] - wrap`` values of ``draw`` ("uniforms" or
        "exponentials") from stream (seed, r), followed by a copy of its first
        ``wrap`` values (the circular extension of the row), and is exactly
        what a one-replication draw of that stream returns.  The seed and the
        last id are checked here, before anything is keyed or drawn.

        Seed words are taken in one vectorised pass per block of at most
        ``_KEY_BLOCK`` replications, whatever the chunks, and each row is
        drawn by one ``cls`` instance through ``uniforms(width, out=row)``
        (see the module docstring); its ``seed`` and ``stream_id`` are the
        row's while it draws.
        """
        if draw not in _ROW_DRAWS:
            raise ValueError(f"unknown draw {draw!r}; expected one of {_ROW_DRAWS}")
        if count:
            if not len(out):
                raise ValueError("out needs at least one row")
            # the first out-of-range value that a loop over the rows would meet
            derive_stream_key(seed, min(count - 1, _MASK64 + 1))
        return cls._drawn_chunks(seed, count, out, draw, wrap)

    @classmethod
    def _drawn_chunks(cls, seed, count, out, draw, wrap):
        """The generator of :meth:`chunks`, with its arguments checked."""
        width = out.shape[1] - wrap
        # looked up once per run, called once per row
        generator, bit_generator, seed_words = (
            np.random.Generator, np.random.PCG64, _seed_words_class())
        # a stream of the class, without numpy's seeding of a new generator
        stream = cls.__new__(cls)
        stream.seed = seed
        for start in range(0, count, max(1, len(out))):
            chunk = out[: min(len(out), count - start)]
            for row, target in enumerate(chunk[:, :width], start):
                if row % _KEY_BLOCK == 0:
                    words = _seed_words(_stream_keys(seed, row, min(_KEY_BLOCK, count - row)))
                stream.stream_id = row
                stream._generator = generator(bit_generator(seed_words(words[row % _KEY_BLOCK])))
                drawn = stream.uniforms(width, out=target)
                if drawn is not target:  # an override that returns a new array
                    target[...] = drawn
            if draw == "exponentials":
                _inverse_cdf(chunk[:, :width])
            chunk[:, width:] = chunk[:, :wrap]
            yield start, chunk
