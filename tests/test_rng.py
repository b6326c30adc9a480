"""Stream derivation and the deterministic generator plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings import (
    McConfig,
    SeededStream,
    TupleFunction,
    TupleFunctionFamily,
    asymptotics,
    derive_stream_key,
    estimate_general_moments,
    montecarlo,
    rng,
    simulate_null,
)
from mspacings.rng import _seed_words, _seed_words_class, _stream_keys

MAX64 = 2**64 - 1


def numpy_words(keys):
    """numpy's own SeedSequence output for PCG64, one row per key."""
    return np.array([np.random.SeedSequence(key).generate_state(4, np.uint64)
                     for key in keys], dtype=np.uint64).reshape(-1, 4)


def seed_words_match_numpy(keys):
    words = _seed_words(np.array(keys, dtype=np.uint64))
    return (words.dtype == np.uint64 and words.flags.c_contiguous
            and words.tobytes() == numpy_words(keys).tobytes())


class TestStreamKey:
    def test_splitmix64_reference_vector(self):
        # first outputs of the SplitMix64 sequence seeded with 0
        assert derive_stream_key(0, 0) == 0xE220A8397B1DCDAF
        assert derive_stream_key(0, 1) == 0x6E789E6AA1B965F4
        assert derive_stream_key(0, 2) == 0x06C45D188009454F

    def test_key_fits_64_bits(self):
        for seed, sid in ((2**64 - 1, 7), (123456789, 2**40), (0, 0)):
            key = derive_stream_key(seed, sid)
            assert 0 <= key < 2**64

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            derive_stream_key(1, -1)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the mix works modulo 2**64: -1 would alias 2**64 - 1
        with pytest.raises(ValueError, match=f"seed {seed} "):
            derive_stream_key(seed, 0)
        with pytest.raises(ValueError, match=f"seed {seed} "):
            SeededStream(seed, 3)

    def test_seed_range_edges_accepted(self):
        assert derive_stream_key(0, 0) != derive_stream_key(2**64 - 1, 0)

    @pytest.mark.parametrize("stream_id", [-1, 2**64, 2**64 + 2, 2**65])
    def test_stream_id_outside_64_bits_rejected(self, stream_id):
        # the mix works modulo 2**64: id 2**64 would share the key of id 0
        with pytest.raises(ValueError, match=f"stream_id {stream_id} "):
            derive_stream_key(5, stream_id)
        with pytest.raises(ValueError, match=f"stream_id {stream_id} "):
            SeededStream(5, stream_id)

    def test_stream_id_range_edges_accepted(self):
        assert derive_stream_key(5, 2**64 - 1) != derive_stream_key(5, 0)

    def test_distinct_ids_give_distinct_keys(self):
        keys = {derive_stream_key(42, sid) for sid in range(1000)}
        assert len(keys) == 1000


class TestSeededStream:
    def test_identical_state_identical_output(self):
        a = SeededStream(99, 3).uniforms(256)
        b = SeededStream(99, 3).uniforms(256)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededStream(99, 3).uniforms(256)
        b = SeededStream(99, 4).uniforms(256)
        c = SeededStream(98, 3).uniforms(256)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniforms_in_unit_interval(self):
        u = SeededStream(1, 0).uniforms(100_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_uniforms_are_53_bit(self):
        u = SeededStream(1, 0).uniforms(10_000)
        scaled = u * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))

    def test_uniform_mean(self):
        u = SeededStream(7, 0).uniforms(1_000_000)
        assert abs(float(u.mean()) - 0.5) <= 0.002

    def test_exponentials_are_inverse_cdf_of_uniforms(self):
        e = SeededStream(11, 2).exponentials(4096)
        u = SeededStream(11, 2).uniforms(4096)
        assert np.array_equal(e, -np.log1p(-u))
        assert (e >= 0.0).all() and np.isfinite(e).all()

    @pytest.mark.parametrize("count", [1, 200, 65_537, 1_000_000])
    def test_exponentials_bit_identical_to_inverse_cdf(self, count):
        e = SeededStream(12, 5).exponentials(count)
        u = SeededStream(12, 5).uniforms(count)
        assert e.tobytes() == (-np.log1p(-u)).tobytes()

    @pytest.mark.parametrize("count", [1, 200, 65_537])
    def test_uniforms_into_out_equal_a_fresh_draw(self, count):
        out = np.full(count + 3, np.nan)
        drawn = SeededStream(14, 6).uniforms(count, out=out[1 : count + 1])
        assert np.shares_memory(drawn, out)
        assert drawn.tobytes() == SeededStream(14, 6).uniforms(count).tobytes()
        assert np.isnan(out[[0, -2, -1]]).all()

    @pytest.mark.parametrize("piece", [1, 7, 4096, 32_768])
    def test_exponentials_drawn_in_slices_equal_one_draw(self, piece):
        # 100 003 is a multiple of none of the slice lengths
        count = 100_003
        out = np.full(count, np.nan)
        stream = SeededStream(0, 0)
        for lo in range(0, count, piece):
            drawn = stream.exponentials(min(piece, count - lo), out=out[lo : lo + piece])
            assert np.shares_memory(drawn, out)
        assert out.tobytes() == SeededStream(0, 0).exponentials(count).tobytes()

    def test_exponential_moments(self):
        e = SeededStream(13, 0).exponentials(1_000_000)
        assert abs(float(e.mean()) - 1.0) <= 0.003
        assert abs(float(e.var()) - 1.0) <= 0.01

    def test_inverse_cdf_endpoints(self):
        # the map applied to the stream sends u = 0 to 0 and 1 - 1/e to 1
        assert -math.log1p(-0.0) == 0.0
        assert -math.log1p(-(1.0 - math.exp(-1.0))) == pytest.approx(1.0, abs=1e-15)


def drawn_rows(cls, seed, count, width, draw="uniforms", wrap=0):
    """All ``count`` rows of ``cls.chunks``, drawn in one chunk of
    (count, width + wrap)."""
    out = np.empty((count, width + wrap))
    for _ in cls.chunks(seed, count, out, draw, wrap):
        pass
    return out


class TestRows:
    """Each row of ``SeededStream.chunks`` against its single stream, and
    the subclass seam."""

    @pytest.mark.parametrize("draw", ["uniforms", "exponentials"])
    @pytest.mark.parametrize("wrap", [0, 1, 4])
    def test_row_r_is_stream_r(self, draw, wrap):
        rows = drawn_rows(SeededStream, 21, 5, 9, draw, wrap)
        for r in range(5):
            one = getattr(SeededStream(21, r), draw)(9)
            assert np.array_equal(rows[r], np.concatenate([one, one[:wrap]]))

    @pytest.mark.parametrize("draw", ["uniforms", "exponentials"])
    @pytest.mark.parametrize("wrap", [0, 3])
    @pytest.mark.parametrize("count", [1, 13, 326])
    def test_rows_equal_single_streams(self, draw, wrap, count):
        width = 11
        rows = drawn_rows(SeededStream, 2**40 + 3, count, width, draw, wrap)
        for r in range(count):
            one = getattr(SeededStream(2**40 + 3, r), draw)(width)
            assert rows[r].tobytes() == np.concatenate([one, one[:wrap]]).tobytes()

    def test_rows_into_out(self):
        out = np.full((6, 12), np.nan)
        expected = drawn_rows(SeededStream, 4, 5, 10, "exponentials", wrap=2)
        [(first, rows)] = SeededStream.chunks(4, 5, out, "exponentials", wrap=2)
        assert first == 0 and np.shares_memory(rows, out)
        assert np.array_equal(rows, expected)
        assert np.isnan(out[5]).all()

    def test_rows_are_drawn_by_instances_of_the_class(self):
        seen = []

        class Recorded(SeededStream):
            def uniforms(self, count, out=None):
                seen.append((type(self), self.seed, self.stream_id))
                return super().uniforms(count, out=out)

        rows = drawn_rows(Recorded, 8, 4, 5)
        assert seen == [(Recorded, 8, r) for r in range(4)]
        assert np.array_equal(rows, drawn_rows(SeededStream, 8, 4, 5))

    def test_a_uniforms_override_changes_both_row_draws(self):
        class Halved(SeededStream):
            def uniforms(self, count, out=None):
                u = super().uniforms(count, out=out)
                u *= 0.5
                return u

        u = drawn_rows(SeededStream, 3, 4, 7, wrap=2)
        assert drawn_rows(Halved, 3, 4, 7, wrap=2).tobytes() == (0.5 * u).tobytes()
        expected = -np.log1p(-(0.5 * u))
        assert drawn_rows(Halved, 3, 4, 7, "exponentials", wrap=2).tobytes() == \
            expected.tobytes()
        assert Halved(3, 0).exponentials(7).tobytes() == expected[0, :7].tobytes()

    def test_an_override_that_returns_a_new_array_fills_the_row(self):
        class Fresh(SeededStream):
            def uniforms(self, count, out=None):
                return np.full(count, (10 + self.stream_id) / 100.0)

        rows = drawn_rows(Fresh, 3, 4, 5, "exponentials", wrap=1)
        for r in range(4):
            assert np.array_equal(rows[r], np.full(6, -math.log1p(-(10 + r) / 100.0)))
        out = np.full(5, np.nan)
        assert Fresh(3, 2).exponentials(5, out=out) is out
        assert np.array_equal(out, np.full(5, -math.log1p(-0.12)))

    @pytest.mark.parametrize("draw", ["__init__", "exponential", "chunks", "uniform", ""])
    @pytest.mark.parametrize("count", [0, 3])
    def test_rows_reject_any_other_draw(self, draw, count):
        drawn = []

        class Recorded(SeededStream):
            def uniforms(self, count, out=None):
                drawn.append(self.stream_id)
                return super().uniforms(count, out=out)

        out = np.full((count, 4), np.nan)
        with pytest.raises(ValueError, match=f"unknown draw {draw!r}"):
            Recorded.chunks(1, count, out, draw)
        assert drawn == [] and np.isnan(out).all()


class TestBatchedKeys:
    """``_seed_words`` against numpy's SeedSequence, and PCG64 seeded from
    its words against numpy's seeding of the key."""

    @pytest.mark.parametrize("key", [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, MAX64 - 1, MAX64])
    def test_edge_keys_match_numpy_seeding(self, key):
        assert seed_words_match_numpy([key])
        words = _seed_words(np.array([key], dtype=np.uint64))[0]
        seeded = np.random.PCG64(_seed_words_class()(words))
        assert seeded.state == np.random.PCG64(key).state

    @pytest.mark.parametrize("seed, first", [
        (0, 0), (0, MAX64 - 9), (MAX64, 0), (MAX64, MAX64 - 9), (2**32, 2**32 - 5),
    ])
    def test_keys_at_range_edges(self, seed, first):
        keys = _stream_keys(seed, first, 10)
        expected = [derive_stream_key(seed, first + r) for r in range(10)]
        assert keys.dtype == np.uint64 and keys.tolist() == expected
        assert seed_words_match_numpy(expected)

    @given(seed=st.integers(0, MAX64), first=st.integers(0, MAX64))
    def test_keyed_states_match_numpy_seeding(self, seed, first):
        count = min(7, 2**64 - first)
        keys = _stream_keys(seed, first, count)
        expected = [derive_stream_key(seed, first + r) for r in range(count)]
        assert keys.tolist() == expected
        assert seed_words_match_numpy(expected)

    def test_many_keys_in_one_pass(self):
        keys = _stream_keys(20240611, 0, 2500)
        assert seed_words_match_numpy(keys.tolist())


KEY_BLOCKS = (1, 3, 4096)


class TestChunks:
    @pytest.mark.parametrize("block", KEY_BLOCKS)
    @pytest.mark.parametrize("chunk_rows", [1, 4, 7, 20])
    @pytest.mark.parametrize("draw, wrap", [("uniforms", 0), ("exponentials", 2)])
    def test_rows_across_key_blocks_equal_single_streams(self, monkeypatch, block,
                                                         chunk_rows, draw, wrap):
        monkeypatch.setattr(rng, "_KEY_BLOCK", block)
        count, width = 17, 6
        out = np.full((chunk_rows, width + wrap), np.nan)
        seen = []
        for first, rows in SeededStream.chunks(2**33 + 1, count, out, draw, wrap=wrap):
            assert first == len(seen) and np.shares_memory(rows, out)
            assert len(rows) == min(chunk_rows, count - first)
            seen.extend(row.copy() for row in rows)
        assert len(seen) == count
        for r, row in enumerate(seen):
            one = getattr(SeededStream(2**33 + 1, r), draw)(width)
            assert row.tobytes() == np.concatenate([one, one[:wrap]]).tobytes()

    @pytest.mark.parametrize("block", KEY_BLOCKS)
    def test_rows_over_a_key_block_equal_single_streams(self, monkeypatch, block):
        # ids 4090 .. 4101 straddle the default block's edge
        monkeypatch.setattr(rng, "_KEY_BLOCK", block)
        rows = drawn_rows(SeededStream, 9, 4102, 3, "exponentials")
        for r in (0, 1, *range(4090, 4102)):
            assert rows[r].tobytes() == SeededStream(9, r).exponentials(3).tobytes()

    @pytest.mark.parametrize("seed, count, named", [
        (-1, 3, "seed -1 "),
        (2**64, 1, f"seed {2**64} "),
        (-1, 2**64 + 1, "seed -1 "),
        (5, 2**64 + 1, f"stream_id {2**64} "),
        (MAX64, 2**64 + 7, f"stream_id {2**64} "),
    ])
    def test_ids_outside_64_bits_are_refused_before_keying(self, monkeypatch, seed, count,
                                                           named):
        # the error names the first value a loop over single streams meets
        def no_keys(*args):
            raise AssertionError("keyed before the range check")

        monkeypatch.setattr(rng, "_stream_keys", no_keys)
        with pytest.raises(ValueError, match=named):
            SeededStream.chunks(seed, count, np.empty((4, 3)))

    def test_a_last_id_of_max64_is_accepted(self):
        first, rows = next(SeededStream.chunks(MAX64, 2**64, np.empty((4, 3))))
        assert first == 0
        assert rows.tobytes() == drawn_rows(SeededStream, MAX64, 4, 3).tobytes()

    def test_no_replications_draw_nothing(self):
        assert list(SeededStream.chunks(1, 0, np.empty((0, 3)))) == []

    def test_chunks_need_a_row_of_out(self):
        with pytest.raises(ValueError, match="out needs at least one row"):
            SeededStream.chunks(1, 2, np.empty((0, 3)))


def mixed_family(n, m):
    square = TupleFunction(lambda rows: np.square(rows.sum(axis=1)), arity=m,
                           vectorized=True, name="square-total")
    first = TupleFunction(lambda rows: rows[:, 0] * np.log1p(rows[:, -1]), arity=m,
                          vectorized=True, name="first-log-last")
    return TupleFunctionFamily(tuple((square, first)[k % 2] for k in range(n)))


class TestEnginesOverKeyBlocks:
    """The replication engines give the same bits at every chunk size and
    key-block size."""

    CHUNK_VALUES = (1, 30, 97, 1 << 16)

    def test_simulate_null(self, monkeypatch):
        config = McConfig(n=30, m=2, kind="moran", replications=23, seed=12, variant="w")
        reference = simulate_null(config)
        for values in self.CHUNK_VALUES:
            for block in KEY_BLOCKS:
                monkeypatch.setattr(montecarlo, "CHUNK_VALUES", values)
                monkeypatch.setattr(rng, "_KEY_BLOCK", block)
                assert simulate_null(config) == reference, (values, block)

    def test_estimate_general_moments(self, monkeypatch):
        family = mixed_family(12, 2)
        reference = estimate_general_moments(family, 12, 2, 103, 6)
        for values in self.CHUNK_VALUES:
            for block in KEY_BLOCKS:
                monkeypatch.setattr(asymptotics, "CHUNK_VALUES", values)
                monkeypatch.setattr(rng, "_KEY_BLOCK", block)
                assert estimate_general_moments(family, 12, 2, 103, 6) == reference, \
                    (values, block)
