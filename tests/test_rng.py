"""Stream derivation and the deterministic generator plumbing."""

import math

import numpy as np
import pytest

from mspacings import SeededStream, derive_stream_key


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

    def test_uniform_scalar_matches_vector_head(self):
        assert SeededStream(5, 0).uniform() == SeededStream(5, 0).uniforms(1)[0]

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

    def test_exponential_scalar(self):
        x = SeededStream(11, 2).exponential()
        assert x >= 0.0 and math.isfinite(x)

    def test_exponential_moments(self):
        e = SeededStream(13, 0).exponentials(1_000_000)
        assert abs(float(e.mean()) - 1.0) <= 0.003
        assert abs(float(e.var()) - 1.0) <= 0.01

    def test_inverse_cdf_endpoints(self):
        # the map applied to the stream sends u = 0 to 0 and 1 - 1/e to 1
        assert -math.log1p(-0.0) == 0.0
        assert -math.log1p(-(1.0 - math.exp(-1.0))) == pytest.approx(1.0, abs=1e-15)
