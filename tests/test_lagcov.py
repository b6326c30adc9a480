"""Window totals, lag-covariance assembly, and batch-means plumbing."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mspacings import (
    DEFAULT_BATCHES,
    NonFiniteSample,
    SigmaComponents,
    TupleFunction,
    batch_std_error,
    batched_components,
    components,
    custom_sum,
    stream_window_values,
    window_sums,
)
from mspacings import lagcov
from mspacings.lagcov import projection_moment

BLOCK = lagcov._LAG_BLOCK


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def looped_components(hv, w, m) -> SigmaComponents:
    """The full-length assembly: one product array and one np.sum per lag."""
    base_count = hv.size - (m - 1)
    dh = hv - hv.mean()
    dw = w - w.mean()
    base = dh[:base_count]
    lag_total = 0.0
    cross_total = 0.0
    b = 0.0
    for j in range(m):
        cj = float(np.sum(base * dh[j : j + base_count]) / base_count)
        dj = float(np.sum(base * dw[j : j + base_count]) / base_count)
        weight = 1.0 if j == 0 else 2.0
        lag_total += weight * cj
        cross_total += weight * dj
        if j == 0:
            b = dj
    return SigmaComponents(corrected=lag_total - b * b,
                           holst=lag_total - (cross_total / m) ** 2, b=b,
                           mean_h=float(hv.mean()))


def component_hexes(c: SigmaComponents) -> list[str]:
    return hexes([c.corrected, c.holst, c.b, c.mean_h])


def full_length_moment(hv, x, mean_h, b, m, r) -> float:
    """The full-length form: one g array and one np.mean."""
    base_count = hv.size - (m - 1)
    g = hv[:base_count] - mean_h - (x[:base_count] - 1.0) * b
    return float(np.mean(np.abs(g) ** r))


def offset_stream(base_count: int, m: int, seed: int):
    """(hv, w) with ``base_count`` lag positions; hv carries a 1e8 offset."""
    x = np.random.default_rng(seed).standard_exponential(base_count + 2 * (m - 1))
    w = window_sums(x, m)
    return np.square(w) + 1e8, w


class TestWindowSums:
    def test_order_one_is_identity(self):
        x = np.arange(10.0)
        assert window_sums(x, 1) is x

    def test_matches_explicit_sums(self):
        rng = np.random.default_rng(3)
        x = rng.random(40)
        for m in (2, 3, 7, 40):
            got = window_sums(x, m)
            expected = [math.fsum(x[k : k + m]) for k in range(x.size - m + 1)]
            assert got.shape == (x.size - m + 1,)
            np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_cumsum_path_matches_direct(self):
        # m = 65 crosses the implementation switch; compare with the
        # per-window route, which loses nothing to cancellation
        rng = np.random.default_rng(9)
        x = rng.standard_exponential(500)
        wide = window_sums(x, 65)
        direct = np.lib.stride_tricks.sliding_window_view(x, 65).sum(axis=1)
        np.testing.assert_allclose(wide, direct, rtol=1e-12)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_equal_to_numpy_window_sum(self, m):
        # signed values over 16 decades, with -0.0 entries (and an all -0.0
        # run, whose numpy total is +0.0), in one stream and in a stack; at
        # m = 1 the totals are the entries themselves, -0.0 included
        rng = np.random.default_rng(100 + m)
        stack = rng.standard_normal((4, 300 + m - 1)) * 10.0 ** rng.integers(-8, 8, (4, 300 + m - 1))
        stack[:, ::7] = -0.0
        stack[1, 20:40] = -0.0
        for x in (stack[0], stack):
            expected = x if m == 1 else sliding_window_view(x, m, axis=-1).sum(axis=-1)
            assert hexes(window_sums(x, m)) == hexes(expected)

    @pytest.mark.parametrize("m", [0, -1, 6, 7, 70])
    def test_order_outside_one_to_length_rejected(self, m):
        for x in (np.arange(5.0), np.ones((3, 5))):
            with pytest.raises(ValueError, match=rf"m={m} is outside \[1, 5\]"):
                window_sums(x, m)

    def test_order_equal_to_length_gives_one_total(self):
        x = np.arange(5.0)
        assert window_sums(x, 5).tolist() == [10.0]
        assert window_sums(np.ones((3, 5)), np.int64(5)).tolist() == [[5.0]] * 3

    @pytest.mark.parametrize("m", [2.0, "2", None])
    def test_order_must_be_an_integer(self, m):
        with pytest.raises(TypeError, match="m must be an integer"):
            window_sums(np.arange(5.0), m)


class TestPairwiseSum:
    @pytest.mark.parametrize("block", [128, 136, 1000, BLOCK])
    def test_equal_to_np_sum_up_to_2000(self, monkeypatch, block):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", block)
        rng = np.random.default_rng(block)
        values = rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 6, 2000)
        for count in range(1, 2001):
            a = values[:count]
            got = lagcov._pairwise_sum(lambda lo, n: np.sum(a[lo : lo + n]), count)
            assert float(got).hex() == float(np.sum(a)).hex(), (
                f"numpy's summation order changed: count {count}, block {block}")

    @pytest.mark.parametrize("count", [1_000_003, 2**21 + 5, 3_999_999])
    def test_equal_to_np_sum_for_long_arrays(self, count):
        rng = np.random.default_rng(count)
        a = rng.standard_normal(count) * 10.0 ** rng.integers(-6, 6, count)
        got = lagcov._pairwise_sum(lambda lo, n: np.sum(a[lo : lo + n]), count)
        assert float(got).hex() == float(np.sum(a)).hex(), (
            f"numpy's summation order changed: count {count}")


class TestComponents:
    def test_order_one_forms_coincide(self):
        rng = np.random.default_rng(5)
        x = rng.standard_exponential(2000)
        hv = np.square(x)
        c = components(hv, x, 1)
        assert c.corrected == c.holst

    def test_order_one_hand_assembly(self):
        rng = np.random.default_rng(6)
        x = rng.standard_exponential(300)
        hv = np.square(x)
        c = components(hv, x, 1)
        n = x.size
        dh = hv - hv.mean()
        dw = x - x.mean()
        c0 = float(np.sum(dh * dh) / n)
        b = float(np.sum(dh * dw) / n)
        assert c.b == pytest.approx(b, rel=1e-13)
        assert c.corrected == pytest.approx(c0 - b * b, rel=1e-13)

    def test_lag_symmetry_uses_doubled_weights(self):
        # at order 2 the assembly is c0 + 2 c1 minus the subtraction term
        rng = np.random.default_rng(8)
        x = rng.standard_exponential(500)
        w = window_sums(x, 2)
        hv = np.square(w)
        c = components(hv, w, 2)
        base = hv.size - 1
        dh = hv - hv.mean()
        dw = w - w.mean()
        c0 = float(np.sum(dh[:base] * dh[:base]) / base)
        c1 = float(np.sum(dh[:base] * dh[1 : 1 + base]) / base)
        d0 = float(np.sum(dh[:base] * dw[:base]) / base)
        d1 = float(np.sum(dh[:base] * dw[1 : 1 + base]) / base)
        assert c.corrected == pytest.approx(c0 + 2 * c1 - d0 * d0, rel=1e-12)
        assert c.holst == pytest.approx(c0 + 2 * c1 - ((d0 + 2 * d1) / 2) ** 2, rel=1e-12)

    def test_too_few_windows(self):
        with pytest.raises(ValueError):
            components(np.ones(3), np.ones(3), 3)

    @pytest.mark.parametrize("m", [0, -1])
    def test_order_below_one_rejected(self, m):
        with pytest.raises(ValueError, match=f"order m={m} must be at least 1"):
            components(np.ones(10), np.ones(10), m)
        with pytest.raises(ValueError, match=f"order m={m} must be at least 1"):
            batched_components(np.ones(100), np.ones(100), m)

    @pytest.mark.parametrize("w_size", [1200, 1001, 999, 900])
    def test_lengths_must_match(self, w_size):
        # a longer w used to change mean_w and every result; a shorter one
        # failed inside numpy
        rng = np.random.default_rng(8)
        hv, w = rng.standard_exponential(1000), rng.standard_exponential(w_size)
        message = f"hv has 1000 entries and w {w_size}: values and totals must align"
        with pytest.raises(ValueError, match=message):
            components(hv, w, 2)
        with pytest.raises(ValueError, match=message):
            batched_components(hv, w, 2)

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("base_count", [
        2, 7, 8, 127, 129, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 23, 2 * BLOCK + 25])
    def test_equal_to_full_length_loop(self, base_count, m):
        hv, w = offset_stream(base_count, m, seed=base_count + m)
        assert component_hexes(components(hv, w, m)) == component_hexes(
            looped_components(hv, w, m))

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_equal_to_full_length_loop_over_many_blocks(self, monkeypatch, m):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", 128)
        for base_count in (128, 129, 1000, 4099, 20_001):
            hv, w = offset_stream(base_count, m, seed=base_count)
            assert component_hexes(components(hv, w, m)) == component_hexes(
                looped_components(hv, w, m))


class TestProjectionMoment:
    @pytest.mark.parametrize("r", [2.5, 3.0, 4.0, 7.25])
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("base_count", [
        2, 7, 129, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 23, 3 * BLOCK + 5])
    def test_equal_to_full_length_mean(self, base_count, m, r):
        hv, _ = offset_stream(base_count, m, seed=base_count + m)
        x = np.random.default_rng(base_count).standard_exponential(hv.size + m - 1)
        mean_h, b = float(hv.mean()), -1.7e3
        assert float(projection_moment(hv, x, mean_h, b, m, r)).hex() == \
            float(full_length_moment(hv, x, mean_h, b, m, r)).hex()

    @pytest.mark.parametrize("m", [1, 3])
    def test_equal_to_full_length_mean_over_many_blocks(self, monkeypatch, m):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", 128)
        for base_count in (128, 129, 1000, 4099, 20_001):
            hv, w = offset_stream(base_count, m, seed=base_count)
            comp = components(hv, w, m)
            got = projection_moment(hv, w, comp.mean_h, comp.b, m, 3.0)
            assert float(got).hex() == \
                float(full_length_moment(hv, w, comp.mean_h, comp.b, m, 3.0)).hex()


class TestBatching:
    def test_batch_count(self):
        rng = np.random.default_rng(4)
        x = rng.standard_exponential(3000)
        out = batched_components(np.square(x), x, 1)
        assert len(out) == DEFAULT_BATCHES

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize("size", [28, 127, 129, BLOCK - 1, BLOCK + 1])
    def test_equal_to_full_length_loop(self, size, m):
        # every batch segment has ``size`` lag positions
        hv, w = offset_stream(DEFAULT_BATCHES * size, m, seed=size + m)
        got = batched_components(hv, w, m)
        expected = [looped_components(hv[b * size : (b + 1) * size + m - 1],
                                      w[b * size : (b + 1) * size + m - 1], m)
                    for b in range(DEFAULT_BATCHES)]
        assert [component_hexes(c) for c in got] == [component_hexes(c) for c in expected]

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError, match=r"m=1: 59 windows, need at least 120 "):
            batched_components(np.ones(59), np.ones(59), 1)
        with pytest.raises(ValueError, match=r"m=2: 99 windows, need at least 240 "):
            batched_components(np.ones(100), np.ones(100), 2)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_shortest_stream_accepted(self, m):
        size = max(2, 4 * m)
        hv, w = offset_stream(DEFAULT_BATCHES * size, m, seed=m)
        assert len(batched_components(hv, w, m)) == DEFAULT_BATCHES
        with pytest.raises(ValueError, match="stream too short"):
            batched_components(hv[1:], w[1:], m)

    def test_constant_batches_have_zero_error(self):
        # 2.5 sums and divides exactly, so the spread is exactly zero
        assert batch_std_error([2.5] * DEFAULT_BATCHES) == 0.0

    def test_std_error_shrinks_with_spread(self):
        tight = batch_std_error([1.0, 1.01, 0.99, 1.0])
        loose = batch_std_error([1.0, 2.0, 0.0, 1.0])
        assert tight < loose


def square_values(x, w):
    return np.square(w)


def slice_draw(source):
    """A ``draw(count, out)`` that writes the next ``count`` entries of
    ``source`` into ``out``."""
    drawn = [0]

    def draw(count, out):
        out[...] = source[drawn[0] : drawn[0] + count]
        drawn[0] += count
        return out

    return draw


class TestWindowPass:
    # the blocked passes give the numpy means, and the lag sums and moment of
    # the full-length arrays, bit for bit on every window-total path, in one
    # block and over many
    @pytest.mark.parametrize("block", [128, None])
    @pytest.mark.parametrize("m", [1, 2, 7, 8, 64, 65, 70])
    def test_equal_to_full_length_arrays(self, monkeypatch, m, block):
        if block is not None:
            monkeypatch.setattr(lagcov, "_LAG_BLOCK", block)
        source = np.random.default_rng(m).standard_exponential(20_003) * 1e3
        w = window_sums(source, m)
        hv = np.square(w)
        x = np.full(source.size, np.nan)
        mean_h, mean_w = lagcov.window_pass(slice_draw(source), x, m, square_values)
        assert x.tobytes() == source.tobytes()
        assert hexes([mean_h, mean_w]) == hexes([hv.mean(), w.mean()])

        full = components(hv, w, m)
        batch = batched_components(hv, w, m)
        cross, cross_batch = lagcov.lag_pass(x, m, square_values, mean_h, mean_w, True, True)
        assert component_hexes(cross) == component_hexes(full)
        assert [component_hexes(c) for c in cross_batch] == [component_hexes(c) for c in batch]
        plain, plain_batch = lagcov.lag_pass(x, m, square_values, mean_h, mean_w, False, True)
        condition, none = lagcov.lag_pass(x, m, square_values, mean_h, mean_w, False, False)
        assert none == []
        for c, expected in [(plain, full), (condition, full), *zip(plain_batch, batch)]:
            assert math.isnan(c.holst)
            assert hexes([c.corrected, c.b, c.mean_h]) == \
                hexes([expected.corrected, expected.b, expected.mean_h])
        assert lagcov.stream_moment(x, m, square_values, full.mean_h, full.b, 2.5).hex() == \
            projection_moment(hv, x, full.mean_h, full.b, m, 2.5).hex()

    def test_draws_each_block_just_ahead_of_its_windows(self, monkeypatch):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", 128)
        source = np.random.default_rng(3).standard_exponential(1000)
        counts = []
        draw = slice_draw(source)
        lagcov.window_pass(lambda count, out: counts.append(count) or draw(count, out),
                           np.empty(1000), 5, square_values)
        assert sum(counts) == 1000 and max(counts) <= 128 + 4

    def test_non_finite_value_names_the_first_window(self, monkeypatch):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", 128)
        source = np.ones(1000)
        source[[700, 900]] = -1.0
        with pytest.raises(NonFiniteSample, match="^statistic value at window 698 is not finite$"):
            lagcov.window_pass(slice_draw(source), np.empty(1000), 3,
                               lambda x, w: np.where(w > 1.5, w, np.nan))

    def test_running_sum_serves_only_blocks_from_the_last_one_on(self):
        totals = lagcov._block_totals(np.ones(400), 70, 128)
        assert totals(0, 100)[0] == 70.0
        assert totals(50, 128)[-1] == 70.0
        with pytest.raises(ValueError, match="^window totals from 40 asked for"):
            totals(40, 10)
        with pytest.raises(ValueError, match="^window totals from 248 asked for"):
            totals(248, 10)


class TestStreamWindowValues:
    def test_shapes(self):
        for m, draws in ((1, 100), (3, 257), (5, 64)):
            x, hv, w = stream_window_values("greenwood", m, draws, seed=1)
            assert x.size == draws + 2 * m
            assert w.size == draws + m + 1
            assert hv.size == w.size

    def test_deterministic(self):
        a = stream_window_values("moran", 2, 200, seed=10)
        b = stream_window_values("moran", 2, 200, seed=10)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_kind_and_tuple_function_routes_agree(self):
        m = 3
        h = TupleFunction(lambda rows: np.square(rows.sum(axis=1)), arity=m,
                          vectorized=True, name="window-square")
        xa, ha, wa = stream_window_values("greenwood", m, 500, seed=2)
        xb, hb, wb = stream_window_values(h, m, 500, seed=2)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(ha, hb)

    def test_arity_mismatch(self):
        h = TupleFunction(lambda rows: rows.sum(axis=1), arity=2, vectorized=True)
        with pytest.raises(ValueError):
            stream_window_values(h, 3, 100, seed=0)

    def test_non_finite_values_rejected(self):
        shifted_log = custom_sum(lambda t: np.log(t - 50.0), name="shifted-log")
        with pytest.raises(NonFiniteSample):
            stream_window_values(shifted_log, 1, 100, seed=0)
