"""Null simulation machinery: sampling helpers, KS distance, the replication
loop, and the stream estimate of the per-window variance coefficient."""

import dataclasses
import math

import numpy as np
import pytest

from mspacings import (
    AsymptoticMoments,
    DegenerateVariance,
    DomainViolation,
    McConfig,
    McSummary,
    MSpacingsError,
    SeededStream,
    SimulationAborted,
    UnsupportedKind,
    ZeroSpacing,
    closed_form_moments,
    custom_sum,
    estimate_sigma_m,
    exponential,
    from_unit_observations,
    ks_distance_to_normal,
    normal_cdf,
    resolve_kind,
    simulate_null,
    statistic_Q,
    statistic_V,
    statistic_W,
    statistic_Z,
    uniform_sorted,
)
from mspacings import montecarlo


class TestSamplingHelpers:
    def test_uniform_sorted_is_sorted_in_range(self):
        u = uniform_sorted(SeededStream(1), 1000)
        assert np.all(np.diff(u) >= 0.0)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_uniform_sorted_deterministic(self):
        a = uniform_sorted(SeededStream(9, 4), 128)
        b = uniform_sorted(SeededStream(9, 4), 128)
        np.testing.assert_array_equal(a, b)

    def test_uniform_sorted_mean(self):
        u = uniform_sorted(SeededStream(2), 1_000_000)
        assert abs(float(u.mean()) - 0.5) < 0.002

    def test_uniform_sorted_count_floor(self):
        with pytest.raises(ValueError):
            uniform_sorted(SeededStream(0), 0)

    def test_exponential_draw(self):
        s1, s2 = SeededStream(3), SeededStream(3)
        x = exponential(s1)
        assert math.isfinite(x) and x >= 0.0
        assert exponential(s2) == x


class TestKsDistance:
    def test_two_point_case(self):
        # jumps at -1 and 1; both suprema equal Phi(1) - 1/2
        assert ks_distance_to_normal([-1.0, 1.0]) == pytest.approx(
            0.34134474606854293, rel=1e-12)

    def test_single_zero(self):
        assert ks_distance_to_normal([0.0]) == 0.5

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(200)
        assert ks_distance_to_normal(z) == ks_distance_to_normal(z[::-1])

    def test_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = rng.standard_normal(50) * rng.uniform(0.2, 5.0)
            d = ks_distance_to_normal(z)
            assert 0.0 < d <= 1.0

    def test_small_for_gaussian_sample(self):
        rng = np.random.default_rng(2)
        assert ks_distance_to_normal(rng.standard_normal(20_000)) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance_to_normal([])

    @staticmethod
    def _elementwise_formula(z_values):
        # the formula before vectorization: normal_cdf on numpy scalars
        z = np.sort(np.asarray(z_values, dtype=np.float64))
        count = z.size
        phi = np.array([normal_cdf(v) for v in z])
        steps = np.arange(1, count + 1) / count
        d_plus = float(np.max(steps - phi))
        d_minus = float(np.max(phi - (steps - 1.0 / count)))
        return max(d_plus, d_minus)

    def test_bit_identical_to_elementwise_formula(self):
        rng = np.random.default_rng(11)
        for count in (1, 2, 7, 500, 20_001):
            z = rng.standard_normal(count) * rng.uniform(0.1, 10.0) + rng.uniform(-3.0, 3.0)
            assert ks_distance_to_normal(z).hex() == self._elementwise_formula(z).hex()
        extremes = [-40.0, -8.5, -1e-300, -0.0, 0.0, 5e-324, 8.5, 40.0]
        assert ks_distance_to_normal(extremes) == self._elementwise_formula(extremes)


class TestMcConfig:
    def test_variant_normalized(self):
        cfg = McConfig(n=10, m=1, kind="greenwood", replications=5, seed=0, variant="V")
        assert cfg.variant == "v"

    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(n=5, m=5, kind="greenwood", replications=5, seed=0)
        with pytest.raises(ValueError):
            McConfig(n=5, m=1, kind="greenwood", replications=1, seed=0)
        with pytest.raises(ValueError):
            McConfig(n=5, m=1, kind="greenwood", replications=5, seed=0, variant="x")

    def test_frozen(self):
        cfg = McConfig(n=10, m=1, kind="greenwood", replications=5, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n = 20


class TestSimulateNull:
    def test_deterministic(self):
        cfg = McConfig(n=64, m=2, kind="greenwood", replications=20, seed=5)
        assert simulate_null(cfg) == simulate_null(cfg)

    def test_custom_kind_with_supplied_moments_matches_named(self):
        named = simulate_null(
            McConfig(n=64, m=1, kind="greenwood", replications=20, seed=5))
        custom = simulate_null(
            McConfig(n=64, m=1, kind=custom_sum(np.square, name="sq"),
                     replications=20, seed=5),
            moments=closed_form_moments("greenwood", 64, 1))
        assert named == custom

    def test_z_variant_matches_v_at_order_one(self):
        v = simulate_null(McConfig(n=64, m=1, kind="greenwood",
                                   replications=20, seed=5, variant="v"))
        z = simulate_null(McConfig(n=64, m=1, kind="greenwood",
                                   replications=20, seed=5, variant="z"))
        assert v == z

    def test_variant_smoke(self):
        for variant in ("w", "q", "z"):
            cfg = McConfig(n=50, m=2, kind="greenwood", replications=3,
                           seed=1, variant=variant)
            out = simulate_null(cfg)
            assert out.replications == 3
            assert out.min_z <= out.mean_z <= out.max_z
            assert math.isfinite(out.ks_distance)

    def test_custom_kind_requires_moments(self):
        cfg = McConfig(n=20, m=1, kind=custom_sum(np.square), replications=5, seed=0)
        with pytest.raises(UnsupportedKind):
            simulate_null(cfg)

    def test_zero_variance_rejected(self):
        cfg = McConfig(n=20, m=1, kind="greenwood", replications=5, seed=0)
        flat = AsymptoticMoments(mean=40.0, variance=0.0,
                                 per_term_mean=2.0, per_term_variance=0.0)
        with pytest.raises(DegenerateVariance):
            simulate_null(cfg, moments=flat)

    def test_abort_carries_replication_and_cause(self):
        bad = custom_sum(lambda t: np.log(t - 50.0), name="shifted-log")
        cfg = McConfig(n=20, m=1, kind=bad, replications=5, seed=0)
        ok = AsymptoticMoments(mean=0.0, variance=1.0,
                               per_term_mean=0.0, per_term_variance=1.0)
        with pytest.raises(SimulationAborted) as err:
            simulate_null(cfg, moments=ok)
        assert err.value.replication == 0
        assert isinstance(err.value.cause, DomainViolation)

    def test_wall_time_opt_in(self):
        cfg = McConfig(n=50, m=1, kind="greenwood", replications=5, seed=2)
        plain = simulate_null(cfg)
        timed = simulate_null(cfg, measure_time=True)
        assert plain.wall_time_s is None
        assert timed.wall_time_s > 0.0
        assert dataclasses.replace(timed, wall_time_s=None) == plain

    def test_moderate_run_tracks_normal(self):
        cfg = McConfig(n=500, m=1, kind="greenwood", replications=400, seed=42)
        out = simulate_null(cfg)
        assert abs(out.mean_z) < 0.25
        assert abs(out.variance_z - 1.0) < 0.4
        assert out.ks_distance < 0.12


_PUBLIC_STATISTICS = {"v": statistic_V, "w": statistic_W, "q": statistic_Q}


def _public_statistic(sample, m, kind, variant):
    kind = resolve_kind(kind)
    if variant == "z":
        return statistic_Z(sample, m, kind.as_tuple_function(m))
    return _PUBLIC_STATISTICS[variant](sample, m, kind)


def _looped_summary(config, stream=SeededStream):
    """simulate_null as a plain loop of one-sample public calls."""
    moments = closed_form_moments(config.kind, config.n, config.m)
    z = np.empty(config.replications)
    for rep in range(config.replications):
        sample = from_unit_observations(stream(config.seed, rep).uniforms(config.n - 1))
        value = _public_statistic(sample, config.m, config.kind, config.variant).value
        z[rep] = (value - moments.mean) / math.sqrt(moments.variance)
    return McSummary(replications=config.replications, mean_z=float(np.mean(z)),
                     variance_z=float(np.var(z, ddof=1)), ks_distance=ks_distance_to_normal(z),
                     min_z=float(np.min(z)), max_z=float(np.max(z)), seed=config.seed)


class TestChunkedEngine:
    N = 5000
    ROWS = montecarlo.CHUNK_VALUES // N

    @pytest.mark.parametrize("kind, m, variant", [
        ("greenwood", 1, "v"), ("moran", 2, "v"), ("entropy", 5, "v"),
        ("greenwood", 2, "w"), ("moran", 3, "q"), ("entropy", 2, "z"),
        ("greenwood", 9, "z"),
    ])
    def test_equals_loop_of_public_calls(self, kind, m, variant):
        reps = 3 * self.ROWS + 2  # three full chunks and a partial one
        config = McConfig(n=self.N, m=m, kind=kind, replications=reps, seed=31,
                          variant=variant)
        assert simulate_null(config) == _looped_summary(config)

    def test_independent_of_chunk_size(self, monkeypatch):
        config = McConfig(n=40, m=2, kind="moran", replications=101, seed=8, variant="z")
        reference = simulate_null(config)
        for values in (1, 40, 41, 120, 40 * 101, 1 << 20):
            monkeypatch.setattr(montecarlo, "CHUNK_VALUES", values)
            assert simulate_null(config) == reference

    @staticmethod
    def _streams_with(overrides):
        """Seeded streams, except that the stream ids in ``overrides`` draw
        ``overrides[id](count)``."""
        class Streams(SeededStream):
            def uniforms(self, count):
                fixed = overrides.get(self.stream_id)
                return super().uniforms(count) if fixed is None else fixed(count)
        return Streams

    def _abort(self, monkeypatch, config, overrides, moments=None):
        """Run the engine with overridden draws; check its abort against the
        first error of the one-sample loop, and return it."""
        stream = self._streams_with(overrides)
        monkeypatch.setattr(montecarlo, "SeededStream", stream)
        with pytest.raises(SimulationAborted) as err:
            simulate_null(config, moments=moments)
        expected = None
        for rep in range(config.replications):
            sample = from_unit_observations(stream(config.seed, rep).uniforms(config.n - 1))
            try:
                _public_statistic(sample, config.m, config.kind, config.variant)
            except MSpacingsError as exc:
                expected = (rep, exc)
                break
        assert expected is not None
        rep, cause = expected
        assert err.value.replication == rep
        assert type(err.value.cause) is type(cause)
        assert err.value.cause.index == cause.index
        assert str(err.value.cause) == str(cause)
        return err.value

    @staticmethod
    def _tied(count):
        u = np.linspace(0.05, 0.95, count)
        u[count // 2] = u[count // 2 + 1]
        return u

    @pytest.mark.parametrize("variant", ["v", "w", "q"])
    def test_tie_in_later_chunk_names_replication(self, monkeypatch, variant):
        late = 2 * self.ROWS + 3
        config = McConfig(n=self.N, m=1, kind="moran", replications=4 * self.ROWS,
                          seed=5, variant=variant)
        # a tie later in the same chunk must not be the one reported
        aborted = self._abort(monkeypatch, config,
                              {late: self._tied, late + 2: lambda c: np.full(c, 0.5)})
        assert isinstance(aborted.cause, ZeroSpacing)
        assert aborted.replication == late

    @pytest.mark.parametrize("variant", ["v", "z"])
    def test_domain_violation_in_later_chunk_names_replication(self, monkeypatch, variant):
        late = 3 * self.ROWS + 1
        # finite everywhere except on a gap wider than a quarter circle
        bad = custom_sum(lambda x: np.log(self.N / 4.0 - x), name="gap-log")
        ok = AsymptoticMoments(mean=0.0, variance=1.0, per_term_mean=0.0, per_term_variance=1.0)
        config = McConfig(n=self.N, m=2, kind=bad, replications=4 * self.ROWS + 5,
                          seed=9, variant=variant)
        aborted = self._abort(monkeypatch, config,
                              {late: lambda c: np.linspace(0.0, 0.6, c, endpoint=False)},
                              moments=ok)
        assert isinstance(aborted.cause, DomainViolation)


class TestEstimateSigmaM:
    def test_greenwood_order_one(self):
        est = estimate_sigma_m("greenwood", 1, window_draws=100_000, seed=7)
        assert abs(est.value - 4.0) <= 3 * est.std_error

    def test_constant_function_exact_zero(self):
        const = custom_sum(lambda t: np.full_like(t, 2.5), name="const")
        est = estimate_sigma_m(const, 2, window_draws=10_000, seed=0)
        assert (est.value, est.std_error) == (0.0, 0.0)

    @staticmethod
    def _mean_halving_ratio(kind, m):
        # a single seed's ratio is noisy (the SE of an SE), so average the
        # log-ratio over seeds; 1/sqrt(2) scaling puts it near -0.347
        logs = []
        for seed in range(1, 9):
            small = estimate_sigma_m(kind, m, window_draws=50_000, seed=seed)
            big = estimate_sigma_m(kind, m, window_draws=100_000, seed=seed)
            logs.append(math.log(big.std_error / small.std_error))
        return math.exp(sum(logs) / len(logs))

    def test_error_shrinks_when_draws_double(self):
        assert 0.58 < self._mean_halving_ratio("greenwood", 1) < 0.86

    def test_error_shrinks_moran_order_two(self):
        assert 0.58 < self._mean_halving_ratio("moran", 2) < 0.86

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            estimate_sigma_m("greenwood", 1, window_draws=100, seed=0)
