"""Closed-form moments, standardization, mean corrections, general variance
estimation, and the normal-limit moment condition."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mspacings import (
    DEFAULT_BATCHES,
    AsymptoticMoments,
    DegenerateVariance,
    EULER_GAMMA,
    Estimate,
    FamilyLengthMismatch,
    GREENWOOD,
    GeneralMoments,
    NonFiniteSample,
    SeededStream,
    StatisticResult,
    TupleFunction,
    TupleFunctionFamily,
    UnsupportedKind,
    batch_std_error,
    clt_condition_ratio,
    closed_form_moments,
    custom_sum,
    digamma_int,
    estimate_general_moments,
    estimate_sigma_m,
    exact_mean_correction,
    holst_comparison,
    holst_vs_corrected,
    hurwitz_zeta2,
    mean_correction,
    mu_n,
    null_moments,
    resolve_kind,
    sigma_m_closed_form_large_m,
    standardize,
    stream_window_values,
    window_sums,
)
from mspacings import asymptotics, lagcov

PI2 = math.pi * math.pi


def result(value, kind="greenwood", n=100, m=1, variant="V", count=100):
    return StatisticResult(value=value, kind=kind, n=n, m=m,
                           variant=variant, summand_count=count)


def identity_family(n):
    h = TupleFunction(lambda rows: rows[:, 0], arity=1, vectorized=True, name="identity")
    return TupleFunctionFamily.constant(h, n)


def square_family(n, scale=1.0):
    h = TupleFunction(lambda rows, s=scale: s * np.square(rows[:, 0]), arity=1,
                      vectorized=True, name="square")
    return TupleFunctionFamily.constant(h, n)


def alternating_family(n):
    sq = TupleFunction(lambda rows: np.square(rows[:, 0]), arity=1,
                       vectorized=True, name="square")
    zero = TupleFunction(lambda rows: np.zeros(rows.shape[0]), arity=1,
                         vectorized=True, name="zero")
    return TupleFunctionFamily(tuple(sq if k % 2 == 0 else zero for k in range(n)))


class TestClosedFormMoments:
    def test_greenwood_order_one(self):
        mom = closed_form_moments("greenwood", 100, 1)
        assert mom.per_term_mean == 2.0
        assert mom.per_term_variance == 4.0
        assert mom.mean == 200.0
        assert mom.variance == 400.0

    def test_moran_order_one(self):
        mom = closed_form_moments("moran", 50, 1)
        assert mom.per_term_mean == pytest.approx(-EULER_GAMMA, rel=1e-14)
        assert mom.per_term_variance == pytest.approx(PI2 / 6 - 1, rel=1e-12)

    def test_entropy_order_one(self):
        mom = closed_form_moments("entropy", 50, 1)
        assert mom.per_term_mean == pytest.approx(1 - EULER_GAMMA, rel=1e-12)
        assert mom.per_term_variance == pytest.approx(PI2 / 3 - 3, rel=1e-12)

    def test_moran_order_two(self):
        mom = closed_form_moments("moran", 50, 2)
        assert mom.per_term_variance == pytest.approx(5 * PI2 / 6 - 8, rel=1e-13)

    def test_entropy_order_two(self):
        mom = closed_form_moments("entropy", 50, 2)
        assert mom.per_term_variance == pytest.approx(3 * PI2 - 29, rel=1e-13)

    def test_greenwood_divisibility_is_exact(self):
        # 2 m (m+1) (2m+1) is always a multiple of 3
        assert closed_form_moments("greenwood", 10, 7).per_term_variance == 560.0
        big = closed_form_moments("greenwood", 10**6, 1000)
        assert big.per_term_variance == 1335334000.0
        assert big.variance == 1335334000.0 * 10**6

    def test_variances_positive(self):
        for kind in ("greenwood", "moran", "entropy"):
            for m in range(1, 51):
                assert closed_form_moments(kind, m + 1, m).per_term_variance > 0.0

    def test_custom_kind_refused(self):
        with pytest.raises(UnsupportedKind):
            closed_form_moments(custom_sum(np.square), 100, 1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            closed_form_moments("greenwood", 100, 0)
        with pytest.raises(ValueError):
            closed_form_moments("greenwood", 5, 5)


@pytest.mark.parametrize("variant", ["r", "x", "V"])
def test_null_moments_refuse_a_variant_without_them(variant):
    with pytest.raises(ValueError, match=re.escape(
            f"variant must be one of ('v', 'w', 'q', 'z'), got {variant!r}")):
        null_moments("greenwood", 100, 2, variant)


class TestStandardize:
    def test_centered_value(self):
        report = standardize(result(200.0), closed_form_moments("greenwood", 100, 1))
        assert report.z == 0.0
        assert report.p_two_sided == 1.0
        assert report.p_upper == 0.5
        assert report.p_lower == 0.5

    def test_unit_z(self):
        report = standardize(result(220.0), closed_form_moments("greenwood", 100, 1))
        assert report.z == 1.0
        assert report.p_two_sided == pytest.approx(0.3173105078629140, rel=1e-12)

    def test_negative_z(self):
        report = standardize(result(184.0), closed_form_moments("greenwood", 100, 1))
        assert report.z == pytest.approx(-0.8, rel=1e-15)
        assert report.p_two_sided == pytest.approx(0.4237107971667933, rel=1e-12)
        assert report.p_lower == pytest.approx(0.5 * 0.4237107971667933, rel=1e-12)
        assert report.p_upper + report.p_lower == pytest.approx(1.0, rel=1e-12)

    def test_metadata_carried(self):
        report = standardize(result(220.0, kind="greenwood", n=100, m=2, variant="W", count=98),
                             closed_form_moments("greenwood", 100, 1))
        assert (report.kind, report.n, report.m) == ("greenwood", 100, 2)
        assert (report.variant, report.summand_count) == ("W", 98)
        assert report.mean == 200.0 and report.variance == 400.0

    def test_degenerate_variance(self):
        flat = AsymptoticMoments(mean=1.0, variance=0.0, per_term_mean=1.0,
                                 per_term_variance=0.0)
        with pytest.raises(DegenerateVariance):
            standardize(result(1.0), flat)

    @pytest.mark.parametrize("mean, variance, error", [
        (1.0, math.inf, DegenerateVariance),
        (1.0, math.nan, DegenerateVariance),
        (math.nan, 1.0, ValueError),
        (-math.inf, 1.0, ValueError),
    ])
    def test_non_finite_moments_refused(self, mean, variance, error):
        moments = AsymptoticMoments(mean=mean, variance=variance, per_term_mean=0.0,
                                    per_term_variance=0.0)
        with pytest.raises(error):
            standardize(result(1.0), moments)


class TestLargeMForms:
    def test_order_one(self):
        assert sigma_m_closed_form_large_m("greenwood", 1) == 4.0 / 3.0
        assert sigma_m_closed_form_large_m("moran", 1) == 0.5
        assert sigma_m_closed_form_large_m("entropy", 1) == 1.5

    def test_order_ten(self):
        assert sigma_m_closed_form_large_m("greenwood", 10) == 4000.0 / 3.0
        assert sigma_m_closed_form_large_m("moran", 10) == 0.005
        assert sigma_m_closed_form_large_m("entropy", 10) == 3.75

    def test_custom_kind_refused(self):
        with pytest.raises(UnsupportedKind):
            sigma_m_closed_form_large_m(custom_sum(np.square), 2)


class TestExactMeanCorrection:
    def test_greenwood_formula(self):
        assert exact_mean_correction("greenwood", 10, 1) == -20.0 / 11.0
        assert exact_mean_correction("greenwood", 100, 2) == -600.0 / 101.0

    def test_greenwood_limit(self):
        assert exact_mean_correction("greenwood", 10**6, 1) == pytest.approx(-2.0, rel=1e-5)
        assert exact_mean_correction("greenwood", 10**6, 3) == pytest.approx(-12.0, rel=1e-5)

    def test_moran_limit_is_positive_half(self):
        val = exact_mean_correction("moran", 10**6, 1)
        assert val == pytest.approx(0.5, abs=2e-7)
        assert val > 0.5  # the 1/(12n) term keeps it above the limit

    def test_moran_next_order(self):
        n = 1000
        val = exact_mean_correction("moran", n, 1)
        assert val == pytest.approx(0.5 + 1.0 / (12 * n), abs=1e-6)

    def test_entropy_limit(self):
        assert exact_mean_correction("entropy", 10**6, 3) == pytest.approx(-1.5, abs=1e-5)

    def test_validation(self):
        with pytest.raises(UnsupportedKind):
            exact_mean_correction(custom_sum(np.square), 100, 1)
        with pytest.raises(ValueError):
            exact_mean_correction("greenwood", 5, 5)


class TestRegisteredKindsOnly:
    """Closed forms belong to the registered kinds, not to their names."""

    CLOSED_FORMS = {
        "closed_form_moments": lambda kind: closed_form_moments(kind, 100, 2),
        "exact_mean_correction": lambda kind: exact_mean_correction(kind, 100, 2),
        "sigma_m_closed_form_large_m": lambda kind: sigma_m_closed_form_large_m(kind, 2),
    }

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_custom_kind_reusing_a_registered_name_is_refused(self, name):
        with pytest.raises(UnsupportedKind, match="^no closed forms for kind 'greenwood': it is"):
            self.CLOSED_FORMS[name](custom_sum(np.log, name="greenwood"))

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_kind_equal_to_a_registered_one_keeps_its_forms(self, name):
        same = custom_sum(np.square, name="greenwood")
        assert same == GREENWOOD
        assert self.CLOSED_FORMS[name](same) == self.CLOSED_FORMS[name](GREENWOOD)


@pytest.mark.parametrize("call, message", [
    (lambda: digamma_int(2.7), "m must be an integer, got 2.7"),
    (lambda: hurwitz_zeta2(2.7), "m must be an integer, got 2.7"),
    (lambda: mu_n(10.7), "n must be an integer, got 10.7"),
    (lambda: closed_form_moments("moran", 100, 2.5), "m must be an integer, got 2.5"),
    (lambda: closed_form_moments("greenwood", 100.7, 2), "n must be an integer, got 100.7"),
    (lambda: closed_form_moments("greenwood", math.nan, 2), "n must be an integer, got nan"),
    (lambda: exact_mean_correction("entropy", 100.0, 2), "n must be an integer, got 100.0"),
    (lambda: sigma_m_closed_form_large_m("moran", 2.5), "m must be an integer, got 2.5"),
    (lambda: mean_correction("greenwood", 2.0, 10_000, 0), "m must be an integer, got 2.0"),
    (lambda: mean_correction("greenwood", 2, 10_000.0, 0), "draws must be an integer, got 10000.0"),
    (lambda: mean_correction("greenwood", 2, 10_000, 0.5), "seed must be an integer, got 0.5"),
    (lambda: mean_correction("greenwood", 2, 10_000, 0, stream_id=1.0),
     "stream_id must be an integer, got 1.0"),
    (lambda: holst_comparison("moran", 1.5, 10_000, 0), "m must be an integer, got 1.5"),
    (lambda: holst_vs_corrected("moran", 1, 10_000.0, 0), "draws must be an integer, got 10000.0"),
    (lambda: estimate_sigma_m("greenwood", 2.0, 10_000, 0), "m must be an integer, got 2.0"),
    (lambda: estimate_sigma_m("greenwood", 2, 1e4, 0),
     "window_draws must be an integer, got 10000.0"),
    (lambda: clt_condition_ratio("greenwood", 100.5, 2, 3.0, 10_000, 0),
     "n must be an integer, got 100.5"),
    (lambda: clt_condition_ratio("greenwood", 100, 2, 3.0, 10_000, math.nan),
     "seed must be an integer, got nan"),
    (lambda: stream_window_values("greenwood", 2.0, 10_000, 0), "m must be an integer, got 2.0"),
    (lambda: stream_window_values("greenwood", 2, 10_000.0, 0),
     "draws must be an integer, got 10000.0"),
    (lambda: stream_window_values("greenwood", 2, 10_000, 0.5), "seed must be an integer, got 0.5"),
    (lambda: estimate_general_moments(square_family(50), 50, 1, 100.0, 0),
     "replications must be an integer, got 100.0"),
    (lambda: estimate_general_moments(square_family(50), 50.0, 1, 100, 0),
     "n must be an integer, got 50.0"),
], ids=["digamma_int", "hurwitz_zeta2", "mu_n", "moments-m", "moments-n", "moments-nan",
        "exact_mean_correction", "large_m", "mean_correction-m", "mean_correction-draws",
        "mean_correction-seed", "mean_correction-stream_id", "holst_comparison-m",
        "holst_vs_corrected-draws", "sigma-m", "sigma-window_draws", "clt-n", "clt-seed",
        "window_values-m", "window_values-draws", "window_values-seed",
        "general-replications", "general-n"])
def test_non_integer_order_or_size_is_refused(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_numpy_integer_orders_and_sizes_are_accepted():
    assert digamma_int(np.int64(70)) == digamma_int(70)
    assert hurwitz_zeta2(np.int32(3)) == hurwitz_zeta2(3)
    assert mu_n(np.uint16(10)) == mu_n(10)
    # n m (m+1)(2m+1) overflows int64 here; the closed forms take n and m as
    # Python integers, so greenwood's variance is still exact
    n, m = 10**7 + 3, 10**4
    assert closed_form_moments("greenwood", np.int64(n), np.int64(m)) == \
        closed_form_moments("greenwood", n, m)
    assert exact_mean_correction("moran", np.int64(n), np.int8(3)) == \
        exact_mean_correction("moran", n, 3)
    i64, u64 = np.int64, np.uint64
    assert mean_correction("moran", i64(2), i64(10_000), u64(3), stream_id=i64(1)) == \
        mean_correction("moran", 2, 10_000, 3, stream_id=1)
    assert holst_comparison("greenwood", np.int32(2), i64(10_000), u64(2**64 - 1)) == \
        holst_comparison("greenwood", 2, 10_000, 2**64 - 1)
    assert estimate_sigma_m("entropy", np.int8(3), u64(10_000), i64(5)) == \
        estimate_sigma_m("entropy", 3, 10_000, 5)
    assert clt_condition_ratio("greenwood", i64(100), i64(2), 3.0, i64(10_000), i64(4)) == \
        clt_condition_ratio("greenwood", 100, 2, 3.0, 10_000, 4)
    general = estimate_general_moments(square_family(50), i64(50), i64(1), i64(100), u64(6))
    assert general == estimate_general_moments(square_family(50), 50, 1, 100, 6)
    assert type(general.seed) is int


class TestMeanCorrection:
    def test_greenwood_order_one(self):
        est = mean_correction("greenwood", 1, draws=100_000, seed=7)
        assert est.std_error > 0.0
        assert abs(est.value - (-4.0)) <= 3 * est.std_error

    def test_moran_order_one(self):
        est = mean_correction("moran", 1, draws=100_000, seed=7)
        assert abs(est.value - 0.0) <= 3 * est.std_error

    def test_greenwood_order_two(self):
        # hand value of half the covariance: (12 - 36) / 2 = -12
        est = mean_correction("greenwood", 2, draws=100_000, seed=7)
        assert abs(est.value - (-12.0)) <= 3 * est.std_error

    def test_constant_function_gives_exact_zero(self):
        const = custom_sum(lambda t: np.full_like(t, 2.5), name="const")
        est = mean_correction(const, 1, draws=10_000, seed=0)
        assert est == type(est)(0.0, 0.0)

    def test_kind_and_tuple_function_agree(self):
        by_kind = mean_correction("greenwood", 2, draws=20_000, seed=5)
        by_fn = mean_correction(GREENWOOD.as_tuple_function(2), 2, draws=20_000, seed=5)
        assert by_kind == by_fn

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            mean_correction("greenwood", 1, draws=9_999, seed=0)

    def test_non_finite_rejected(self):
        bad = custom_sum(lambda t: np.log(t - 50.0), name="shifted-log")
        with pytest.raises(NonFiniteSample):
            mean_correction(bad, 1, draws=10_000, seed=0)

    def test_non_finite_names_the_window(self):
        # the first window whose total is below 1 gives log 0
        x = SeededStream(4).exponentials(10_000 * 2).reshape(-1, 2)
        first = int(np.flatnonzero(x.sum(axis=1) < 1.0)[0])
        bad = custom_sum(lambda t: np.log(np.floor(t)), name="log-floor")
        with pytest.raises(NonFiniteSample, match=f"statistic value at window {first} is"):
            mean_correction(bad, 2, draws=10_000, seed=4)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", ["greenwood", "moran", "entropy", "cube"])
    def test_kind_equals_numpy_row_sums(self, kind, m):
        kind = custom_sum(lambda t: t ** 3, name="cube") if kind == "cube" else kind
        draws = 10_000 + 37 * m
        got = mean_correction(kind, m, draws, seed=m, stream_id=3)
        expected = _summed_mean_correction(resolve_kind(kind), m, draws, m, 3)
        assert (got.value.hex(), got.std_error.hex()) == (
            expected.value.hex(), expected.std_error.hex())

    @pytest.mark.parametrize("draws", [10_000, 10_007, 50_000])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("h", ["greenwood", "moran", "entropy", "ends"])
    def test_batch_covariances_equal_one_call_per_batch(self, h, m, draws):
        if h == "ends":
            h = TupleFunction(lambda w: w[:, 0] * (w[:, -1] - 1.0), arity=m,
                              vectorized=True, name="ends")
        got = mean_correction(h, m, draws, seed=20 + m)
        expected = _looped_mean_correction(h, m, draws, seed=20 + m)
        assert (got.value.hex(), got.std_error.hex()) == (
            expected.value.hex(), expected.std_error.hex())

    def test_tuple_function_arity_checked(self):
        with pytest.raises(ValueError, match="arity 2, expected 3"):
            mean_correction(GREENWOOD.as_tuple_function(2), 3, draws=10_000, seed=0)


def _summed_mean_correction(kind, m, draws, seed, stream_id):
    """mean_correction of a kind on numpy's row sums, taken once for the
    kind and once for the window total."""
    x = SeededStream(seed, stream_id).exponentials(draws * m).reshape(draws, m)
    hv = kind.sum_fn(x.sum(axis=1))
    dev = x.sum(axis=1) - m
    target = dev - dev * dev

    def half_cov(a, b):
        return 0.5 * float(np.mean((a - a.mean()) * (b - b.mean())))

    size = draws // DEFAULT_BATCHES
    batches = [half_cov(hv[i * size : (i + 1) * size], target[i * size : (i + 1) * size])
               for i in range(DEFAULT_BATCHES)]
    return Estimate(half_cov(hv, target), batch_std_error(batches))


def _looped_mean_correction(h, m, draws, seed):
    """mean_correction with one covariance call for all draws and one for
    each batch of draws // DEFAULT_BATCHES."""
    x = SeededStream(seed, 0).exponentials(draws * m).reshape(draws, m)
    totals = window_sums(x, m).reshape(-1)
    if isinstance(h, TupleFunction):
        hv = h.evaluate(x)
    else:
        hv = np.asarray(resolve_kind(h).sum_fn(totals), dtype=np.float64)
    dev = totals - m
    target = dev - dev * dev

    def mean_cov(a, b):
        return float(np.mean((a - a.mean()) * (b - b.mean())))

    size = draws // DEFAULT_BATCHES
    batches = [0.5 * mean_cov(hv[i * size : (i + 1) * size], target[i * size : (i + 1) * size])
               for i in range(DEFAULT_BATCHES)]
    return Estimate(0.5 * mean_cov(hv, target), batch_std_error(batches))


class TestHolstVsCorrected:
    def test_order_one_coincide(self):
        for kind in ("greenwood", "entropy"):
            holst, corrected = holst_vs_corrected(kind, 1, draws=20_000, seed=7)
            assert holst == corrected

    def test_greenwood_order_two(self):
        holst, corrected = holst_vs_corrected("greenwood", 2, draws=200_000, seed=7)
        assert abs(corrected.value - 20.0) <= 3 * corrected.std_error
        assert holst.std_error > 0.0

    @pytest.mark.parametrize("fn", [lambda t: np.full_like(t, 2.5), lambda t: 2.5])
    def test_constant_function(self, fn):
        # a scalar value stands for every window
        const = custom_sum(fn, name="const")
        holst, corrected = holst_vs_corrected(const, 2, draws=10_000, seed=0)
        assert (holst.value, corrected.value) == (0.0, 0.0)

    def test_draw_floor(self):
        with pytest.raises(ValueError):
            holst_vs_corrected("greenwood", 2, draws=100, seed=0)

    def test_comparison_draw_floor(self):
        with pytest.raises(ValueError, match="draws must be >= 10000"):
            holst_comparison("greenwood", 2, draws=9_999, seed=0)

    @pytest.mark.parametrize("m", [1, 3])
    def test_comparison_adds_the_difference(self, m):
        holst, corrected, difference = holst_comparison("moran", m, draws=20_000, seed=5)
        assert (holst, corrected) == holst_vs_corrected("moran", m, draws=20_000, seed=5)
        assert difference.value == holst.value - corrected.value
        assert difference.std_error >= 0.0


# every stream estimator, called with order m and otherwise valid arguments
STREAM_ESTIMATORS = {
    "mean_correction": lambda m: mean_correction("greenwood", m, 10_000, 0),
    "stream_window_values": lambda m: stream_window_values("greenwood", m, 10_000, 0),
    "holst_comparison": lambda m: holst_comparison("greenwood", m, 10_000, 0),
    "holst_vs_corrected": lambda m: holst_vs_corrected("greenwood", m, 10_000, 0),
    "estimate_sigma_m": lambda m: estimate_sigma_m("greenwood", m, 10_000, 0),
    "clt_condition_ratio": lambda m: clt_condition_ratio("greenwood", 100, m, 3.0, 10_000, 0),
}


@pytest.mark.parametrize("m", [0, -2])
@pytest.mark.parametrize("name", sorted(STREAM_ESTIMATORS))
def test_stream_estimators_reject_order_below_one(name, m):
    with pytest.raises(ValueError, match=f"^order must be >= 1, got {m}$"):
        STREAM_ESTIMATORS[name](m)


@pytest.mark.parametrize("draws", [0, -3])
def test_stream_window_values_rejects_draws_below_one(draws):
    with pytest.raises(ValueError, match=f"^draws must be >= 1, got {draws}$"):
        stream_window_values("greenwood", 2, draws, 0)


@pytest.mark.parametrize("m", [1, 2, 5, 70])
@pytest.mark.parametrize("kind", ["greenwood", "moran", "entropy"])
def test_stream_estimators_hold_at_most_one_and_a_half_streams(kind, m):
    # a stream estimator keeps one stream-length array, the draws; the
    # window totals and values are rebuilt per block, and the batches take
    # their sums in one buffer of a batch's windows
    draws = 1_000_000
    stream = 8 * (draws + 2 * m)
    calls = {
        "clt_condition_ratio": lambda: clt_condition_ratio(kind, 5000, m, 3.0, draws, 1),
        "estimate_sigma_m": lambda: estimate_sigma_m(kind, m, draws, 1),
        "holst_vs_corrected": lambda: holst_vs_corrected(kind, m, draws, 1),
    }
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * stream, f"{name}: traced peak {peak / stream:.2f} stream-lengths"


def _pipeline_estimates(h, m, draws, seed, r):
    """The stream estimators assembled from ``stream_window_values`` and the
    public lag functions on its full-length arrays: (sigma, holst, corrected,
    difference, clt ratio at n = 5000 and moment order r)."""
    x, hv, w = stream_window_values(h, m, draws, seed)
    full = lagcov.components(hv, w, m)
    batch = lagcov.batched_components(hv, w, m)
    holst = Estimate(full.holst, batch_std_error([c.holst for c in batch]))
    corrected = Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))
    difference = Estimate(full.holst - full.corrected,
                          batch_std_error([c.holst - c.corrected for c in batch]))
    moment = lagcov.projection_moment(hv, x, full.mean_h, full.b, m, r)
    n = 5000
    ratio = (m ** (r - 1.0)) * moment / (n ** ((r - 2.0) / 2.0) * full.corrected ** (r / 2.0))
    return corrected, holst, corrected, difference, ratio


def _estimate_hexes(values) -> list[str]:
    out = []
    for v in values:
        out += [v.value.hex(), v.std_error.hex()] if isinstance(v, Estimate) else [v.hex()]
    return out


def _ends(m):
    return TupleFunction(lambda rows: rows[:, 0] * rows[:, -1] + np.sqrt(rows.max(axis=1)),
                         arity=m, vectorized=True, name="ends")


class TestStreamEstimatorsEqualTheFullLengthPipeline:
    # the blocked front pass and the lag sums each estimator takes give the
    # same bits as the full-length arrays through the public lag functions,
    # for a custom kind and a tuple function, on every window-total path
    # (view of the draws, shifted adds, sliding_window_view sums, cumulative
    # sums), in one block and over many.  Blocks of 128 positions, the fewest
    # _pairwise_sum allows, put block seams inside every batch segment, and
    # at m = 70 each block of the lag pass reads 197 windows, so the next
    # block, with the running sum it carries, starts inside it
    @pytest.mark.parametrize("block", [128, 1024, None])
    @pytest.mark.parametrize("m", [1, 3, 8, 70])
    @pytest.mark.parametrize("h", ["custom", "tuple"])
    def test_float_hex_equal(self, monkeypatch, h, m, block):
        if block is not None:
            monkeypatch.setattr(lagcov, "_LAG_BLOCK", block)
        fn = (custom_sum(lambda t: np.sqrt(t) * np.sin(t), name="sqrt-sin") if h == "custom"
              else _ends(m))
        draws, seed, r = 10_007, 29, 2.75
        got = (estimate_sigma_m(fn, m, draws, seed),
               *holst_comparison(fn, m, draws, seed),
               clt_condition_ratio(fn, 5000, m, r, draws, seed))
        assert _estimate_hexes(got) == _estimate_hexes(_pipeline_estimates(fn, m, draws, seed, r))

    @pytest.mark.parametrize("m", [1, 3, 70])
    def test_non_finite_value_in_a_later_block_names_its_window(self, monkeypatch, m):
        monkeypatch.setattr(lagcov, "_LAG_BLOCK", 128)
        # not finite above the largest of the first 300 window totals
        cap = stream_window_values("greenwood", m, 20_000, 3)[2][:300].max()
        capped = custom_sum(lambda t: np.where(t > cap, np.nan, t), name="capped")
        with pytest.raises(NonFiniteSample) as expected:
            stream_window_values(capped, m, 20_000, 3)
        window = int(re.search(r"window (\d+) ", str(expected.value)).group(1))
        assert window > 300
        for call in (lambda: estimate_sigma_m(capped, m, 20_000, 3),
                     lambda: holst_comparison(capped, m, 20_000, 3),
                     lambda: clt_condition_ratio(capped, 5000, m, 3.0, 20_000, 3)):
            with pytest.raises(NonFiniteSample, match=f"^{re.escape(str(expected.value))}$"):
                call()


class TestEstimateGeneralMoments:
    def test_identity_family_degenerates(self):
        # h = x makes the centered statistic constant, so sigma2 -> 0
        gm = estimate_general_moments(identity_family(256), 256, 1,
                                      replications=2000, seed=42)
        assert gm.B == gm.C
        assert abs(gm.sigma2) <= 3 * max(gm.se_sigma2, 1e-12)

    def test_alternating_family_targets(self):
        gm = estimate_general_moments(alternating_family(100), 100, 1,
                                      replications=1000, seed=11)
        assert abs(gm.A - 100.0) <= 3 * gm.se_A  # 50 windows with mean 2
        assert abs(gm.B - 2.0) <= 3 * gm.se_B
        assert abs(gm.C - 10.0) <= 3 * gm.se_C
        assert abs(gm.sigma2 / 100.0 - 6.0) <= 3 * gm.se_sigma2 / 100.0

    def test_affine_scaling_is_exact(self):
        base = estimate_general_moments(square_family(50), 50, 1,
                                        replications=200, seed=3)
        doubled = estimate_general_moments(square_family(50, scale=2.0), 50, 1,
                                           replications=200, seed=3)
        assert doubled.B == 2.0 * base.B
        assert doubled.sigma2 == 4.0 * base.sigma2

    def test_metadata(self):
        gm = estimate_general_moments(square_family(50), 50, 1,
                                      replications=100, seed=9)
        assert (gm.n, gm.m, gm.replications, gm.seed) == (50, 1, 100, 9)

    def test_validation(self):
        fam = square_family(50)
        with pytest.raises(FamilyLengthMismatch):
            estimate_general_moments(fam, 60, 1, replications=100, seed=0)
        with pytest.raises(ValueError):
            estimate_general_moments(fam, 50, 2, replications=100, seed=0)
        with pytest.raises(ValueError):
            estimate_general_moments(fam, 50, 1, replications=99, seed=0)

    def test_clamp_to_asymptotic_moments(self):
        gm = GeneralMoments(A=5.0, B=1.0, C=1.0, sigma2=-0.5,
                            se_A=0.1, se_B=0.1, se_C=0.1, se_sigma2=0.4,
                            n=10, m=1, replications=100, seed=0)
        mom = gm.as_asymptotic_moments()
        assert mom.variance == 0.0
        assert mom.mean == 5.0
        ok = GeneralMoments(A=5.0, B=1.0, C=1.0, sigma2=3.0,
                            se_A=0.1, se_B=0.1, se_C=0.1, se_sigma2=0.4,
                            n=10, m=1, replications=100, seed=0)
        assert ok.as_asymptotic_moments().variance == 3.0
        assert ok.as_asymptotic_moments().per_term_variance == pytest.approx(0.3)


def _looped_general_moments(family, n, m, replications, seed):
    """estimate_general_moments as a plain loop over single replications."""
    batches = DEFAULT_BATCHES
    size = replications // batches
    sizes = [size + 1 if b < replications - batches * size else size for b in range(batches)]
    sum_h = np.zeros((batches, n))
    sum_w = np.zeros((batches, n))
    sum_hw = np.zeros((batches, n))
    sum_hh = np.zeros((batches, m, n))
    rep = 0
    for b, count in enumerate(sizes):
        for _ in range(count):
            x = SeededStream(seed, rep).exponentials(n)
            windows = sliding_window_view(np.concatenate([x, x[: m - 1]]), m)
            hv = family.evaluate_all(windows)
            w = windows.sum(axis=1)
            sum_h[b] += hv
            sum_w[b] += w
            sum_hw[b] += hv * w
            for d in range(m):
                sum_hh[b, d] += hv * np.roll(hv, -d)
            rep += 1

    def assemble(sh, sw, shw, shh, count):
        mh = sh / count
        mw = sw / count
        a_val = float(np.sum(mh))
        b_val = float(np.mean(shw / count - mh * mw))
        c_total = 0.0
        for d in range(m):
            total = float(np.sum(shh[d] / count - mh * np.roll(mh, -d)))
            c_total += total if d == 0 else 2.0 * total
        c_val = c_total / n
        return a_val, b_val, c_val, n * (c_val - b_val * b_val)

    full = assemble(sum_h.sum(axis=0), sum_w.sum(axis=0), sum_hw.sum(axis=0),
                    sum_hh.sum(axis=0), replications)
    per_batch = [assemble(sum_h[b], sum_w[b], sum_hw[b], sum_hh[b], sizes[b])
                 for b in range(batches)]
    ses = [batch_std_error([pb[i] for pb in per_batch]) for i in range(4)]
    return GeneralMoments(*full, *ses, n=n, m=m, replications=replications, seed=seed)


def _hex(moments):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(moments)]


def mixed_family(n, m):
    """Vectorized and non-vectorized members, with distinct values at every
    lag so that each accumulator is exercised."""
    spread = TupleFunction(lambda *w: max(w) - 0.5 * min(w) + w[0] * w[-1], arity=m,
                           name="spread")
    log_total = TupleFunction(lambda rows: np.log1p(rows.sum(axis=1)) * rows[:, 0], arity=m,
                              vectorized=True, name="log-total")
    square = TupleFunction(lambda rows: np.square(rows.sum(axis=1)), arity=m,
                           vectorized=True, name="square-total")
    members = (spread, log_total, square)
    return TupleFunctionFamily(tuple(members[(k * k + k // 2) % 3] for k in range(n)))


class TestChunkedGeneralMoments:
    @pytest.mark.parametrize("n, m, replications", [
        (40, 1, 101), (30, 2, 130), (24, 3, 100), (16, 5, 107),
    ])
    def test_equals_loop_of_single_replications(self, n, m, replications):
        family = mixed_family(n, m)
        looped = _hex(_looped_general_moments(family, n, m, replications, 13))
        assert _hex(estimate_general_moments(family, n, m, replications, 13)) == looped

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_independent_of_chunk_size(self, monkeypatch, m):
        n, replications = 20, 103
        width = n + m - 1
        family = mixed_family(n, m)
        looped = _hex(_looped_general_moments(family, n, m, replications, 4))
        # one row per chunk, chunks smaller and larger than a batch of 3 or 4
        # replications, one chunk for all of them
        for values in (1, width, 2 * width, 7 * width + 1, 50 * width, 1 << 20):
            monkeypatch.setattr(asymptotics, "CHUNK_VALUES", values)
            assert _hex(estimate_general_moments(family, n, m, replications, 4)) == looped

    @pytest.mark.parametrize("values", [1 << 16, 97])
    def test_back_to_back_calls_equal_loop(self, monkeypatch, values):
        # each call sizes its own workspace for its n, m and chunk rows
        monkeypatch.setattr(asymptotics, "CHUNK_VALUES", values)
        for n, m, replications, seed in ((40, 1, 101, 1), (16, 5, 107, 2), (30, 2, 100, 3),
                                         (24, 3, 130, 4), (40, 1, 101, 5)):
            family = mixed_family(n, m)
            looped = _hex(_looped_general_moments(family, n, m, replications, seed))
            assert _hex(estimate_general_moments(family, n, m, replications, seed)) == looped

    def test_vectorized_family_equals_loop(self):
        family = alternating_family(64)
        looped = _hex(_looped_general_moments(family, 64, 1, 300, 8))
        assert _hex(estimate_general_moments(family, 64, 1, 300, 8)) == looped

    @pytest.mark.parametrize("values", [60, 1 << 16])
    def test_non_finite_names_first_replication(self, monkeypatch, values):
        n, late = 30, 47
        bad_at = {late: 6, late + 1: 2, late + 20: 0}

        class Streams(SeededStream):
            def uniforms(self, count, out=None):
                u = super().uniforms(count, out=out)
                if self.stream_id in bad_at:
                    u[bad_at[self.stream_id]] = np.nan
                return u

        monkeypatch.setattr(asymptotics, "SeededStream", Streams)
        monkeypatch.setattr(asymptotics, "CHUNK_VALUES", values)
        root = TupleFunction(lambda rows: np.sqrt(rows.sum(axis=1)), arity=2,
                             vectorized=True, name="root")
        family = TupleFunctionFamily.constant(root, n)
        with pytest.raises(NonFiniteSample, match=f"replication {late} at window 5 "):
            estimate_general_moments(family, n, 2, 100, 3)


class TestCltConditionRatio:
    def test_constant_function_is_zero(self):
        const = custom_sum(lambda t: np.full_like(t, 2.5), name="const")
        assert clt_condition_ratio(const, 100, 1, 4.0, draws=10_000, seed=0) == 0.0

    def test_exact_scaling_in_n(self):
        # with r = 4 the ratio scales as 1/n; powers of two divide exactly
        small = clt_condition_ratio("greenwood", 100, 1, 4.0, draws=50_000, seed=1)
        large = clt_condition_ratio("greenwood", 400, 1, 4.0, draws=50_000, seed=1)
        assert large == small / 4.0

    def test_degenerate_variance_gives_inf(self):
        # h = w at m = 1 has corrected variance var - var^2, which MC noise
        # can push below zero; this seed does
        ident = custom_sum(lambda t: t, name="identity")
        value = clt_condition_ratio(ident, 100, 1, 4.0, draws=10_000, seed=3)
        assert math.isinf(value)

    def test_greenwood_magnitude(self):
        # fourth-moment target is 4752 / (100 * 16) = 2.97; the estimator is
        # heavy-tailed, so only the order of magnitude is pinned down
        value = clt_condition_ratio("greenwood", 100, 1, 4.0, draws=1_000_000, seed=42)
        assert 2.97 / 2.5 < value < 2.97 * 2.5
        again = clt_condition_ratio("greenwood", 100, 1, 4.0, draws=1_000_000, seed=42)
        assert again == value

    @pytest.mark.parametrize("n, m, r, message", [
        (-5, 1, 4.0, "need n > m, got n=-5, m=1"),
        (0, 1, 4.0, "need n > m, got n=0, m=1"),
        (1, 3, 4.0, "need n > m, got n=1, m=3"),
        (3, 3, 4.0, "need n > m, got n=3, m=3"),
        (100, 1, math.nan, "the moment order must be finite and exceed 2, got nan"),
        (100, 1, math.inf, "the moment order must be finite and exceed 2, got inf"),
    ])
    def test_rejects_bad_sample_size_and_moment_order(self, n, m, r, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            clt_condition_ratio("greenwood", n, m, r, draws=10_000, seed=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            clt_condition_ratio("greenwood", 100, 1, 2.0, draws=10_000, seed=0)
        with pytest.raises(ValueError):
            clt_condition_ratio("greenwood", 100, 1, 4.0, draws=100, seed=0)
