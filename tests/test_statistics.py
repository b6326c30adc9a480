"""Statistic family evaluation on the hand-computed sample (0, 0.2, 0.5, 0.9)
and structural properties on random samples."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings import (
    DomainViolation,
    ENTROPY,
    FamilyLengthMismatch,
    GREENWOOD,
    MORAN,
    OrderTooLarge,
    TupleFunction,
    TupleFunctionFamily,
    UnsupportedKind,
    ZeroSpacing,
    custom_sum,
    from_unit_observations,
    resolve_kind,
    statistic_Q,
    statistic_R,
    statistic_V,
    statistic_W,
    statistic_Z,
)
from mspacings.spacings import SpacingScheme, anchored_points, m_spacings, scaled_values
from mspacings.statistics import evaluate, evaluate_rows

EPS = float(np.finfo(np.float64).eps)

unit_obs = st.lists(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
              allow_nan=False, width=64),
    min_size=1, max_size=48,
)


@pytest.fixture
def sample():
    return from_unit_observations([0.2, 0.9, 0.5])


def square_tuple(m: int) -> TupleFunction:
    return TupleFunction(lambda w: np.square(w.sum(axis=1)), arity=m,
                         vectorized=True, name="window-square")


class TestResolveKind:
    def test_names(self):
        assert resolve_kind("greenwood") is GREENWOOD
        assert resolve_kind("MORAN") is MORAN
        assert resolve_kind(ENTROPY) is ENTROPY

    def test_unknown(self):
        with pytest.raises(UnsupportedKind):
            resolve_kind("kolmogorov")

    def test_closed_form_flags(self):
        assert GREENWOOD.has_closed_form
        assert not custom_sum(np.square).has_closed_form


class TestZ:
    def test_square_m1(self, sample):
        r = statistic_Z(sample, 1, GREENWOOD.as_tuple_function(1))
        assert r.value == pytest.approx(4.8, rel=1e-12)
        assert (r.n, r.m, r.variant, r.summand_count) == (4, 1, "Z", 4)

    def test_pair_sum_square(self, sample):
        h = TupleFunction(lambda u, v: (u + v) ** 2, arity=2, name="pair")
        r = statistic_Z(sample, 2, h)
        assert r.value == pytest.approx(17.28, rel=1e-12)

    def test_coordinate_sum_is_nm(self):
        for m in (1, 2, 3):
            h = TupleFunction(lambda w: w.sum(axis=1), arity=m,
                              vectorized=True, name="coordinate-sum")
            s = from_unit_observations([0.13, 0.47, 0.81, 0.62, 0.29])
            r = statistic_Z(s, m, h)
            assert r.value == pytest.approx(6 * m, rel=1e-12)

    def test_arity_mismatch(self, sample):
        with pytest.raises(ValueError):
            statistic_Z(sample, 2, square_tuple(3))

    def test_order_too_large(self, sample):
        with pytest.raises(OrderTooLarge):
            statistic_Z(sample, 4, square_tuple(4))

    def test_domain_violation_reports_window(self, sample):
        h = TupleFunction(lambda w: np.log(w.sum(axis=1) - 1.5), arity=1,
                          vectorized=True, name="shifted-log")
        with pytest.raises(DomainViolation) as err:
            statistic_Z(sample, 1, h)
        # first scaled spacing below 1.5 sits at window 0 (value 0.8)
        assert err.value.index == 0


class TestV:
    def test_greenwood_matches_z(self, sample):
        assert statistic_V(sample, 1, "greenwood").value == pytest.approx(4.8, rel=1e-12)

    def test_moran(self, sample):
        r = statistic_V(sample, 1, "moran")
        assert r.value == pytest.approx(-0.48710909714867445, rel=1e-12)

    def test_entropy(self, sample):
        r = statistic_V(sample, 1, "entropy")
        assert r.value == pytest.approx(0.4257605411448928, rel=1e-12)

    def test_moran_rejects_tie(self):
        s = from_unit_observations([0.3, 0.3, 0.7])
        with pytest.raises(ZeroSpacing) as err:
            statistic_V(s, 1, "moran")
        assert err.value.index == 1

    def test_entropy_zero_convention(self):
        # scaled arcs are 1.2, 0.0, 1.6, 1.2; the zero contributes 0
        s = from_unit_observations([0.3, 0.3, 0.7])
        r = statistic_V(s, 1, "entropy")
        expected = math.fsum(v * math.log(v) for v in (1.2, 1.6, 1.2))
        assert r.value == pytest.approx(expected, rel=1e-12)

    def test_custom_sum_kind(self, sample):
        r = statistic_V(sample, 2, custom_sum(lambda x: x + 1.0, name="shift"))
        assert r.value == pytest.approx(2.0 + 2.8 + 2.0 + 1.2 + 4.0, rel=1e-12)


class TestW:
    def test_drops_wrap_windows(self, sample):
        r = statistic_W(sample, 1, "greenwood")
        assert r.value == pytest.approx(4.64, rel=1e-12)
        assert r.summand_count == 3

    def test_single_term_at_max_order(self, sample):
        r = statistic_W(sample, 3, "greenwood")
        assert r.summand_count == 1
        assert r.value == pytest.approx((4 * 0.9) ** 2, rel=1e-12)

    def test_below_v_for_nonnegative_h(self, sample):
        v = statistic_V(sample, 2, "greenwood").value
        w = statistic_W(sample, 2, "greenwood").value
        assert w <= v


class TestQ:
    def test_hand_example(self, sample):
        r = statistic_Q(sample, 2, "greenwood")
        assert r.value == pytest.approx(8.0, rel=1e-12)
        assert r.summand_count == 2

    def test_order_one_equals_v_bitwise(self, sample):
        for kind in ("greenwood", "moran", "entropy"):
            assert statistic_Q(sample, 1, kind).value == statistic_V(sample, 1, kind).value

    def test_constant_kind_counts_blocks(self):
        s = from_unit_observations([0.1, 0.25, 0.5, 0.6, 0.7, 0.85, 0.9])  # n = 8
        const = custom_sum(lambda x: np.full_like(np.asarray(x, dtype=np.float64), 2.5),
                           name="const")
        assert statistic_Q(s, 3, const).value == pytest.approx(2.5 * 2, rel=1e-15)


class TestR:
    def test_alternating_family(self, sample):
        sq = TupleFunction(lambda w: np.square(w[:, 0]), arity=1,
                           vectorized=True, name="square")
        zero = TupleFunction(lambda w: np.zeros(w.shape[0]), arity=1,
                             vectorized=True, name="zero")
        fam = TupleFunctionFamily((sq, zero, sq, zero))
        r = statistic_R(sample, 1, fam)
        assert r.value == pytest.approx(0.8**2 + 1.6**2, rel=1e-12)

    def test_uniform_family_equals_z(self, sample):
        h = square_tuple(2)
        fam = TupleFunctionFamily((h, h, h, h))
        assert statistic_R(sample, 2, fam).value == statistic_Z(sample, 2, h).value

    def test_zero_tail_realizes_line_version(self, sample):
        # zeroing the last m - 1 members removes exactly the wrap windows
        m = 2
        h = square_tuple(m)
        zero = TupleFunction(lambda w: np.zeros(w.shape[0]), arity=m,
                             vectorized=True, name="zero")
        fam = TupleFunctionFamily((h, h, h, zero))
        expected = math.fsum(t * t for t in (2.0, 2.8, 2.0))
        assert statistic_R(sample, m, fam).value == pytest.approx(expected, rel=1e-12)

    def test_length_mismatch(self, sample):
        h = square_tuple(1)
        with pytest.raises(FamilyLengthMismatch):
            statistic_R(sample, 1, TupleFunctionFamily((h, h)))


def test_greenwood_recentering_identity():
    rng = np.random.default_rng(2024)
    for trial in range(20):
        count = int(rng.integers(2, 60))
        m = int(rng.integers(1, count + 1))
        sample = from_unit_observations(rng.random(count))
        n = sample.arc_count
        lhs = statistic_V(sample, m, "greenwood").value - n * m * (m + 1)
        shifted = custom_sum(lambda x, _m=m: np.square(x - _m), name="shifted-square")
        rhs = statistic_V(sample, m, shifted).value - n * m
        assert abs(lhs - rhs) <= 8 * n * max(1.0, m * m) * EPS


@given(unit_obs)
def test_order_one_statistics_coincide(values):
    sample = from_unit_observations(values)
    v = statistic_V(sample, 1, "greenwood")
    z = statistic_Z(sample, 1, GREENWOOD.as_tuple_function(1))
    q = statistic_Q(sample, 1, "greenwood")
    assert v.value == z.value == q.value


@given(unit_obs)
def test_linear_tuple_function_is_deterministic(values):
    sample = from_unit_observations(values)
    n = sample.arc_count
    if n < 3:
        return
    h = TupleFunction(lambda w: 2.0 * w[:, 0] + 3.0 * w[:, 1], arity=2,
                      vectorized=True, name="linear")
    r = statistic_Z(sample, 2, h)
    assert r.value == pytest.approx(5.0 * n, rel=1e-9, abs=1e-9 * n)


def rotate_to(sample_points, j):
    """Re-anchor the circle at observation j; simple spacings shift cyclically."""
    pts = np.asarray(sample_points)
    shifted = np.mod(pts - pts[j], 1.0)
    obs = np.delete(shifted, j)
    return from_unit_observations(obs)


def test_cyclic_relabeling_invariance():
    rng = np.random.default_rng(7)
    base = from_unit_observations(rng.random(12))
    h = square_tuple(3)
    reference = statistic_Z(base, 3, h).value
    for j in range(1, base.arc_count):
        rotated = rotate_to(base.points, j)
        assert statistic_Z(rotated, 3, h).value == pytest.approx(reference, rel=1e-9)


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32))
def test_rows_equal_one_sample_evaluation(count, rows, seed):
    values = np.random.default_rng(seed).random((rows, count))
    points = anchored_points(values)
    n = count + 1
    m = 1 + seed % min(5, n - 1)
    fam = TupleFunctionFamily(tuple(square_tuple(m) if k % 2 else GREENWOOD.as_tuple_function(m)
                                    for k in range(n)))
    for variant, fn in (("v", "greenwood"), ("v", "moran"), ("w", "entropy"),
                        ("q", "moran"), ("z", "entropy"), ("z", square_tuple(m)), ("r", fam)):
        batched = evaluate_rows(points, m, fn, variant)
        for r in range(rows):
            one = evaluate(from_unit_observations(values[r]), m, fn, variant)
            assert batched[r].hex() == one.value.hex()


@given(unit_obs, st.integers(min_value=1, max_value=6))
def test_value_is_fsum_of_the_summands(values, m):
    sample = from_unit_observations(values)
    n = sample.arc_count
    if m >= n:
        return
    x = scaled_values(m_spacings(sample, SpacingScheme.overlapping(m)))
    assert statistic_V(sample, m, "greenwood").value == math.fsum(np.square(x))
    assert statistic_W(sample, m, "entropy").value == math.fsum(
        ENTROPY.sum_fn(x[: n - m]))
    x = scaled_values(m_spacings(sample, SpacingScheme.disjoint(m)))
    assert statistic_Q(sample, m, "greenwood").value == math.fsum(np.square(x))


def test_rows_report_error_of_first_failing_row():
    values = np.random.default_rng(4).random((4, 9))
    values[2, 5] = values[2, 3]
    values[3, 1] = values[3, 0]
    with pytest.raises(ZeroSpacing) as err:
        evaluate_rows(anchored_points(values), 1, "moran", "v")
    with pytest.raises(ZeroSpacing) as one_row:
        statistic_V(from_unit_observations(values[2]), 1, "moran")
    assert err.value.index == one_row.value.index
