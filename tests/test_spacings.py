"""Circular sample construction and the overlapping and disjoint spacings."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings import (
    EmptyInput,
    OrderTooLarge,
    ValueOutOfRange,
    from_unit_observations,
)
from mspacings.spacings import anchored_points, spacing_rows

EPS = float(np.finfo(np.float64).eps)

unit_value = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False, width=64)
unit_obs = st.lists(unit_value, min_size=1, max_size=64)


def spacings_of(sample, m, disjoint=False):
    """Arc lengths of order m of one sample: a one-row spacing_rows."""
    return spacing_rows(sample.points.reshape(1, -1), m, disjoint)[0]


def scaled_of(sample, m, disjoint=False):
    """Arc lengths times the arc count n, the statistics' natural scale."""
    return sample.arc_count * spacings_of(sample, m, disjoint)


def sample_and_order(draw):
    values = draw(unit_obs)
    n = len(values) + 1
    m = draw(st.integers(min_value=1, max_value=n - 1))
    return from_unit_observations(values), m


class TestFromUnitObservations:
    def test_sorts_and_prepends_anchor(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        assert s.points.tolist() == [0.0, 0.2, 0.5, 0.9]
        assert s.arc_count == 4

    def test_single_observation(self):
        s = from_unit_observations([0.5])
        assert s.points.tolist() == [0.0, 0.5]
        assert s.arc_count == 2

    def test_one_is_excluded(self):
        with pytest.raises(ValueOutOfRange) as err:
            from_unit_observations([0.5, 1.0])
        assert err.value.index == 1
        assert err.value.value == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueOutOfRange):
            from_unit_observations([0.3, -0.01])

    def test_nan_rejected(self):
        with pytest.raises(ValueOutOfRange):
            from_unit_observations([0.3, math.nan])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            from_unit_observations([])

    def test_duplicates_retained(self):
        s = from_unit_observations([0.3, 0.3])
        assert s.points.tolist() == [0.0, 0.3, 0.3]
        assert s.arc_count == 3

    def test_zero_observation_allowed(self):
        # 0.0 is in [0, 1); it duplicates the anchor and yields a zero arc
        s = from_unit_observations([0.0, 0.4])
        assert s.points.tolist() == [0.0, 0.0, 0.4]


class TestSchemes:
    def test_simple_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = spacings_of(s, 1)
        assert sp == pytest.approx([0.2, 0.3, 0.4, 0.1], abs=4 * EPS)
        assert sp.shape == (s.arc_count,) == (4,)

    def test_overlapping_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = spacings_of(s, 2)
        assert sp == pytest.approx([0.5, 0.7, 0.5, 0.3], abs=4 * EPS)
        assert math.fsum(sp) == pytest.approx(2.0, abs=16 * EPS)

    def test_disjoint_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = spacings_of(s, 2, disjoint=True)
        assert sp == pytest.approx([0.5, 0.5], abs=4 * EPS)
        assert len(sp) == 2

    def test_disjoint_drops_partial_block(self):
        s = from_unit_observations([0.1, 0.2, 0.3, 0.4])  # n = 5
        sp = spacings_of(s, 2, disjoint=True)
        assert len(sp) == 2
        assert math.fsum(sp) < 1.0

    def test_order_too_large(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        for m, disjoint in ((4, False), (5, True)):
            with pytest.raises(OrderTooLarge):
                spacings_of(s, m, disjoint)

    def test_order_n_minus_one_is_fine(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = spacings_of(s, 3)
        assert len(sp) == 4

    def test_scheme_validation(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        for disjoint in (False, True):
            with pytest.raises(ValueError):
                spacings_of(s, 0, disjoint)


class TestScaledValues:
    def test_simple_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_of(s, 1)
        assert out == pytest.approx([0.8, 1.2, 1.6, 0.4], abs=16 * EPS)

    def test_overlapping_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_of(s, 2)
        assert out == pytest.approx([2.0, 2.8, 2.0, 1.2], abs=16 * EPS)

    def test_uniform_grid_gives_ones(self):
        n = 8
        s = from_unit_observations([k / n for k in range(1, n)])
        out = scaled_of(s, 1)
        assert np.array_equal(out, np.ones(n))

    def test_disjoint_uses_source_arc_count(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_of(s, 2, disjoint=True)
        assert out == pytest.approx([2.0, 2.0], abs=16 * EPS)


@given(unit_obs)
def test_simple_spacings_sum_to_one(values):
    sample = from_unit_observations(values)
    sp = spacings_of(sample, 1)
    n = sample.arc_count
    assert len(sp) == n
    assert abs(math.fsum(sp) - 1.0) <= 4 * n * EPS
    assert (sp >= 0.0).all() and (sp <= 1.0).all()


@given(st.data())
def test_overlapping_spacings_sum_to_m(data):
    sample, m = sample_and_order(data.draw)
    sp = spacings_of(sample, m)
    assert len(sp) == sample.arc_count
    assert abs(math.fsum(sp) - m) <= 4 * sample.arc_count * EPS


@given(unit_obs)
def test_overlapping_order_one_equals_simple(values):
    sample = from_unit_observations(values)
    simple = np.diff(sample.points, append=1.0)
    over = spacings_of(sample, 1)
    assert np.array_equal(simple, over)


@given(st.data())
def test_overlapping_window_matches_simple_sum(data):
    sample, m = sample_and_order(data.draw)
    simple = spacings_of(sample, 1)
    over = spacings_of(sample, m)
    n = sample.arc_count
    ext = np.concatenate([simple, simple])
    for k in range(n):
        window = math.fsum(ext[k : k + m])
        assert abs(over[k] - window) <= 4 * (m + 1) * EPS


@given(st.data())
def test_disjoint_block_count_and_mass(data):
    sample, m = sample_and_order(data.draw)
    sp = spacings_of(sample, m, disjoint=True)
    n = sample.arc_count
    assert len(sp) == n // m
    total = math.fsum(sp)
    assert total <= 1.0 + 4 * n * EPS
    if n % m == 0:
        assert abs(total - 1.0) <= 4 * n * EPS


@given(st.data())
def test_spacings_are_pure_functions(data):
    sample, m = sample_and_order(data.draw)
    first = spacings_of(sample, m)
    second = spacings_of(sample, m)
    assert np.array_equal(first, second)


def one_sample_spacings(points, m, disjoint=False):
    """The spacing arithmetic written for one sample, as a reference; the
    overlapping spacings of order 1 are the simple ones."""
    if disjoint:
        ext = np.append(points, 1.0)
        return np.diff(ext[np.arange(points.size // m + 1) * m])
    if m == 1:
        return np.diff(points, append=1.0)
    ext = np.concatenate([points, 1.0 + points[:m]])
    return ext[m:] - ext[:-m]


@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda k: st.lists(st.lists(unit_value, min_size=k, max_size=k),
                       min_size=1, max_size=5)),
    st.data())
def test_rows_match_one_sample_arithmetic(rows, data):
    points = anchored_points(np.array(rows))
    n = points.shape[1]
    m = data.draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    for r, values in enumerate(rows):
        sample = from_unit_observations(values)
        assert np.array_equal(points[r], sample.points)
        if m >= n:
            continue
        for order, disjoint in ((1, False), (m, False), (m, True)):
            expected = one_sample_spacings(sample.points, order, disjoint)
            assert np.array_equal(spacing_rows(points, order, disjoint)[r], expected)
            assert np.array_equal(spacings_of(sample, order, disjoint), expected)


def test_row_form_range_check_names_column():
    values = np.full((3, 4), 0.25)
    values[2, 1] = 1.0
    values[1, 3] = math.nan
    with pytest.raises(ValueOutOfRange) as err:
        anchored_points(values)
    # first bad entry in row-major order is row 1, column 3
    assert err.value.index == 3 and math.isnan(err.value.value)


def test_row_form_order_check():
    with pytest.raises(OrderTooLarge):
        spacing_rows(anchored_points(np.full((2, 3), 0.5)), 4, disjoint=True)
