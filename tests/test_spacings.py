"""Circular sample construction and the three spacing schemes."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings import (
    EmptyInput,
    OrderTooLarge,
    SpacingScheme,
    ValueOutOfRange,
    from_unit_observations,
    m_spacings,
    scaled_values,
)
from mspacings.spacings import anchored_points, spacing_rows

EPS = float(np.finfo(np.float64).eps)

unit_value = st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                       allow_nan=False, width=64)
unit_obs = st.lists(unit_value, min_size=1, max_size=64)


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
        sp = m_spacings(s, SpacingScheme.simple())
        assert sp.values == pytest.approx([0.2, 0.3, 0.4, 0.1], abs=4 * EPS)
        assert sp.m == 1 and sp.n == 4

    def test_overlapping_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = m_spacings(s, SpacingScheme.overlapping(2))
        assert sp.values == pytest.approx([0.5, 0.7, 0.5, 0.3], abs=4 * EPS)
        assert math.fsum(sp.values) == pytest.approx(2.0, abs=16 * EPS)

    def test_disjoint_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = m_spacings(s, SpacingScheme.disjoint(2))
        assert sp.values == pytest.approx([0.5, 0.5], abs=4 * EPS)
        assert len(sp.values) == 2

    def test_disjoint_drops_partial_block(self):
        s = from_unit_observations([0.1, 0.2, 0.3, 0.4])  # n = 5
        sp = m_spacings(s, SpacingScheme.disjoint(2))
        assert len(sp.values) == 2
        assert math.fsum(sp.values) < 1.0

    def test_order_too_large(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        for scheme in (SpacingScheme.overlapping(4), SpacingScheme.disjoint(5)):
            with pytest.raises(OrderTooLarge):
                m_spacings(s, scheme)

    def test_order_n_minus_one_is_fine(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        sp = m_spacings(s, SpacingScheme.overlapping(3))
        assert len(sp.values) == 4

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            SpacingScheme("weekly", 2)
        with pytest.raises(ValueError):
            SpacingScheme.overlapping(0)
        with pytest.raises(ValueError):
            SpacingScheme("simple", 3)


class TestScaledValues:
    def test_simple_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_values(m_spacings(s, SpacingScheme.simple()))
        assert out == pytest.approx([0.8, 1.2, 1.6, 0.4], abs=16 * EPS)

    def test_overlapping_hand_example(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_values(m_spacings(s, SpacingScheme.overlapping(2)))
        assert out == pytest.approx([2.0, 2.8, 2.0, 1.2], abs=16 * EPS)

    def test_uniform_grid_gives_ones(self):
        n = 8
        s = from_unit_observations([k / n for k in range(1, n)])
        out = scaled_values(m_spacings(s, SpacingScheme.simple()))
        assert np.array_equal(out, np.ones(n))

    def test_disjoint_uses_source_arc_count(self):
        s = from_unit_observations([0.2, 0.9, 0.5])
        out = scaled_values(m_spacings(s, SpacingScheme.disjoint(2)))
        assert out == pytest.approx([2.0, 2.0], abs=16 * EPS)


@given(unit_obs)
def test_simple_spacings_sum_to_one(values):
    sp = m_spacings(from_unit_observations(values), SpacingScheme.simple())
    n = sp.n
    assert len(sp.values) == n
    assert abs(math.fsum(sp.values) - 1.0) <= 4 * n * EPS
    assert (sp.values >= 0.0).all() and (sp.values <= 1.0).all()


@given(st.data())
def test_overlapping_spacings_sum_to_m(data):
    sample, m = sample_and_order(data.draw)
    sp = m_spacings(sample, SpacingScheme.overlapping(m))
    assert len(sp.values) == sample.arc_count
    assert abs(math.fsum(sp.values) - m) <= 4 * sample.arc_count * EPS


@given(unit_obs)
def test_overlapping_order_one_equals_simple(values):
    sample = from_unit_observations(values)
    simple = m_spacings(sample, SpacingScheme.simple())
    over = m_spacings(sample, SpacingScheme.overlapping(1))
    assert np.array_equal(simple.values, over.values)


@given(st.data())
def test_overlapping_window_matches_simple_sum(data):
    sample, m = sample_and_order(data.draw)
    simple = m_spacings(sample, SpacingScheme.simple()).values
    over = m_spacings(sample, SpacingScheme.overlapping(m)).values
    n = sample.arc_count
    ext = np.concatenate([simple, simple])
    for k in range(n):
        window = math.fsum(ext[k : k + m])
        assert abs(over[k] - window) <= 4 * (m + 1) * EPS


@given(st.data())
def test_disjoint_block_count_and_mass(data):
    sample, m = sample_and_order(data.draw)
    sp = m_spacings(sample, SpacingScheme.disjoint(m))
    n = sample.arc_count
    assert len(sp.values) == n // m
    total = math.fsum(sp.values)
    assert total <= 1.0 + 4 * n * EPS
    if n % m == 0:
        assert abs(total - 1.0) <= 4 * n * EPS


@given(st.data())
def test_spacings_are_pure_functions(data):
    sample, m = sample_and_order(data.draw)
    scheme = SpacingScheme.overlapping(m)
    first = m_spacings(sample, scheme).values
    second = m_spacings(sample, scheme).values
    assert np.array_equal(first, second)


def one_sample_spacings(points, scheme):
    """The spacing arithmetic written for one sample, as a reference."""
    m = scheme.m
    if scheme.mode == "simple":
        return np.diff(points, append=1.0)
    if scheme.mode == "overlapping":
        ext = np.concatenate([points, 1.0 + points[:m]])
        return ext[m:] - ext[:-m]
    ext = np.append(points, 1.0)
    return np.diff(ext[np.arange(points.size // m + 1) * m])


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
        for scheme in (SpacingScheme.simple(), SpacingScheme.overlapping(m),
                       SpacingScheme.disjoint(m)):
            expected = one_sample_spacings(sample.points, scheme)
            assert np.array_equal(spacing_rows(points, scheme)[r], expected)
            assert np.array_equal(m_spacings(sample, scheme).values, expected)


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
        spacing_rows(anchored_points(np.full((2, 3), 0.5)), SpacingScheme.disjoint(4))
