"""The exact row sum behind every statistic: bit for bit equal to math.fsum
of each row, compared through float.hex so that signed zeros count."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings.statistics import exact_row_sums

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
subnormal = st.integers(min_value=-(2**52), max_value=2**52).map(
    lambda k: math.ldexp(float(k), -1074))
wide = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(min_value=1.0, max_value=9.999),
    st.integers(min_value=-300, max_value=300),
)
zeros = st.sampled_from((0.0, -0.0))


def assert_rows_match_fsum(matrix):
    matrix = np.asarray(matrix, dtype=np.float64).reshape(len(matrix), -1)
    got = exact_row_sums(matrix)
    assert got.shape == (matrix.shape[0],)
    for row, value in zip(matrix.tolist(), got.tolist()):
        assert value.hex() == math.fsum(row).hex(), row


def matrices(elements, max_rows=4, max_cols=40):
    """Rectangular lists of rows, every row drawn from ``elements``."""
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda cols: st.lists(st.lists(elements, min_size=cols, max_size=cols),
                              min_size=1, max_size=max_rows))


@given(matrices(finite))
def test_any_finite_rows(matrix):
    try:
        expected = [math.fsum(row) for row in matrix]
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_row_sums(np.array(matrix))
        return
    assert exact_row_sums(np.array(matrix)).tolist() == expected
    assert_rows_match_fsum(matrix)


@given(matrices(st.one_of(wide, subnormal, zeros)))
def test_mixed_signs_and_magnitudes(matrix):
    assert_rows_match_fsum(matrix)


@given(st.lists(st.tuples(wide, st.one_of(subnormal, wide)), min_size=1, max_size=30))
def test_heavy_cancellation(pairs):
    # [a, -a, tiny] patterns: everything large cancels exactly
    row = []
    for big, tiny in pairs:
        row += [big, tiny, -big]
    assert_rows_match_fsum([row, row[::-1]])


@given(matrices(subnormal))
def test_subnormal_rows(matrix):
    assert_rows_match_fsum(matrix)


@given(st.lists(st.floats(min_value=0.5, max_value=1.0), min_size=1, max_size=20),
       st.integers(min_value=1014, max_value=1023), st.data())
def test_near_the_overflow_fallback(fractions, exponent, data):
    # 2**(1023 - M) separates rows reduced by extraction from rows that go
    # to math.fsum directly; M is 5 or 6 for these row lengths
    signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)),
                               min_size=len(fractions), max_size=len(fractions)))
    row = [s * math.ldexp(f, exponent) for s, f in zip(signs, fractions)]
    small = [v / 2.0**20 for v in row]
    matrix = [row + [0.0] * (20 - len(row)), small + [1.0] * (20 - len(row))]
    try:
        expected = [math.fsum(r) for r in matrix]
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_row_sums(np.array(matrix))
        return
    assert [v.hex() for v in exact_row_sums(np.array(matrix)).tolist()] == \
        [v.hex() for v in expected]


@given(matrices(zeros))
def test_zero_rows(matrix):
    assert_rows_match_fsum(matrix)


@given(st.lists(st.one_of(finite, subnormal, zeros), min_size=1, max_size=30))
def test_rows_of_length_one(values):
    assert_rows_match_fsum([[v] for v in values])


def test_threshold_rows_next_to_ordinary_ones():
    # one matrix mixing a row beyond the extraction limit, a row just under
    # it, a cancelling row and a zero row
    count = 6
    limit = math.ldexp(1.0, 1023 - (count + 1).bit_length())
    matrix = [
        [limit, -limit, 1.0, 1e-300, -1.0, 3.0],
        [math.nextafter(limit, 0.0), 1.0, -2.0, 5e-324, 0.0, -0.0],
        [1e16, 1.0, -1e16, 1.0, 1e-16, -1e-16],
        [0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
    ]
    assert_rows_match_fsum(matrix)


def test_empty_shapes():
    assert exact_row_sums(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert exact_row_sums(np.zeros((0, 4))).shape == (0,)


def test_input_is_not_modified():
    matrix = np.array([[0.1, 0.2, 0.3], [1e300, -1e300, 1.0]])
    before = matrix.copy()
    exact_row_sums(matrix)
    assert np.array_equal(matrix, before)


def test_non_finite_rows_follow_fsum():
    inf, nan = math.inf, math.nan
    got = exact_row_sums(np.array([[inf, 1.0], [nan, 2.0], [1.0, 2.0], [-inf, 5e-324]]))
    assert got[0] == inf and math.isnan(got[1]) and got[2] == 3.0 and got[3] == -inf
    with pytest.raises(ValueError):  # as math.fsum([inf, -inf])
        exact_row_sums(np.array([[1.0, 2.0], [inf, -inf]]))
