"""The exact row sum behind every statistic: bit for bit equal to math.fsum
of each row, compared through float.hex so that signed zeros count."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mspacings import statistics
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


# ---------------------------------------------------------------- the certified check
#
# Each row below is one extraction away from its answer: tau, the exact sum
# of its high parts, plus rho, the float sum of its remainders, rounded to
# s with exact error d.  The row is certified when |d| + E < h, with
# E = count**2 * 2**(e + M - 105) and h half the smaller gap from s to its
# neighbours; otherwise it falls through to further extractions.  The rows
# are adversarial: rho is exact except where a comment says otherwise, so
# a wrong certification shows only in which path ran, or where rho's own
# rounding moves s across a rounding boundary.


@pytest.fixture
def fell_through(monkeypatch):
    """The number of rows that reached the fall-through, over the sums run
    since the fixture was set up."""
    rows = []
    real = statistics._fall_through

    def spy(p, first, shift):
        rows.append(len(p))
        return real(p, first, shift)

    monkeypatch.setattr(statistics, "_fall_through", spy)
    return lambda: sum(rows)


def assert_path(row, certified, fell_through):
    before = fell_through()
    assert_rows_match_fsum([row])
    assert fell_through() - before == (0 if certified else 1), row


E53, E54 = math.ldexp(1.0, -53), math.ldexp(1.0, -54)


@pytest.mark.parametrize("row, certified", [
    # an exact tie, rounded to even: |d| = h
    ([1.0, E53], False),
    ([1.0, -E54], False),
    ([1.0 + 2 * E53, E53], False),
    # a quarter of the gap from s: certified
    ([1.5, E53 / 2], True),
    ([1.0, 3 * E53 / 2], True),
    # just past a midpoint, by 2**-80 (far more than E = 9 * 2**-101) or by
    # 2**-100 (less than E)
    ([1.0, E53, math.ldexp(1.0, -80)], True),
    ([1.5, E53, -math.ldexp(1.0, -80)], True),
    ([1.0, E53, math.ldexp(1.0, -100)], False),
    ([1.0, E53, -math.ldexp(1.0, -100)], False),
    # |d| + E equals h exactly: E = 16 * 2**(1 + 3 - 105) = 2**-97 at
    # count 4, s = 1 + 2**-52 and |d| = 2**-53 - 2**-97; not certified
    ([1.0, 3 * E53 - math.ldexp(1.0, -97), 0.0, 0.0], False),
    ([1.0, 3 * E53 - math.ldexp(1.0, -96), 0.0, 0.0], True),
])
def test_midpoints_and_ties(row, certified, fell_through):
    assert_path(row, certified, fell_through)


@pytest.mark.parametrize("row, certified", [
    # s = 1.0 is a power of two: the gap below it is 2**-53, so h = 2**-54
    # on both sides.  A row sum 2**-56 below 1.0 is certified, one 2**-54
    # above it is not; 2**-54 + 2**-80 below 1.0 rounds to s = 1 - 2**-53,
    # whose h is 2**-53
    ([1.0, -math.ldexp(1.0, -56)], True),
    ([1.0, E54], False),
    ([1.0, E53, -math.ldexp(1.0, -80)], False),
    ([1.0, -E54 - math.ldexp(1.0, -80)], True),
    ([-2.0, 2 * E54 + math.ldexp(1.0, -79)], True),
    # approached from below within E of the midpoint under 1.0
    ([1.0, -E54 - math.ldexp(1.0, -100)], False),
    ([1.0, -E54 + math.ldexp(1.0, -100)], False),
    # rho loses 2**-108 below 2**-54, so s = 1.0 by a tie although the row
    # sum is below the midpoint and rounds to 1 - 2**-53; |d| = h
    ([1.0, -E54, -math.ldexp(1.0, -108)], False),
    # rho loses 1.5 * 2**-107 above 2**-53, so s = 1.0 by a tie although the
    # row sum is above the midpoint and rounds to 1 + 2**-52; |d| = h
    ([1.0, E53, 1.5 * math.ldexp(1.0, -107)], False),
])
def test_powers_of_two_and_lossy_remainder_sums(row, certified, fell_through):
    assert_path(row, certified, fell_through)


def test_remainder_sum_error_beyond_count_times_the_unit(fell_through):
    # count 300, M = 9, e = 1: the remainders are 298 copies of
    # x = 2**-43 * (1 - 148 * 2**-53), plus a0.  Their float sum comes out
    # about 1096 * 2**-96 above the exact one: more than
    # count * 2**(e + M - 105) = 600 * 2**-96, less than E.  a0 puts the row
    # sum just below a midpoint that tau + rho lies above.
    x = math.ldexp(1.0 - math.ldexp(148.0, -53), -43)
    row = [float.fromhex("-0x1.bffffffaa0000p-51"), 1.0] + [x] * 298
    assert math.fsum(row) == float.fromhex("0x1.00000000253fcp+0")
    assert_path(row, False, fell_through)


@given(st.floats(min_value=1.0, max_value=2.0), st.integers(min_value=-899, max_value=-800),
       st.lists(subnormal, min_size=1, max_size=20))
def test_subnormal_remainders(fraction, exponent, tiny):
    assert_rows_match_fsum([[math.ldexp(fraction, exponent)] + tiny,
                            tiny + [-math.ldexp(fraction, exponent)]])


def test_rows_below_the_certified_range_fall_through(fell_through):
    assert_path([math.ldexp(1.0, -901), 5e-324, -1e-310], False, fell_through)
    assert_path([math.ldexp(1.0, -900), 5e-324, -1e-310], True, fell_through)
    assert_path([0.0, -0.0, 0.0], False, fell_through)


@pytest.mark.parametrize("count", [2, 3, 6, 7, 14, 15, 30, 31, 62, 63, 126, 127, 254, 255])
def test_row_lengths_where_the_extraction_shift_changes(count):
    # 2**M >= count + 2 first fails at count = 2**M - 1
    rng = np.random.default_rng(count)
    wide = rng.choice((-1.0, 1.0), (4, count)) * np.ldexp(rng.random((4, count)),
                                                          rng.integers(-60, 60, (4, count)))
    near = np.zeros((4, count))
    near[:, 0] = 1.0
    near[:, 1] = E53
    near[:, 2:] = [[math.ldexp(1.0, -100)], [-math.ldexp(1.0, -100)],
                   [math.ldexp(1.0, -70)], [-math.ldexp(1.0, -70)]]
    assert_rows_match_fsum(np.vstack([wide, near]))
    assert_rows_match_fsum(np.vstack([wide, near])[:, ::-1])


def test_both_paths_run_on_one_matrix(fell_through):
    rng = np.random.default_rng(5)
    matrix = rng.exponential(size=(13, 5000)) ** 2
    matrix[4, :3] = [1.0, E53, 0.0]
    matrix[4, 3:] = 0.0
    assert_rows_match_fsum(matrix)
    assert fell_through() == 1
