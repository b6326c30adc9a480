"""Statistic family evaluation on the hand-computed sample (0, 0.2, 0.5, 0.9)
and structural properties on random samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

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
    closed_form_moments,
    custom_sum,
    from_unit_observations,
    resolve_kind,
    statistic_Q,
    statistic_R,
    statistic_V,
    statistic_W,
    statistic_Z,
)
from mspacings.spacings import anchored_points, spacing_rows
from mspacings.statistics import (
    NAMED_KINDS,
    VARIANTS,
    ChunkWorkspace,
    _xlogx,
    evaluate,
    evaluate_rows,
)

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

    def test_registry_resolves_each_name(self):
        assert NAMED_KINDS == {"greenwood": GREENWOOD, "moran": MORAN, "entropy": ENTROPY}
        for name, kind in NAMED_KINDS.items():
            assert resolve_kind(name) is kind
            assert resolve_kind(name.upper()) is kind

    def test_registry_kinds_have_closed_forms(self):
        for kind in NAMED_KINDS.values():
            assert closed_form_moments(kind, 100, 2).variance > 0.0
        with pytest.raises(UnsupportedKind):
            closed_form_moments(custom_sum(np.square), 100, 2)


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

    def test_refuses_a_statistic_kind(self, sample):
        for fn in (GREENWOOD, "greenwood"):
            with pytest.raises(UnsupportedKind, match="^variant R takes "):
                evaluate(sample, 1, fn, "r")
        with pytest.raises(UnsupportedKind, match="^variant R takes "):
            statistic_R(sample, 1, GREENWOOD)

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

    def test_positivity_checked_only_where_required(self):
        log = TupleFunction(lambda w: np.log(w[:, 0]), arity=1, vectorized=True,
                            requires_positive=True, name="log")
        sq = square_tuple(1)
        # scaled spacings 1, 0, 2, 1: the zero sits at a square position
        sample = from_unit_observations([0.25, 0.25, 0.75])
        r = statistic_R(sample, 1, TupleFunctionFamily((log, sq, log, sq)))
        assert r.value == math.fsum([0.0, 0.0, math.log(2.0), 1.0])
        with pytest.raises(DomainViolation) as err:
            statistic_R(sample, 1, TupleFunctionFamily((sq, log, log, sq)))
        assert err.value.index == 1

    def test_positivity_reports_first_failing_row(self):
        log = TupleFunction(lambda w: np.log(w[:, 0] * w[:, 1]), arity=2,
                            requires_positive=True, name="log-product")
        fam = TupleFunctionFamily((square_tuple(2), square_tuple(2), log, square_tuple(2)))
        points = anchored_points(np.array([[0.1, 0.4, 0.7], [0.2, 0.2, 0.6], [0.3, 0.3, 0.3]]))
        # row 1 has a zero spacing in windows 0 and 1, square positions both;
        # row 2 has one in windows 0 to 2, of which 2 is the log position
        with pytest.raises(DomainViolation) as err:
            evaluate_rows(points, 2, fam, "r")
        assert err.value.index == 2

    def test_evaluate_all_on_a_stack_equals_one_matrix_at_a_time(self):
        pair = TupleFunction(lambda u, v: u - 2.0 * v, arity=2, name="pair")
        fam = TupleFunctionFamily(tuple(pair if k % 2 else square_tuple(2) for k in range(5)))
        stack = np.random.default_rng(3).random((3, 4, 5, 2))
        out = fam.evaluate_all(stack)
        assert out.shape == (3, 4, 5)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(out[i, j], fam.evaluate_all(stack[i, j]))


    @pytest.mark.parametrize("members", [
        lambda sq, pair: (sq, pair) * 4,                          # two strided groups
        lambda sq, pair: (sq,) * 3 + (pair,) * 5,                 # two contiguous runs
        lambda sq, pair: (sq, sq, pair, sq, pair, pair, sq, sq),  # irregular groups
    ])
    def test_evaluate_all_equals_per_position_evaluation(self, members):
        pair = TupleFunction(lambda u, v: u - 2.0 * v, arity=2, name="pair")
        fam = TupleFunctionFamily(members(square_tuple(2), pair))
        stack = np.random.default_rng(5).random((3, 8, 2))
        expected = [[f.evaluate(stack[i, k : k + 1])[0].hex() for k, f in enumerate(fam.functions)]
                    for i in range(3)]
        assert [[v.hex() for v in row] for row in fam.evaluate_all(stack).tolist()] == expected


    @pytest.mark.parametrize("stack", [(), (7,), (2, 3)])
    @pytest.mark.parametrize("layout", ["step-1", "step-2", "index-array"])
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_evaluate_all_on_window_views_equals_per_position_evaluation(
            self, arity, layout, stack):
        n = 12
        # column order matters to both functions
        first = TupleFunction(lambda w: w[:, 0] - 2.0 * w[:, -1] + w[:, arity // 2] ** 2,
                              arity=arity, vectorized=True, name="first")
        second = TupleFunction(lambda w: w[:, -1] * (w[:, 0] + 0.5), arity=arity,
                               vectorized=True, name="second")
        members = {
            "step-1": (first,) * 5 + (second,) * (n - 5),
            "step-2": (first, second) * (n // 2),
            "index-array": (first, first, second, first, second, second) * (n // 6),
        }[layout]
        fam = TupleFunctionFamily(members)
        ext = np.random.default_rng(arity).random(stack + (n + arity - 1,))
        windows = sliding_window_view(ext, arity, axis=-1)
        flat = windows.reshape(-1, n, arity)
        expected = np.array([[f.evaluate(flat[i, k : k + 1])[0] for k, f in enumerate(members)]
                             for i in range(flat.shape[0])]).reshape(stack + (n,))
        assert fam.evaluate_all(windows).tobytes() == expected.tobytes()


class TestZOfAKind:
    """Z of a statistic kind applies it to window totals; its values equal the
    kind's tuple function on the windows themselves bit for bit."""

    @staticmethod
    def _both(points, m, kind):
        by_totals = evaluate_rows(points, m, kind, "z")
        by_windows = evaluate_rows(points, m, kind.as_tuple_function(m), "z")
        return [v.hex() for v in by_totals.tolist()], [v.hex() for v in by_windows.tolist()]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_equals_tuple_function(self, m):
        rng = np.random.default_rng(m)
        shifted = custom_sum(lambda x: np.square(x - 1.5), name="shifted-square")
        for n in (m + 1, 50, 300):
            points = anchored_points(rng.random((7, n - 1)))
            for kind in (GREENWOOD, MORAN, ENTROPY, shifted):
                by_totals, by_windows = self._both(points, m, kind)
                assert by_totals == by_windows, (kind.name, n)

    def test_result_names_the_kind(self, sample):
        r = statistic_Z(sample, 2, "moran")
        assert (r.kind, r.variant, r.summand_count) == ("moran", "Z", 4)
        assert r.value == statistic_Z(sample, 2, MORAN.as_tuple_function(2)).value

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_total_raises_the_same_error(self, m):
        values = np.random.default_rng(9).random((3, 20))
        values[1, 4 : 4 + m] = values[1, 3]  # m zero spacings in a row
        points = anchored_points(values)
        errors = []
        for fn in (MORAN, MORAN.as_tuple_function(m)):
            with pytest.raises(DomainViolation) as err:
                evaluate_rows(points, m, fn, "z")
            errors.append((err.value.index, str(err.value)))
        assert errors[0] == errors[1]
        assert "-inf" in errors[0][1]

    def test_order_checks(self, sample):
        with pytest.raises(OrderTooLarge):
            statistic_Z(sample, 4, "greenwood")
        with pytest.raises(ValueError):
            statistic_Z(sample, 0, "greenwood")
        with pytest.raises(UnsupportedKind):
            statistic_Z(sample, 1, TupleFunctionFamily((square_tuple(1),) * 4))


class TestXlogx:
    """The entropy summand: u log u where u > 0, else +0.0."""

    def test_out_on_positive_rows(self):
        u = np.random.default_rng(6).standard_exponential((13, 500))
        expected = [v.hex() for v in (u * np.log(u)).ravel().tolist()]
        out = np.full((13, 600), np.nan)
        got = _xlogx(u, out=out[:, :500])
        assert got.base is out
        assert [v.hex() for v in out[:, :500].ravel().tolist()] == expected
        # a view with a row stride, as for the line variant
        got = _xlogx(u[:, :400], out=np.empty((13, 400)))
        assert [v.hex() for v in got.ravel().tolist()] == [
            v.hex() for v in (u[:, :400] * np.log(u[:, :400])).ravel().tolist()]

    def test_out_on_mixed_input(self):
        u = np.array([[2.0, 0.0, -0.0], [np.nan, -3.0, 0.5]])
        out = np.full(u.shape, 7.0)
        assert _xlogx(u, out=out) is out
        assert [v.hex() for v in out.ravel().tolist()] == [
            v.hex() for v in _xlogx(u).ravel().tolist()]

    @pytest.mark.parametrize("value", [2.5, 0.0])
    def test_out_zero_dimensional(self, value):
        out = np.full((), 7.0)
        assert _xlogx(np.float64(value), out=out) is out
        assert float(out).hex() == float(_xlogx(np.float64(value))).hex()

    def test_out_must_not_overlap_input(self):
        u = np.random.default_rng(7).random((3, 8)) + 0.5
        with pytest.raises(ValueError):
            _xlogx(u, out=u)
        with pytest.raises(ValueError):
            _xlogx(u[:, 1:], out=u[:, :-1])

    def test_positive_entries_are_u_log_u(self):
        u = np.random.default_rng(4).standard_exponential((13, 500))
        assert [v.hex() for v in _xlogx(u).ravel().tolist()] == [
            v.hex() for v in (u * np.log(u)).ravel().tolist()]

    def test_zero_nan_and_negative_give_zero(self):
        got = _xlogx(np.array([0.0, -0.0, np.nan, -3.0, 2.0]))
        two = np.array([2.0])
        assert [v.hex() for v in got.tolist()] == ["0x0.0p+0"] * 4 + [
            float((two * np.log(two))[0]).hex()]

    @pytest.mark.parametrize("value", [2.5, 0.0, -0.0, float("nan")])
    def test_zero_dimensional_input(self, value):
        got = _xlogx(np.float64(value))
        assert isinstance(got, np.ndarray) and got.shape == ()
        u = np.array([value])
        expected = float((u * np.log(u))[0]) if value > 0.0 else 0.0
        assert float(got).hex() == expected.hex()


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
    spread = TupleFunction(lambda *w: w[0] * w[-1] - min(w), arity=m, name="spread")
    members = (square_tuple(m), GREENWOOD.as_tuple_function(m), spread)
    fam = TupleFunctionFamily(tuple(members[k % 3] for k in range(n)))
    for variant, fn in (("v", "greenwood"), ("v", "moran"), ("w", "entropy"),
                        ("q", "moran"), ("z", "entropy"), ("z", square_tuple(m)), ("r", fam)):
        batched = evaluate_rows(points, m, fn, variant)
        for r in range(rows):
            one = evaluate(from_unit_observations(values[r]), m, fn, variant)
            assert batched[r].hex() == one.value.hex()


@given(unit_obs, st.integers(min_value=1, max_value=6))
def test_value_is_the_row_sum_of_the_summands(values, m):
    sample = from_unit_observations(values)
    n = sample.arc_count
    if m >= n:
        return
    points = sample.points.reshape(1, -1)
    x = n * spacing_rows(points, m)[0]
    assert statistic_V(sample, m, "greenwood").value == np.sum(np.square(x))
    assert statistic_W(sample, m, "entropy").value == np.sum(ENTROPY.sum_fn(x[: n - m]))
    x = n * spacing_rows(points, m, disjoint=True)[0]
    assert statistic_Q(sample, m, "greenwood").value == np.sum(np.square(x))


@given(st.sampled_from([3, 40, 9000]), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_rows_equal_numpy_sum_of_the_variant_summands(count, rows, seed):
    # each row of summands, copied out alone, sums to the bits evaluate_rows
    # gives for the whole chunk
    points = anchored_points(np.random.default_rng(seed).random((rows, count)))
    n = count + 1
    m = 1 + seed % min(9, n - 1)
    fam = TupleFunctionFamily.constant(square_tuple(m), n)
    for variant, fn in (("v", GREENWOOD), ("w", MORAN), ("q", ENTROPY),
                        ("z", ENTROPY), ("z", square_tuple(m)), ("r", fam)):
        work = ChunkWorkspace(rows, n, m)
        hv = VARIANTS[variant].summands(points, m, fn, work)
        expected = [float(np.sum(np.array(row))).hex() for row in hv]
        got = [value.hex() for value in evaluate_rows(points, m, fn, variant).tolist()]
        assert got == expected, (variant, fn)


def test_rows_report_error_of_first_failing_row():
    values = np.random.default_rng(4).random((4, 9))
    values[2, 5] = values[2, 3]
    values[3, 1] = values[3, 0]
    with pytest.raises(ZeroSpacing) as err:
        evaluate_rows(anchored_points(values), 1, "moran", "v")
    with pytest.raises(ZeroSpacing) as one_row:
        statistic_V(from_unit_observations(values[2]), 1, "moran")
    assert err.value.index == one_row.value.index


@pytest.mark.parametrize("variant, fn, detail", [
    (variant, custom_sum(lambda x: np.log(x - 0.6), name="shifted-log"),
     "shifted-log returned nan at value 0.0") for variant in "vwq"
] + [
    ("z", MORAN, "value -inf"),
    ("z", MORAN.as_tuple_function(1), "value -inf"),
    ("r", TupleFunctionFamily.constant(MORAN.as_tuple_function(1), 4), "value -inf"),
])
def test_domain_errors_print_plain_floats(variant, fn, detail):
    # scaled spacings 1, 0, 2, 1: every function fails at the zero, window 1
    sample = from_unit_observations([0.25, 0.25, 0.75])
    with pytest.raises(DomainViolation) as err:
        evaluate(sample, 1, fn, variant)
    assert str(err.value) == f"tuple function undefined at window 1: {detail}"
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize("variant", ["V", "x"])
def test_unknown_variant_is_a_value_error(variant):
    sample = from_unit_observations([0.1, 0.4, 0.8])
    message = f"variant must be one of ('v', 'w', 'q', 'z', 'r'), got {variant!r}"
    with pytest.raises(ValueError) as one:
        evaluate(sample, 1, "greenwood", variant)
    with pytest.raises(ValueError) as rows:
        evaluate_rows(sample.points.reshape(1, -1), 1, "greenwood", variant)
    assert str(one.value) == str(rows.value) == message
