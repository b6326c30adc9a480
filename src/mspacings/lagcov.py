"""Lag-covariance assembly over stationary windows of an exponential stream.

Window totals w_t = x_t + ... + x_{t+m-1} over an iid exponential stream form
an (m-1)-dependent stationary sequence.  The per-window variance of a
centered sum-statistic combines the two-sided lag-covariance total of the
statistic values with a subtraction involving the window total; stationarity
makes the lag +j and lag -j covariances equal, so a single accumulator per
|j| is used and the two-sided total is cov(0) + 2 * sum_{j>=1} cov(j).

All estimators report batch-means standard errors over contiguous segments
of the stream.  Every full-stream pass works in blocks of positions whose
sums are added along numpy's pairwise summation tree, so none allocates a
full-length temporary and each sum equals ``np.sum`` over the whole stream
bit for bit:

* :func:`window_pass` builds the window totals and the statistic values and
  takes their means, optionally writing the totals over the draws;
* :func:`components` takes the lag sums of aligned value and total arrays,
  and :func:`stream_components` and :func:`condition_components` only those
  their caller reports (the cross lags 1..m-1 serve only the Holst form);
* :func:`projection_moment` takes the moment of the normal-limit condition.

A stream estimator thus holds two stream-length arrays: the statistic values
and either the totals (in the draws' buffer) or the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteSample, checked_index


#: Batches used for every Monte Carlo standard error in the package.
DEFAULT_BATCHES = 30

#: Fewest draws any Monte Carlo estimator in the package accepts.
MIN_DRAWS = 10_000

# Window totals of one stream via per-window summation up to this order;
# cumulative sums beyond it (cheaper for wide windows, slightly less accurate).
_WINDOW_SUM_SWITCH = 64

# Positions per block of every full-stream pass: the block's temporaries stay
# in cache.
_LAG_BLOCK = 1 << 15


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with a batch-means standard error."""

    value: float
    std_error: float


@dataclass(frozen=True)
class SigmaComponents:
    """One assembly of the per-window variance from lag covariances.

    ``corrected`` subtracts the squared covariance of the statistic with its
    own window total; ``holst`` subtracts the squared pooled cross-lag
    covariance divided by the order, and is nan where the cross lags were not
    summed.  ``b`` is the lag-0 covariance with the window total, and
    ``mean_h`` the mean of the statistic values.
    """

    corrected: float
    holst: float
    b: float
    mean_h: float


def window_sums(x: np.ndarray, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sliding totals of m consecutive entries along the last axis of ``x``,
    which shrinks by m - 1.

    For m = 1 this is ``x`` itself.  Otherwise every total equals
    ``sliding_window_view(x, m, axis=-1).sum(axis=-1)`` bit for bit, except
    for a one-dimensional ``x`` with m above ``_WINDOW_SUM_SWITCH``, which
    takes differences of cumulative sums.  The totals are written into
    ``out`` when it is given; it must not overlap ``x``.  The order must
    lie in [1, x.shape[-1]].
    """
    m = checked_index("m", m)
    length = x.shape[-1]
    if not 1 <= m <= length:
        raise ValueError(f"window order m={m} is outside [1, {length}], "
                         f"the length of x")
    count = length - m + 1
    if m == 1:
        if out is None:
            return x
        out[...] = x
        return out
    if m < 8:
        # numpy adds fewer than 8 terms one after another onto 0.0, so shifted
        # adds onto x + 0.0 (which turns -0.0 into 0.0) give the same totals
        total = np.add(x[..., :count], 0.0, out=out)
        for k in range(1, m):
            total += x[..., k : k + count]
        return total
    if m <= _WINDOW_SUM_SWITCH or x.ndim > 1:
        return sliding_window_view(x, m, axis=-1).sum(axis=-1, out=out)
    cs = np.concatenate([[0.0], np.cumsum(x)])
    return np.subtract(cs[m:], cs[:-m], out=out)


def _pairwise_sum(leaf, count: int, lo: int = 0):
    """Total of ``leaf(lo, n)``, the sum over entries lo .. lo + n - 1, over
    ``count`` entries, added along numpy's pairwise summation tree.

    numpy sums more than 128 float64 values as the sum of two halves, the
    first half's length rounded down to a multiple of 8.  Splitting the same
    way down to blocks of at most ``_LAG_BLOCK`` entries, which must be at
    least 128, and summing each block with ``np.sum`` therefore gives
    ``np.sum`` of all ``count`` values bit for bit.
    """
    if count <= _LAG_BLOCK:
        return leaf(lo, count)
    half = count // 2
    half -= half % 8
    return _pairwise_sum(leaf, half, lo) + _pairwise_sum(leaf, count - half, lo + half)


def _block_totals(x: np.ndarray, m: int, width: int):
    """A function (lo, n) -> the totals of the n <= ``width`` windows of order
    m from window lo of the one-dimensional stream x, equal to those of
    ``window_sums(x, m)`` bit for bit: a view of x at m = 1, otherwise a
    buffer that the next call overwrites.

    Up to ``_WINDOW_SUM_SWITCH`` a block is ``window_sums`` of its own draws.
    Above it the running sum of the stream is carried from block to block,
    so the blocks must come in order, each starting where the last ended.
    """
    if m == 1:
        return lambda lo, n: x[lo : lo + n]
    out = np.empty(width)
    if m <= _WINDOW_SUM_SWITCH:
        return lambda lo, n: window_sums(x[lo : lo + n + m - 1], m, out=out[:n])
    running = np.empty(width + m)
    state = [0, 0.0]  # start of the next block, and the running sum before it

    def totals(lo: int, n: int) -> np.ndarray:
        if lo != state[0]:
            raise ValueError(f"window totals from {lo} asked for before those from {state[0]}")
        cs = running[: n + m]
        cs[0] = state[1]
        cs[1:] = x[lo : lo + n + m - 1]
        np.cumsum(cs, out=cs)
        state[:] = lo + n, cs[n]
        return np.subtract(cs[m:], cs[:n], out=out[:n])

    return totals


def window_pass(x: np.ndarray, m: int, values, hv: np.ndarray,
                totals_over_draws: bool) -> tuple[float, float]:
    """The statistic values of every order-m window of the one-dimensional
    stream x, written into ``hv``, and the means of the values and of the
    window totals, in one pass over blocks of windows.

    ``values(draws, totals)`` returns the values of the windows whose draws
    and totals it is given.  The totals equal ``window_sums(x, m)`` and the
    means ``hv.mean()`` and ``window_sums(x, m).mean()`` bit for bit.  A
    non-finite value raises NonFiniteSample naming the first such window.
    With ``totals_over_draws`` the totals are written over the first
    ``hv.size`` draws, which are then gone.
    """
    count = hv.size
    totals = _block_totals(x, m, min(count, _LAG_BLOCK))

    def leaf(lo: int, n: int) -> np.ndarray:
        wn, hn = totals(lo, n), hv[lo : lo + n]
        hn[...] = values(x[lo : lo + n + m - 1], wn)
        if not np.isfinite(hn).all():
            k = lo + int(np.flatnonzero(~np.isfinite(hn))[0])
            raise NonFiniteSample(f"statistic value at window {k} is not finite")
        sums = np.array([hn.sum(), wn.sum()])
        # later blocks read only the draws from lo + n on, still intact
        if totals_over_draws and m > 1:
            x[lo : lo + n] = wn
        return sums

    sum_h, sum_w = _pairwise_sum(leaf, count)
    return sum_h / count, sum_w / count


def _components(hv: np.ndarray, totals, m: int, mean_h, mean_w,
                cross: bool) -> SigmaComponents:
    """Both variance forms from the values hv, the totals given by
    ``totals(lo, n)`` (see :func:`_block_totals`) and their means, in one
    pass over blocks of positions; with ``cross`` false, only the lag-0
    cross sum is taken and ``holst`` is nan."""
    base_count = hv.size - (m - 1)
    width = min(base_count, _LAG_BLOCK)
    reach = m if cross else 1
    dh = np.empty(width + m - 1)
    dw = np.empty(width + reach - 1)
    product = np.empty(width)

    def lag_sums(lo: int, n: int) -> np.ndarray:
        # entry j sums dh[t] dh[t + j] and entry m + j sums dh[t] dw[t + j],
        # over the n positions t from lo
        np.subtract(hv[lo : lo + n + m - 1], mean_h, out=dh[: n + m - 1])
        np.subtract(totals(lo, n + reach - 1), mean_w, out=dw[: n + reach - 1])
        base, prod = dh[:n], product[:n]
        sums = np.empty(m + reach)
        for j in range(m):
            sums[j] = np.multiply(base, dh[j : j + n], out=prod).sum()
        for j in range(reach):
            sums[m + j] = np.multiply(base, dw[j : j + n], out=prod).sum()
        return sums

    covs = (_pairwise_sum(lag_sums, base_count) / base_count).tolist()
    lag_total = cross_total = 0.0
    for j in range(m):
        weight = 1.0 if j == 0 else 2.0
        lag_total += weight * covs[j]
        if cross:
            cross_total += weight * covs[m + j]
    b = covs[m]
    holst = lag_total - (cross_total / m) ** 2 if cross else math.nan
    return SigmaComponents(corrected=lag_total - b * b, holst=holst, b=b,
                           mean_h=float(mean_h))


def _aligned_order(hv: np.ndarray, w: np.ndarray, m) -> int:
    """The order m checked to be at least 1, with hv and w of one length."""
    m = checked_index("m", m)
    if m < 1:
        raise ValueError(f"order m={m} must be at least 1")
    if hv.size != w.size:
        raise ValueError(f"hv has {hv.size} entries and w {w.size}: "
                         "values and totals must align window by window")
    return m


def components(hv: np.ndarray, w: np.ndarray, m: int) -> SigmaComponents:
    """Assemble both variance forms from aligned value/total arrays.

    ``hv`` and ``w`` are indexed by window position and must have one
    length; the first ``len(hv) - m + 1`` positions pair with every lag
    0..m-1 inside the arrays, so all lags average over the same count.

    All lag sums are taken in one pass over blocks of positions, and each
    equals ``np.sum`` of the full-length product of the centred arrays bit
    for bit (see :func:`_pairwise_sum`).
    """
    m = _aligned_order(hv, w, m)
    if hv.size - (m - 1) < 2:
        raise ValueError("too few windows for the requested order")
    return _components(hv, lambda lo, n: w[lo : lo + n], m, hv.mean(), w.mean(), True)


def stream_components(hv: np.ndarray, w: np.ndarray, m: int, mean_h, mean_w,
                      holst: bool) -> tuple[SigmaComponents, list[SigmaComponents]]:
    """:func:`components` and :func:`batched_components` of aligned values
    and totals whose means :func:`window_pass` took, bit for bit; the cross
    lags 1..m-1, and with them ``holst``, only when ``holst`` is true."""
    full = _components(hv, lambda lo, n: w[lo : lo + n], m, mean_h, mean_w, holst)
    return full, _batches(hv, w, m, holst)


def condition_components(hv: np.ndarray, x: np.ndarray, m: int,
                         mean_h, mean_w) -> SigmaComponents:
    """:func:`components` of the values hv of the order-m windows of the
    stream x, whose means :func:`window_pass` took, without the cross lags
    (``holst`` is nan).  The window totals are built again block by block
    from x, so no full-length array of them is needed."""
    width = min(hv.size - (m - 1), _LAG_BLOCK)
    return _components(hv, _block_totals(x, m, width), m, mean_h, mean_w, False)


def projection_moment(hv: np.ndarray, x: np.ndarray, mean_h: float, b: float,
                      m: int, r: float) -> float:
    """Mean of |g|^r, with g = hv - mean_h - (x - 1) b over the first
    ``len(hv) - m + 1`` positions: the moment in the normal-limit condition
    ratio, for the values hv and totals of windows that start at the stream
    entries x.

    The sum is taken over blocks of positions, in two block-sized buffers,
    and equals ``np.mean(np.abs(g) ** r)`` of the full-length g bit for bit
    (see :func:`_pairwise_sum`).
    """
    count = hv.size - (m - 1)
    width = min(count, _LAG_BLOCK)
    g = np.empty(width)
    linear = np.empty(width)

    def leaf(lo: int, n: int):
        gn, ln = g[:n], linear[:n]
        np.subtract(hv[lo : lo + n], mean_h, out=gn)
        np.subtract(x[lo : lo + n], 1.0, out=ln)
        ln *= b
        gn -= ln
        np.abs(gn, out=gn)
        return np.power(gn, r, out=gn).sum()

    return float(_pairwise_sum(leaf, count) / count)


def batched_components(hv: np.ndarray, w: np.ndarray, m: int) -> list[SigmaComponents]:
    """The same assembly on ``DEFAULT_BATCHES`` contiguous segments of the
    stream, each with at least max(2, 4m) lag positions."""
    return _batches(hv, w, _aligned_order(hv, w, m), True)


def _batches(hv: np.ndarray, w: np.ndarray, m: int, cross: bool) -> list[SigmaComponents]:
    base_count = hv.size - (m - 1)
    needed = DEFAULT_BATCHES * max(2, 4 * m)
    if base_count < needed:
        raise ValueError(
            f"stream too short for batch-means standard errors at order m={m}: "
            f"{base_count} windows, need at least {needed} "
            f"({DEFAULT_BATCHES} batches of max(2, 4m))")
    size = base_count // DEFAULT_BATCHES
    out = []
    for b in range(DEFAULT_BATCHES):
        hb, wb = hv[b * size : (b + 1) * size + m - 1], w[b * size : (b + 1) * size + m - 1]
        out.append(_components(hb, lambda lo, n: wb[lo : lo + n], m, hb.mean(), wb.mean(),
                               cross))
    return out


def batch_std_error(batch_values: Sequence[float]) -> float:
    """Standard error of the full-stream estimate from batch replicates."""
    vals = np.asarray(batch_values, dtype=np.float64)
    return float(np.std(vals, ddof=1) / math.sqrt(vals.size))
