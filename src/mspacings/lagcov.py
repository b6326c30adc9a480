"""Lag-covariance assembly over stationary windows of an exponential stream.

Window totals w_t = x_t + ... + x_{t+m-1} over an iid exponential stream form
an (m-1)-dependent stationary sequence.  The per-window variance of a
centered sum-statistic combines the two-sided lag-covariance total of the
statistic values with a subtraction involving the window total; stationarity
makes the lag +j and lag -j covariances equal, so a single accumulator per
|j| is used and the two-sided total is cov(0) + 2 * sum_{j>=1} cov(j).

All estimators report batch-means standard errors over contiguous segments
of the stream.  :func:`components` takes the lag sums and
:func:`projection_moment` the moment of the normal-limit condition, each in
blocks of positions added along numpy's pairwise summation tree, so neither
allocates a full-length temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import checked_index


#: Batches used for every Monte Carlo standard error in the package.
DEFAULT_BATCHES = 30

#: Fewest draws any Monte Carlo estimator in the package accepts.
MIN_DRAWS = 10_000

# Window totals of one stream via per-window summation up to this order;
# cumulative sums beyond it (cheaper for wide windows, slightly less accurate).
_WINDOW_SUM_SWITCH = 64

# Positions per block of the lag sums in components and of the moment in
# projection_moment: the block's temporaries stay in cache.
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
    covariance divided by the order.  ``b`` is the lag-0 covariance with the
    window total, and ``mean_h`` the mean of the statistic values.
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


def components(hv: np.ndarray, w: np.ndarray, m: int) -> SigmaComponents:
    """Assemble both variance forms from aligned value/total arrays.

    ``hv`` and ``w`` are indexed by window position; the first
    ``len(hv) - m + 1`` positions pair with every lag 0..m-1 inside the
    arrays, so all lags average over the same count.

    All lag sums are taken in one pass over blocks of positions, and each
    equals ``np.sum`` of the full-length product of the centred arrays bit
    for bit (see :func:`_pairwise_sum`).
    """
    m = checked_index("m", m)
    if m < 1:
        raise ValueError(f"order m={m} must be at least 1")
    base_count = hv.size - (m - 1)
    if base_count < 2:
        raise ValueError("too few windows for the requested order")
    mean_h = hv.mean()
    mean_w = w.mean()
    width = min(base_count, _LAG_BLOCK)
    dh = np.empty(width + m - 1)
    dw = np.empty(width + m - 1)
    product = np.empty(width)

    def lag_sums(lo: int, n: int) -> np.ndarray:
        # row 0 sums dh[t] dh[t + j], row 1 sums dh[t] dw[t + j], over the
        # n positions t from lo
        np.subtract(hv[lo : lo + n + m - 1], mean_h, out=dh[: n + m - 1])
        np.subtract(w[lo : lo + n + m - 1], mean_w, out=dw[: n + m - 1])
        base, prod = dh[:n], product[:n]
        sums = np.empty((2, m))
        for j in range(m):
            sums[0, j] = np.multiply(base, dh[j : j + n], out=prod).sum()
            sums[1, j] = np.multiply(base, dw[j : j + n], out=prod).sum()
        return sums

    sums = _pairwise_sum(lag_sums, base_count)
    lag_total = 0.0
    cross_total = 0.0
    b = 0.0
    for j in range(m):
        cj = float(sums[0, j] / base_count)
        dj = float(sums[1, j] / base_count)
        weight = 1.0 if j == 0 else 2.0
        lag_total += weight * cj
        cross_total += weight * dj
        if j == 0:
            b = dj
    return SigmaComponents(
        corrected=lag_total - b * b,
        holst=lag_total - (cross_total / m) ** 2,
        b=b,
        mean_h=float(mean_h),
    )


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
        lo = b * size
        hi = lo + size + (m - 1)
        out.append(components(hv[lo:hi], w[lo:hi], m))
    return out


def batch_std_error(batch_values: Sequence[float]) -> float:
    """Standard error of the full-stream estimate from batch replicates."""
    vals = np.asarray(batch_values, dtype=np.float64)
    return float(np.std(vals, ddof=1) / math.sqrt(vals.size))
