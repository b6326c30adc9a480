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
bit for bit.  A stream estimator holds one stream-length array, the draws,
about 8 bytes per draw; each pass builds the window totals and statistic
values of a block again, in cache:

* :func:`window_pass` draws the stream block by block and takes the means
  of the values and of the totals;
* :func:`lag_pass` takes the lag sums its caller reports (the cross lags
  1..m-1 serve only the Holst form) and, when asked, copies each block's
  values and totals in stream order into one buffer of a batch's windows,
  where each batch takes its own means and lag sums;
* :func:`stream_moment` takes the moment of the normal-limit condition.

:func:`components`, :func:`batched_components` and
:func:`projection_moment` take the same sums from full-length arrays of the
values and totals, and the stream passes equal them bit for bit.
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
    Above it the running sum of the stream is carried from block to block:
    the first block starts at 0, and each later one at or after the start of
    the one before and at most one past the last draw that one read, so a
    block may start inside the one before it.
    """
    if m == 1:
        return lambda lo, n: x[lo : lo + n]
    out = np.empty(width)
    if m <= _WINDOW_SUM_SWITCH:
        return lambda lo, n: window_sums(x[lo : lo + n + m - 1], m, out=out[:n])
    # running[j] is the running sum of the draws before draw start + j, for
    # the ``held`` entries j of the last block
    running = np.zeros(width + m)
    state = [0, 1]  # start and held

    def totals(lo: int, n: int) -> np.ndarray:
        start, held = state
        if not start <= lo < start + held:
            raise ValueError(f"window totals from {lo} asked for, but the running sum is "
                             f"held only before draws {start} to {start + held - 1}")
        cs = running[: n + m]
        cs[0] = running[lo - start]
        cs[1:] = x[lo : lo + n + m - 1]
        np.cumsum(cs, out=cs)
        state[:] = lo, n + m
        return np.subtract(cs[m:], cs[:n], out=out[:n])

    return totals


def _block_source(x: np.ndarray, m: int, values, width: int):
    """A function (lo, n) -> (values, totals) of the n <= ``width`` windows of
    order m from window lo of the stream x, built in cache and valid until the
    next call.  The totals are those of :func:`_block_totals`, which also says
    in what order blocks may come, and the values are ``values(draws,
    totals)`` of the windows' draws and totals; a scalar value stands for
    every window."""
    totals = _block_totals(x, m, width)

    def source(lo: int, n: int):
        wn = totals(lo, n)
        return np.broadcast_to(values(x[lo : lo + n + m - 1], wn), wn.shape), wn

    return source


def window_pass(draw, x: np.ndarray, m: int, values) -> tuple[float, float]:
    """Draw the one-dimensional stream x and take the means of the statistic
    values and of the totals of its order-m windows, in one pass over blocks
    of windows.

    ``draw(count, out=...)`` writes the next ``count`` draws of the stream
    into ``out``; x is drawn block by block, just ahead of the windows that
    read it.  ``values(draws, totals)`` returns the values of the windows
    whose draws and totals it is given.  The means equal ``hv.mean()`` and
    ``window_sums(x, m).mean()`` of the full-length values hv and totals bit
    for bit.  A non-finite value raises NonFiniteSample naming the first
    such window.
    """
    count = x.size - (m - 1)
    source = _block_source(x, m, values, min(count, _LAG_BLOCK))
    drawn = [0]

    def leaf(lo: int, n: int) -> np.ndarray:
        end = lo + n + m - 1
        draw(end - drawn[0], out=x[drawn[0] : end])
        drawn[0] = end
        hn, wn = source(lo, n)
        sums = np.array([hn.sum(), wn.sum()])
        # a non-finite value makes the sum non-finite, so only then is it looked for
        if not math.isfinite(sums[0]) and not (finite := np.isfinite(hn)).all():
            k = lo + int(np.flatnonzero(~finite)[0])
            raise NonFiniteSample(f"statistic value at window {k} is not finite")
        return sums

    sum_h, sum_w = _pairwise_sum(leaf, count)
    return sum_h / count, sum_w / count


def _components(source, count: int, m: int, mean_h, mean_w, cross: bool,
                sink=None) -> SigmaComponents:
    """Both variance forms over ``count`` lag positions, from the values and
    totals that ``source(lo, k)`` gives for the k windows from lo and from
    their means, in one pass over blocks of positions; with ``cross`` false,
    only the lag-0 cross sum is taken and ``holst`` is nan.  ``sink(lo,
    values, totals)``, when given, is handed each block's windows in turn."""
    width = min(count, _LAG_BLOCK)
    reach = m if cross else 1
    dh = np.empty(width + m - 1)
    dw = np.empty(width + reach - 1)
    product = np.empty(width)

    def lag_sums(lo: int, n: int) -> np.ndarray:
        # entry j sums dh[t] dh[t + j] and entry m + j sums dh[t] dw[t + j],
        # over the n positions t from lo
        hn, wn = source(lo, n + m - 1)
        if sink is not None:
            sink(lo, hn, wn)
        np.subtract(hn, mean_h, out=dh[: n + m - 1])
        np.subtract(wn[: n + reach - 1], mean_w, out=dw[: n + reach - 1])
        base, prod = dh[:n], product[:n]
        sums = np.empty(m + reach)
        for j in range(m):
            sums[j] = np.multiply(base, dh[j : j + n], out=prod).sum()
        for j in range(reach):
            sums[m + j] = np.multiply(base, dw[j : j + n], out=prod).sum()
        return sums

    covs = (_pairwise_sum(lag_sums, count) / count).tolist()
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


def _batch_sink(count: int, m: int, cross: bool):
    """(batches, sink) for ``DEFAULT_BATCHES`` contiguous segments of
    ``count`` lag positions, each with at least max(2, 4m) of them.

    ``sink(lo, values, totals)`` takes the values and totals of a run of
    windows from window lo, each run starting at or before the first window
    not yet taken; it copies the windows in stream order into one buffer of
    a batch's windows, and appends each segment's components (without the
    cross lags unless ``cross``) to ``batches`` as soon as its windows are
    in.  A segment's means and lag sums are taken in the buffer.
    """
    needed = DEFAULT_BATCHES * max(2, 4 * m)
    if count < needed:
        raise ValueError(
            f"stream too short for batch-means standard errors at order m={m}: "
            f"{count} windows, need at least {needed} "
            f"({DEFAULT_BATCHES} batches of max(2, 4m))")
    size = count // DEFAULT_BATCHES
    span = size + m - 1
    hb, wb = np.empty((2, span))
    batches = []
    taken = [0]  # windows copied so far

    def window_slices(lo: int, k: int):
        return hb[lo : lo + k], wb[lo : lo + k]

    def sink(lo: int, hn: np.ndarray, wn: np.ndarray) -> None:
        stop = lo + hn.size
        while taken[0] < stop and len(batches) < DEFAULT_BATCHES:
            first = len(batches) * size
            start, end = taken[0], min(stop, first + span)
            hb[start - first : end - first] = hn[start - lo : end - lo]
            wb[start - first : end - first] = wn[start - lo : end - lo]
            taken[0] = end
            if end == first + span:
                batches.append(_components(window_slices, size, m, hb.mean(), wb.mean(),
                                           cross))
                # the next segment starts with this one's last m - 1 windows
                hb[: m - 1] = hb[size:]
                wb[: m - 1] = wb[size:]

    return batches, sink


def lag_pass(x: np.ndarray, m: int, values, mean_h, mean_w, holst: bool,
             batched: bool) -> tuple[SigmaComponents, list[SigmaComponents]]:
    """:func:`components` of the statistic values and totals of the order-m
    windows of the stream x, whose means :func:`window_pass` took, with the
    values and totals rebuilt block by block, and with ``batched`` also
    :func:`batched_components` (otherwise an empty list), bit for bit.

    The cross lags 1..m-1, and with them ``holst``, are summed only when
    ``holst`` is true.  The batches take their sums from one buffer of a
    batch's windows, which the pass fills in stream order.
    """
    count = x.size - 2 * (m - 1)
    batches, sink = _batch_sink(count, m, holst) if batched else ([], None)
    source = _block_source(x, m, values, min(count, _LAG_BLOCK) + m - 1)
    return _components(source, count, m, mean_h, mean_w, holst, sink), batches


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
    return _components(lambda lo, k: (hv[lo : lo + k], w[lo : lo + k]), hv.size - (m - 1),
                       m, hv.mean(), w.mean(), True)


def batched_components(hv: np.ndarray, w: np.ndarray, m: int) -> list[SigmaComponents]:
    """The same assembly on ``DEFAULT_BATCHES`` contiguous segments of the
    stream, each with at least max(2, 4m) lag positions."""
    m = _aligned_order(hv, w, m)
    batches, sink = _batch_sink(hv.size - (m - 1), m, True)
    sink(0, hv, w)
    return batches


def _moment(values, x: np.ndarray, count: int, mean_h: float, b: float, r: float) -> float:
    """Mean of |g|^r over the first ``count`` positions, with g as in
    :func:`projection_moment` and ``values(lo, n)`` the statistic values of
    the n windows from lo, in two block-sized buffers."""
    width = min(count, _LAG_BLOCK)
    g = np.empty(width)
    linear = np.empty(width)

    def leaf(lo: int, n: int):
        gn, ln = g[:n], linear[:n]
        np.subtract(values(lo, n), mean_h, out=gn)
        np.subtract(x[lo : lo + n], 1.0, out=ln)
        ln *= b
        gn -= ln
        np.abs(gn, out=gn)
        return np.power(gn, r, out=gn).sum()

    return float(_pairwise_sum(leaf, count) / count)


def projection_moment(hv: np.ndarray, x: np.ndarray, mean_h: float, b: float,
                      m: int, r: float) -> float:
    """Mean of |g|^r, with g = hv - mean_h - (x - 1) b over the first
    ``len(hv) - m + 1`` positions: the moment in the normal-limit condition
    ratio, for the values hv and totals of windows that start at the stream
    entries x.

    The sum is taken over blocks of positions and equals
    ``np.mean(np.abs(g) ** r)`` of the full-length g bit for bit (see
    :func:`_pairwise_sum`).
    """
    return _moment(lambda lo, n: hv[lo : lo + n], x, hv.size - (m - 1), mean_h, b, r)


def stream_moment(x: np.ndarray, m: int, values, mean_h: float, b: float, r: float) -> float:
    """:func:`projection_moment` of the statistic values of the order-m
    windows of the stream x, bit for bit, with the values rebuilt block by
    block."""
    count = x.size - 2 * (m - 1)
    source = _block_source(x, m, values, min(count, _LAG_BLOCK))
    return _moment(lambda lo, n: source(lo, n)[0], x, count, mean_h, b, r)


def batch_std_error(batch_values: Sequence[float]) -> float:
    """Standard error of the full-stream estimate from batch replicates."""
    vals = np.asarray(batch_values, dtype=np.float64)
    return float(np.std(vals, ddof=1) / math.sqrt(vals.size))
