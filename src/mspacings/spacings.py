"""Circular samples on the unit interval and their m-spacings.

A sample of observations in [0, 1) is anchored with an extra point at 0 and
read as points on a circle of unit circumference, so n points delimit n arcs
that sum to one.  Spacings of order m come in two flavours:

* overlapping: every window of m consecutive arcs, wrapping past 1,
* disjoint: consecutive blocks of m arcs with no sharing.

The simple spacings, the n adjacent arcs, are the overlapping ones of order 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, OrderTooLarge, ValueOutOfRange


@dataclass(frozen=True)
class CircularSample:
    """Sorted points in [0, 1) beginning with the anchor 0."""

    points: np.ndarray

    @property
    def arc_count(self) -> int:
        """Number of arcs delimited by the points (equal to their count)."""
        return int(self.points.size)


def anchored_points(values, out: np.ndarray | None = None) -> np.ndarray:
    """Anchored circular points of every row of a (rows, k) observation matrix.

    Row r of the result holds the anchor 0 followed by row r of ``values``
    sorted ascending, so a (rows, k) matrix becomes (rows, k + 1) points.  Ties
    are kept; they surface later as zero spacings.  The points are written
    into ``out`` when it is given; ``values`` may be ``out[:, 1:]`` itself,
    and is then sorted in place.

    Raises
    ------
    EmptyInput
        If the rows hold no observations.
    ValueOutOfRange
        If any observation is not a finite number in [0, 1); the error
        reports the first offending position within its row and its value.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape[1] == 0:
        raise EmptyInput("need at least one observation")
    # NaN fails both comparisons, and min/max propagate it
    if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):
        ok = (arr >= 0.0) & (arr < 1.0)
        row, i = (int(k) for k in np.argwhere(~ok)[0])
        raise ValueOutOfRange(i, float(arr[row, i]))
    if out is None:
        out = np.empty((arr.shape[0], arr.shape[1] + 1), dtype=np.float64)
    out[:, 0] = 0.0
    out[:, 1:] = arr  # a no-op when arr is this very view
    out[:, 1:].sort(axis=1)
    return out


def from_unit_observations(values) -> CircularSample:
    """Build the anchored circular sample from raw unit-interval observations.

    The one-row case of :func:`anchored_points`: observations are sorted
    ascending and the anchor 0 is prepended.

    Raises
    ------
    EmptyInput
        If no observations are given.
    ValueOutOfRange
        If any observation is not a finite number in [0, 1); the error
        reports the offending position and value.
    """
    arr = np.asarray(values, dtype=np.float64).reshape(1, -1)
    pts = anchored_points(arr)[0]
    pts.setflags(write=False)
    return CircularSample(pts)


def spacing_rows(points: np.ndarray, m: int, disjoint: bool = False,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Arc lengths of order m of every row of a (rows, n) matrix of anchored
    sorted points, as a (rows, count) matrix, written into the first count
    columns of ``out`` when it is given.

    Overlapping spacings have n columns and wrap around the circle (the point
    k past the top is 1 plus point k); at m = 1 they are the simple spacings.
    Disjoint spacings keep only the floor(n/m) complete blocks.

    Raises
    ------
    ValueError
        If m < 1.
    OrderTooLarge
        If m >= n.
    """
    rows, n = points.shape
    if m < 1:
        raise ValueError(f"spacing order must be >= 1, got {m}")
    if m >= n:
        raise OrderTooLarge(f"order {m} needs more than {m} arcs, sample has {n}")
    count = n // m if disjoint else n
    out = np.empty((rows, count)) if out is None else out[:, :count]
    if disjoint:
        # block boundaries are the points 0, m, 2m, ..., then 1.0 if m divides n
        bounds = points[:, ::m]
        inner = bounds.shape[1] - 1
        np.subtract(bounds[:, 1:], bounds[:, :-1], out=out[:, :inner])
        if inner < count:
            np.subtract(1.0, bounds[:, -1], out=out[:, -1])
        return out
    np.subtract(points[:, m:], points[:, :-m], out=out[:, : n - m])
    tail = out[:, n - m :]
    np.add(1.0, points[:, :m], out=tail)
    np.subtract(tail, points[:, n - m :], out=tail)
    return out
