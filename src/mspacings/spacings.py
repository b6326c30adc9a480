"""Circular samples on the unit interval and their m-spacings.

A sample of observations in [0, 1) is anchored with an extra point at 0 and
read as points on a circle of unit circumference, so n points delimit n arcs
that sum to one.  Spacings of order m come in three flavours:

* simple: the n adjacent arcs,
* overlapping: every window of m consecutive arcs, wrapping past 1,
* disjoint: consecutive blocks of m arcs with no sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

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


@dataclass(frozen=True)
class SpacingScheme:
    """Spacing flavour plus order; ``simple`` is fixed at order 1."""

    mode: str
    m: int = 1

    _MODES: ClassVar[tuple[str, ...]] = ("simple", "overlapping", "disjoint")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValueError(f"unknown spacing mode {self.mode!r}")
        if self.m < 1:
            raise ValueError(f"spacing order must be >= 1, got {self.m}")
        if self.mode == "simple" and self.m != 1:
            raise ValueError("simple spacings have order 1")

    @classmethod
    def simple(cls) -> "SpacingScheme":
        return cls("simple", 1)

    @classmethod
    def overlapping(cls, m: int) -> "SpacingScheme":
        return cls("overlapping", m)

    @classmethod
    def disjoint(cls, m: int) -> "SpacingScheme":
        return cls("disjoint", m)


@dataclass(frozen=True)
class SpacingsVector:
    """Arc lengths under one scheme, with the source sample's arc count."""

    values: np.ndarray
    m: int
    scheme: SpacingScheme
    n: int


def anchored_points(values) -> np.ndarray:
    """Anchored circular points of every row of a (rows, k) observation matrix.

    Row r of the result holds the anchor 0 followed by row r of ``values``
    sorted ascending, so a (rows, k) matrix becomes (rows, k + 1) points.  Ties
    are kept; they surface later as zero spacings.

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
    ok = (arr >= 0.0) & (arr < 1.0)  # NaN fails both comparisons
    if not ok.all():
        row, i = (int(k) for k in np.argwhere(~ok)[0])
        raise ValueOutOfRange(i, float(arr[row, i]))
    pts = np.empty((arr.shape[0], arr.shape[1] + 1), dtype=np.float64)
    pts[:, 0] = 0.0
    pts[:, 1:] = arr
    pts[:, 1:].sort(axis=1)
    return pts


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


def spacing_rows(points: np.ndarray, scheme: SpacingScheme) -> np.ndarray:
    """Arc lengths under ``scheme`` of every row of a (rows, n) matrix of
    anchored sorted points, as a (rows, count) matrix.

    Simple and overlapping spacings both have n columns; the overlapping ones
    wrap around the circle (the point k past the top is 1 plus point k).
    Disjoint spacings keep only the floor(n/m) complete blocks.
    """
    n = points.shape[1]
    m = scheme.m
    if m >= n:
        raise OrderTooLarge(f"order {m} needs more than {m} arcs, sample has {n}")
    if scheme.mode == "simple":
        return np.diff(points, axis=1, append=1.0)
    if scheme.mode == "overlapping":
        vals = np.empty(points.shape)
        np.subtract(points[:, m:], points[:, :-m], out=vals[:, : n - m])
        np.subtract(1.0 + points[:, :m], points[:, n - m :], out=vals[:, n - m :])
        return vals
    ext = np.concatenate([points, np.ones((points.shape[0], 1))], axis=1)
    return np.diff(ext[:, np.arange(n // m + 1) * m], axis=1)


def m_spacings(sample: CircularSample, scheme: SpacingScheme) -> SpacingsVector:
    """Arc lengths of ``sample`` under ``scheme``: the one-row case of
    :func:`spacing_rows`."""
    vals = spacing_rows(sample.points.reshape(1, -1), scheme)[0]
    vals.setflags(write=False)
    return SpacingsVector(values=vals, m=scheme.m, scheme=scheme, n=sample.arc_count)


def scaled_values(spacings: SpacingsVector) -> np.ndarray:
    """Spacings multiplied by the arc count n, the statistics' natural scale."""
    return spacings.n * spacings.values
