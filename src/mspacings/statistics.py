"""Sum-statistics over m-tuples of scaled spacings.

Each statistic applies a function to windows of the scaled simple spacings
(or to the scaled window totals) and reduces every row of summands with
numpy's row sum, ``hv.sum(axis=1)``.  numpy adds each contiguous row in one
order, its pairwise summation, whatever the row count and the row stride, so
a fixed sample yields a bit-identical value whether it is evaluated alone or
as one row of a chunk.  The variants share one table, ``VARIANTS``, and one
evaluator over (rows, n) matrices of sorted points: :func:`evaluate_rows`
serves the Monte Carlo engine and ``meancheck``, and the one-sample
functions below are its one-row case.

Variants
--------
Z : circular sum of a tuple function over all n windows of simple spacings,
    or of a statistic kind over the n window totals (the values of V, summed
    a second way).
V : circular sum of a scalar function of the overlapping m-spacings.
W : like V but restricted to the n - m windows that do not wrap.
Q : sum over the floor(n/m) disjoint blocks.
R : circular sum with a per-position family of tuple functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainViolation,
    FamilyLengthMismatch,
    OrderTooLarge,
    SummandOverflow,
    UnsupportedKind,
    ZeroSpacing,
)
from .lagcov import window_sums
from .spacings import CircularSample, spacing_rows


@dataclass(frozen=True)
class TupleFunction:
    """A real function of an m-tuple of nonnegative reals.

    ``fn`` receives the m window coordinates as positional scalars; when
    ``vectorized`` is set it instead receives the whole (count, m) window
    matrix and must return one value per row.  ``requires_positive`` declares
    that every coordinate must be strictly positive (logarithm-style
    domains); violations are reported with the window index.
    """

    fn: Callable
    arity: int
    vectorized: bool = False
    requires_positive: bool = False
    name: str = "custom"

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"arity must be >= 1, got {self.arity}")

    def evaluate(self, windows: np.ndarray) -> np.ndarray:
        """Apply to every row of a (count, arity) window matrix."""
        count = windows.shape[0]
        if self.vectorized:
            out = np.asarray(self.fn(windows), dtype=np.float64).reshape(count)
        else:
            out = np.fromiter(
                (float(self.fn(*row)) for row in windows),
                dtype=np.float64,
                count=count,
            )
        return out


@dataclass(frozen=True)
class TupleFunctionFamily:
    """An indexed, fixed-arity collection of tuple functions.

    Evaluation groups positions that share a function object, so families
    built from a handful of distinct functions evaluate vectorized.
    """

    functions: tuple[TupleFunction, ...]
    _groups: tuple = field(init=False, repr=False, compare=False)

    name: ClassVar[str] = "family"

    def __post_init__(self):
        fns = tuple(self.functions)
        if not fns:
            raise FamilyLengthMismatch("family must contain at least one function")
        arity = fns[0].arity
        if any(f.arity != arity for f in fns):
            raise ValueError("family members must share one arity")
        groups: dict[int, list[int]] = {}
        for k, f in enumerate(fns):
            groups.setdefault(id(f), []).append(k)
        frozen = tuple((fns[rows[0]], _positions(rows)) for rows in groups.values())
        object.__setattr__(self, "functions", fns)
        object.__setattr__(self, "_groups", frozen)

    def __len__(self) -> int:
        return len(self.functions)

    @property
    def arity(self) -> int:
        return self.functions[0].arity

    @classmethod
    def constant(cls, h: TupleFunction, n: int) -> "TupleFunctionFamily":
        """The symmetric family using the same function at every position."""
        return cls((h,) * n)

    def evaluate_all(self, windows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Value of function k on window k, for all k at once.

        ``windows`` is an (n, m) window matrix or a stack (..., n, m) of
        them; the result has shape (n,) or (..., n) and is written into
        ``out`` when it is given.  Each function is called once, on the
        windows of all its positions across the whole stack.
        """
        if out is None:
            out = np.empty(windows.shape[:-2] + (len(self.functions),), dtype=np.float64)
        for fn, positions in self._groups:
            picked = windows[..., positions, :]
            if self.arity > 1 and not picked.flags.c_contiguous:
                # a reshape would copy one window (arity values) per inner
                # loop; copying column by column runs over all positions
                columns = np.empty(picked.shape, dtype=picked.dtype)
                for j in range(self.arity):
                    columns[..., j] = picked[..., j]
                picked = columns
            out[..., positions] = fn.evaluate(picked.reshape(-1, self.arity)).reshape(
                picked.shape[:-1])
        return out


def _positions(rows: list[int]):
    """Ascending window positions as a slice when they are evenly spaced
    (a view, not a gathered copy), otherwise as an index array."""
    steps = set(np.diff(rows).tolist())
    if len(steps) > 1:
        return np.asarray(rows, dtype=np.intp)
    return slice(rows[0], rows[-1] + 1, steps.pop() if steps else 1)


def _xlogx(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u log u, and +0.0 wherever u is not positive (zero, -0.0, NaN or
    negative), written into ``out`` when it is given.  ``out`` must not
    overlap ``u``: the logarithms are stored there before the products."""
    u = np.asarray(u, dtype=np.float64)
    if out is not None and np.may_share_memory(u, out):
        raise ValueError("out must not overlap the input")
    # the minimum is NaN if any entry is; a 0-d result must stay an array
    if u.ndim and u.size and u.min() > 0.0:
        out = np.log(u, out=out)
        return np.multiply(u, out, out=out)
    if out is None:
        out = np.zeros_like(u)
    else:
        out[...] = 0.0
    pos = u > 0.0
    out[pos] = u[pos] * np.log(u[pos])
    return out


@dataclass(frozen=True)
class StatisticKind:
    """A named scalar function applied to scaled window totals."""

    name: str
    sum_fn: Callable[[np.ndarray], np.ndarray]
    requires_positive: bool = False

    def as_tuple_function(self, m: int) -> TupleFunction:
        """The order-m tuple function that applies ``sum_fn`` to the row total."""
        sum_fn = self.sum_fn
        return TupleFunction(
            fn=lambda windows: sum_fn(windows.sum(axis=1)),
            arity=m,
            vectorized=True,
            name=self.name,
        )


#: Squared spacings; large values flag clustering.
GREENWOOD = StatisticKind("greenwood", np.square)
#: Log spacings; undefined on ties.
MORAN = StatisticKind("moran", np.log, requires_positive=True)
#: x log x with the 0 log 0 = 0 convention.
ENTROPY = StatisticKind("entropy", _xlogx)

#: The one registry of named kinds, the ones with closed-form moments.
NAMED_KINDS = {k.name: k for k in (GREENWOOD, MORAN, ENTROPY)}


def custom_sum(fn: Callable, name: str = "custom-sum", requires_positive: bool = False) -> StatisticKind:
    """A user-supplied scalar function of the scaled window total."""
    return StatisticKind(name=name, sum_fn=fn, requires_positive=requires_positive)


def resolve_kind(kind) -> StatisticKind:
    """Accept a StatisticKind or one of the registered names."""
    if isinstance(kind, StatisticKind):
        return kind
    try:
        return NAMED_KINDS[str(kind).lower()]
    except KeyError:
        raise UnsupportedKind(f"unknown statistic kind {kind!r}; "
                              f"known: {sorted(NAMED_KINDS)}") from None


@dataclass(frozen=True)
class StatisticResult:
    """One evaluated statistic with the context needed to standardize it."""

    value: float
    kind: str
    n: int
    m: int
    variant: str
    summand_count: int


def _first(mask: np.ndarray) -> tuple[int, int]:
    """(row, column) of the first set entry of a 2-D mask, in row-major order."""
    return divmod(int(np.flatnonzero(mask)[0]), mask.shape[1])


class ChunkWorkspace:
    """Buffers for evaluating chunks of at most ``rows`` rows of n anchored
    points at order m, allocated once and reused by every chunk.

    ``points`` holds a chunk's points, ``values`` its spacings (or window
    totals), and ``summands`` the summands, with m - 1 more columns for the
    circular extension of the simple spacings.  The summands never overwrite
    ``points``, and each row of them is summed where it lies.

    The three arrays share one allocation.  glibc's malloc maps the first
    block this large and, when it is freed, raises its heap trim threshold to
    twice the block's size; later workspaces of that size then come from the
    heap and keep their pages, instead of being returned to the system and
    faulted in again on every call.
    """

    def __init__(self, rows: int, n: int, m: int):
        # an order outside [1, n) is rejected before the extension is used
        width = n + min(max(m, 1), n) - 1
        block = np.empty(rows * (2 * n + width))
        self.points = block[: rows * n].reshape(rows, n)
        self.values = block[rows * n : 2 * rows * n].reshape(rows, n)
        self.summands = block[2 * rows * n :].reshape(rows, width)


def _scaled_rows(points: np.ndarray, m: int, out: np.ndarray,
                 disjoint: bool = False) -> np.ndarray:
    """Spacing rows multiplied by the arc count n, written into the first
    columns of ``out``."""
    scaled = spacing_rows(points, m, disjoint, out[: len(points)])
    scaled *= points.shape[1]
    return scaled


def _apply_kind(kind: StatisticKind, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``kind.sum_fn(x)`` written into ``out``, which must not overlap ``x``;
    the named kinds write there directly."""
    with np.errstate(all="ignore"):
        if kind in NAMED_KINDS.values():
            return kind.sum_fn(x, out=out)
        out[...] = kind.sum_fn(x)
    return out


def _scan(hv: np.ndarray, detail=None) -> None:
    """A DomainViolation at the first non-finite summand of ``hv``, in
    row-major order, described by ``detail(r, k)`` (by default its value);
    nothing if every summand is finite."""
    bad = ~np.isfinite(hv)
    if bad.any():
        r, k = _first(bad)
        raise DomainViolation(k, detail(r, k) if detail else f"value {float(hv[r, k])!r}")


def _spacing_scan(hv: np.ndarray, kind: StatisticKind, work: ChunkWorkspace) -> None:
    """:func:`_scan` of V, W and Q summands, naming the kind and the scaled
    spacing, which ``work.values`` still holds, at the first bad summand."""
    x = work.values[: hv.shape[0], : hv.shape[1]]
    _scan(hv, lambda r, k: f"{kind.name} returned {float(hv[r, k])!r} "
                           f"at value {float(x[r, k])!r}")


def _window_scan(hv: np.ndarray, fn, work: ChunkWorkspace) -> None:
    """:func:`_scan` of Z and R summands, naming the bad value."""
    _scan(hv)


def _spacing_summands(points: np.ndarray, m: int, kind: StatisticKind, work: ChunkWorkspace,
                      disjoint: bool = False, line: bool = False) -> np.ndarray:
    """V, W and Q: ``kind.sum_fn`` of the scaled m-spacings, the disjoint
    ones when ``disjoint`` is set (Q), and only the n - m windows that do not
    wrap when ``line`` is set (W)."""
    x = _scaled_rows(points, m, work.values, disjoint)
    if line:
        x = x[:, : points.shape[1] - m]
    if kind.requires_positive and not (x > 0.0).all():
        raise ZeroSpacing(_first(x <= 0.0)[1])
    return _apply_kind(kind, x, work.summands[: x.shape[0], : x.shape[1]])


def _extended_simple(points: np.ndarray, m: int, work: ChunkWorkspace) -> np.ndarray:
    """The scaled simple spacings of every row followed by their first m - 1,
    so that every window of m consecutive arcs is a slice, in the summand
    buffer."""
    n = points.shape[1]
    if m < 1:
        raise ValueError(f"window order must be >= 1, got {m}")
    if m >= n:
        raise OrderTooLarge(f"order {m} needs more than {m} arcs, sample has {n}")
    ext = work.summands[: len(points), : n + m - 1]
    _scaled_rows(points, 1, ext)
    ext[:, n:] = ext[:, : m - 1]
    return ext


def _window_summands(points: np.ndarray, m: int, fn, work: ChunkWorkspace) -> np.ndarray:
    """Z and R: ``fn`` of every window of m consecutive scaled simple
    spacings, row k starting at arc k.

    A statistic kind applies ``sum_fn`` to the window totals, which gives the
    values of its tuple function ``kind.as_tuple_function(m)`` without a copy
    of the windows; a family applies its function k to window k.
    """
    n = points.shape[1]
    out = work.summands[: len(points), :n]
    if isinstance(fn, StatisticKind):
        totals = window_sums(_extended_simple(points, m, work), m,
                             work.values[: len(points), :n])
        return _apply_kind(fn, totals, out)
    family = isinstance(fn, TupleFunctionFamily)
    if family and len(fn) != n:
        raise FamilyLengthMismatch(f"family has {len(fn)} functions, sample has {n} arcs")
    if fn.arity != m:
        raise ValueError(f"tuple function has arity {fn.arity}, expected {m}")
    windows = sliding_window_view(_extended_simple(points, m, work), m, axis=1)
    if family:
        positive = np.array([f.requires_positive for f in fn.functions])
    else:
        positive = np.full(n, fn.requires_positive)
    if positive.any():
        bad = ~(windows.min(axis=2) > 0.0) & positive
        if bad.any():
            raise DomainViolation(_first(bad)[1], "window has a non-positive coordinate")
    with np.errstate(all="ignore"):
        if family:
            hv = fn.evaluate_all(windows)
        else:
            hv = fn.evaluate(windows.reshape(-1, m)).reshape(windows.shape[:2])
    # the windows are views of the buffer under ``out``, so it is written last
    out[...] = hv
    return out


@dataclass(frozen=True)
class Variant:
    """One statistic variant.

    ``summands(points, m, fn, work)`` maps a (rows, n) matrix of anchored
    sorted points to the (rows, count) matrix of summands, in
    ``work.summands``.  ``fn`` must be an instance of one of the types in
    ``takes``; any other argument is read as a kind name when the variant
    takes statistic kinds, and refused otherwise.

    The summands may be non-finite.  ``scan(hv, fn, work)``, called on them
    before ``work`` is used again, raises a DomainViolation at the first
    non-finite one.  Every reduction of the summands runs it when a row
    result comes out non-finite, which any non-finite summand makes it, so
    finite summands are never scanned.
    """

    name: str
    takes: tuple[type, ...]
    summands: Callable
    scan: Callable


#: The one table of statistic variants, keyed by their lower-case letter.
VARIANTS = {
    "v": Variant("V", (StatisticKind,), _spacing_summands, _spacing_scan),
    "w": Variant("W", (StatisticKind,), partial(_spacing_summands, line=True), _spacing_scan),
    "q": Variant("Q", (StatisticKind,), partial(_spacing_summands, disjoint=True),
                 _spacing_scan),
    "z": Variant("Z", (StatisticKind, TupleFunction), _window_summands, _window_scan),
    "r": Variant("R", (TupleFunctionFamily, TupleFunction), _window_summands, _window_scan),
}

#: Variants that evaluate a scalar statistic kind (the CLI's and the simulator's).
KIND_VARIANTS = ("v", "w", "q", "z")


def _evaluate(points: np.ndarray, m: int, fn, variant: str,
              work: ChunkWorkspace | None):
    """(resolved fn, summand count, row values) of ``variant`` on ``points``."""
    if (spec := VARIANTS.get(variant)) is None:
        raise ValueError(f"variant must be one of {tuple(VARIANTS)}, got {variant!r}")
    if not isinstance(fn, spec.takes):
        if StatisticKind not in spec.takes:
            raise UnsupportedKind(f"variant {spec.name} takes "
                                  f"{' or '.join(t.__name__ for t in spec.takes)}, "
                                  f"not {type(fn).__name__}")
        fn = resolve_kind(fn)
    if work is None:
        work = ChunkWorkspace(*points.shape, m)
    hv = spec.summands(points, m, fn, work)
    with np.errstate(over="ignore", invalid="ignore"):
        totals = hv.sum(axis=1)
    # any non-finite summand makes its row total non-finite, so a scan that
    # finds none leaves finite summands whose sum overflowed
    if not np.isfinite(totals).all():
        spec.scan(hv, fn, work)
        raise _overflow(hv, totals)
    return fn, hv.shape[1], totals


def _overflow(hv: np.ndarray, totals: np.ndarray) -> SummandOverflow:
    """The error for the first row whose finite summands sum past the largest
    double, at its summand of largest magnitude."""
    r = int(np.flatnonzero(~np.isfinite(totals))[0])
    k = int(np.argmax(np.abs(hv[r])))
    return SummandOverflow(k, float(hv[r, k]), hv.shape[1])


def evaluate_rows(points: np.ndarray, m: int, fn, variant: str,
                  work: ChunkWorkspace | None = None) -> np.ndarray:
    """Values of statistic ``variant`` on every row of a (rows, n) matrix of
    anchored sorted points, each the row sum of its summands.

    ``fn`` is a statistic kind (or its name) for v, w, q and z, a tuple
    function for z, and a family for r.  Domain errors report the first
    failing summand of the first failing row, in row-major order.  ``work``
    supplies the buffers (a fresh workspace by default); ``points`` may be
    ``work.points`` or a view of it, and is left unchanged.
    """
    return _evaluate(points, m, fn, variant, work)[2]


def evaluate(sample: CircularSample, m: int, fn, variant: str) -> StatisticResult:
    """Statistic ``variant`` of one sample: the one-row case of
    :func:`evaluate_rows`."""
    fn, count, values = _evaluate(sample.points.reshape(1, -1), m, fn, variant, None)
    return StatisticResult(value=float(values[0]), kind=fn.name, n=sample.arc_count,
                           m=m, variant=VARIANTS[variant].name, summand_count=count)


def statistic_Z(sample: CircularSample, m: int, h: TupleFunction) -> StatisticResult:
    """Circular tuple-function sum over all n windows of scaled simple spacings."""
    return evaluate(sample, m, h, "z")


def statistic_V(sample: CircularSample, m: int, kind) -> StatisticResult:
    """Circular sum of a scalar function of the scaled overlapping m-spacings."""
    return evaluate(sample, m, kind, "v")


def statistic_W(sample: CircularSample, m: int, kind) -> StatisticResult:
    """Line version of V: only the n - m windows that do not wrap past 1."""
    return evaluate(sample, m, kind, "w")


def statistic_Q(sample: CircularSample, m: int, kind) -> StatisticResult:
    """Sum of a scalar function of the scaled disjoint m-spacings."""
    return evaluate(sample, m, kind, "q")


def statistic_R(sample: CircularSample, m: int, family: TupleFunctionFamily) -> StatisticResult:
    """Circular sum with one tuple function per window position."""
    return evaluate(sample, m, family, "r")
