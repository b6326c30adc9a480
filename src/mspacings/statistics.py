"""Sum-statistics over m-tuples of scaled spacings.

Each statistic applies a function to windows of the scaled simple spacings
(or to the scaled window totals) and reduces with an exact, correctly
rounded sum (:func:`exact_row_sums`, equal to ``math.fsum``), so a fixed
sample always yields a bit-identical value.  The variants share one table,
``VARIANTS``, and one evaluator over (rows, n) matrices of sorted points:
:func:`evaluate_rows` serves the Monte Carlo engine, and the one-sample
functions below are its one-row case.

Variants
--------
Z : circular sum of a tuple function over all n windows of simple spacings.
V : circular sum of a scalar function of the overlapping m-spacings.
W : like V but restricted to the n - m windows that do not wrap.
Q : sum over the floor(n/m) disjoint blocks.
R : circular sum with a per-position family of tuple functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DomainViolation,
    FamilyLengthMismatch,
    OrderTooLarge,
    UnsupportedKind,
    ZeroSpacing,
)
from .spacings import CircularSample, SpacingScheme, spacing_rows


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
        frozen = tuple(
            (fns[rows[0]], np.asarray(rows, dtype=np.intp)) for rows in groups.values()
        )
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

    def evaluate_all(self, windows: np.ndarray) -> np.ndarray:
        """Value of function k on window k, for all k at once."""
        out = np.empty(len(self.functions), dtype=np.float64)
        for fn, rows in self._groups:
            out[rows] = fn.evaluate(windows[rows])
        return out


def _xlogx(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    pos = u > 0.0
    out[pos] = u[pos] * np.log(u[pos])
    return out


@dataclass(frozen=True)
class StatisticKind:
    """A named scalar function applied to scaled window totals."""

    name: str
    sum_fn: Callable[[np.ndarray], np.ndarray]
    requires_positive: bool = False

    CLOSED_FORM_NAMES: ClassVar[tuple[str, ...]] = ("greenwood", "moran", "entropy")

    @property
    def has_closed_form(self) -> bool:
        return self.name in self.CLOSED_FORM_NAMES

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

_KINDS_BY_NAME = {k.name: k for k in (GREENWOOD, MORAN, ENTROPY)}


def custom_sum(fn: Callable, name: str = "custom-sum", requires_positive: bool = False) -> StatisticKind:
    """A user-supplied scalar function of the scaled window total."""
    return StatisticKind(name=name, sum_fn=fn, requires_positive=requires_positive)


def resolve_kind(kind) -> StatisticKind:
    """Accept a StatisticKind or one of the registered names."""
    if isinstance(kind, StatisticKind):
        return kind
    try:
        return _KINDS_BY_NAME[str(kind).lower()]
    except KeyError:
        raise UnsupportedKind(f"unknown statistic kind {kind!r}; "
                              f"known: {sorted(_KINDS_BY_NAME)}") from None


@dataclass(frozen=True)
class StatisticResult:
    """One evaluated statistic with the context needed to standardize it."""

    value: float
    kind: str
    n: int
    m: int
    variant: str
    summand_count: int


def exact_row_sums(matrix) -> np.ndarray:
    """Correctly rounded sum of every row of a 2-D matrix of finite doubles,
    equal bit for bit to ``math.fsum`` of the row.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 2008): with ``2**M >= count + 2`` and
    ``max|p| < 2**e`` in a row, ``sigma = 2**(e + M)`` splits the row into
    ``q = (p + sigma) - sigma``, whose entries are multiples of one power of
    two small enough that their row sum is exact, and the exact remainder
    ``p - q``, which is about 2**(53 - M) times smaller.  Passes repeat until
    every remainder is zero; the few exact pass sums of a row are then
    rounded once by ``math.fsum``.  A row whose maximum is too large for
    ``sigma`` to be finite (or that holds a non-finite value) is summed by
    ``math.fsum`` directly.
    """
    p = np.array(matrix, dtype=np.float64)
    rows, count = p.shape
    shift = (count + 1).bit_length()
    q = np.empty_like(p)
    top = np.abs(p, out=q).max(axis=1, initial=0.0)
    direct = {}
    for r in np.flatnonzero(~(top < math.ldexp(1.0, 1023 - shift))).tolist():
        direct[r] = math.fsum(p[r].tolist())
        p[r] = 0.0
        top[r] = 0.0
    passes = []
    while top.any():
        sigma = np.ldexp(2.0**shift, np.frexp(top)[1])[:, None]
        np.add(p, sigma, out=q)
        q -= sigma
        p -= q
        passes.append(q.sum(axis=1))
        top = np.abs(p, out=q).max(axis=1)
    parts = np.reshape(passes, (len(passes), rows)).T.tolist()
    sums = np.array([math.fsum(row) for row in parts])
    for r, value in direct.items():
        sums[r] = value
    return sums


def _first(mask: np.ndarray) -> tuple[int, int]:
    """(row, column) of the first set entry of a 2-D mask, in row-major order."""
    return divmod(int(np.flatnonzero(mask)[0]), mask.shape[1])


def _scaled_rows(points: np.ndarray, scheme: SpacingScheme) -> np.ndarray:
    """Spacing rows multiplied by the arc count n."""
    scaled = spacing_rows(points, scheme)
    scaled *= points.shape[1]
    return scaled


def _kind_summands(kind: StatisticKind, x: np.ndarray) -> np.ndarray:
    """``kind.sum_fn`` of scaled spacing rows, checking its domain."""
    if kind.requires_positive and not (x > 0.0).all():
        raise ZeroSpacing(_first(x <= 0.0)[1])
    with np.errstate(all="ignore"):
        hv = np.asarray(kind.sum_fn(x), dtype=np.float64)
    bad = ~np.isfinite(hv)
    if bad.any():
        r, k = _first(bad)
        raise DomainViolation(k, f"{kind.name} returned {hv[r, k]!r} at value {x[r, k]!r}")
    return hv


def _overlapping_summands(points: np.ndarray, m: int, kind: StatisticKind) -> np.ndarray:
    return _kind_summands(kind, _scaled_rows(points, SpacingScheme.overlapping(m)))


def _line_summands(points: np.ndarray, m: int, kind: StatisticKind) -> np.ndarray:
    x = _scaled_rows(points, SpacingScheme.overlapping(m))
    return _kind_summands(kind, x[:, : points.shape[1] - m])


def _disjoint_summands(points: np.ndarray, m: int, kind: StatisticKind) -> np.ndarray:
    return _kind_summands(kind, _scaled_rows(points, SpacingScheme.disjoint(m)))


def _window_summands(points: np.ndarray, m: int, fn) -> np.ndarray:
    """A tuple function (or a family, one function per position) of every
    window of m consecutive scaled simple spacings, row k starting at arc k."""
    n = points.shape[1]
    family = isinstance(fn, TupleFunctionFamily)
    if family and len(fn) != n:
        raise FamilyLengthMismatch(f"family has {len(fn)} functions, sample has {n} arcs")
    if fn.arity != m:
        raise ValueError(f"tuple function has arity {fn.arity}, expected {m}")
    if m >= n:
        raise OrderTooLarge(f"order {m} needs more than {m} arcs, sample has {n}")
    s = _scaled_rows(points, SpacingScheme.simple())
    if m > 1:
        s = np.concatenate([s, s[:, : m - 1]], axis=1)
    windows = sliding_window_view(s, m, axis=1)
    if family:
        def evaluate(w):
            return np.stack([fn.evaluate_all(row) for row in w])
        requires_positive = any(f.requires_positive for f in fn.functions)
    else:
        def evaluate(w):
            return fn.evaluate(w.reshape(-1, m)).reshape(w.shape[:2])
        requires_positive = fn.requires_positive
    if requires_positive:
        mins = windows.min(axis=2)
        if not (mins > 0.0).all():
            raise DomainViolation(_first(mins <= 0.0)[1], "window has a non-positive coordinate")
    with np.errstate(all="ignore"):
        hv = evaluate(windows)
    bad = ~np.isfinite(hv)
    if bad.any():
        r, k = _first(bad)
        raise DomainViolation(k, f"value {hv[r, k]!r}")
    return hv


def _kind(fn, m: int) -> StatisticKind:
    return resolve_kind(fn)


def _tuple_function(fn, m: int) -> TupleFunction:
    return fn if isinstance(fn, TupleFunction) else resolve_kind(fn).as_tuple_function(m)


def _family(fn, m: int) -> TupleFunctionFamily:
    return fn


@dataclass(frozen=True)
class Variant:
    """One statistic variant.

    ``resolve(fn, m)`` turns the caller's function argument into what
    ``summands(points, m, fn)`` evaluates, which maps a (rows, n) matrix of
    anchored sorted points to the (rows, count) matrix of summands.
    """

    name: str
    resolve: Callable
    summands: Callable


#: The one table of statistic variants, keyed by their lower-case letter.
VARIANTS = {
    "v": Variant("V", _kind, _overlapping_summands),
    "w": Variant("W", _kind, _line_summands),
    "q": Variant("Q", _kind, _disjoint_summands),
    "z": Variant("Z", _tuple_function, _window_summands),
    "r": Variant("R", _family, _window_summands),
}

#: Variants that evaluate a scalar statistic kind (the CLI's and the simulator's).
KIND_VARIANTS = ("v", "w", "q", "z")


def evaluate_rows(points: np.ndarray, m: int, fn, variant: str) -> np.ndarray:
    """Values of statistic ``variant`` on every row of a (rows, n) matrix of
    anchored sorted points, each reduced by :func:`exact_row_sums`.

    ``fn`` is a statistic kind (or its name) for v, w, q and z, a tuple
    function for z, and a family for r.  Domain errors report the first
    failing summand of the first failing row, in row-major order.
    """
    spec = VARIANTS[variant]
    return exact_row_sums(spec.summands(points, m, spec.resolve(fn, m)))


def evaluate(sample: CircularSample, m: int, fn, variant: str) -> StatisticResult:
    """Statistic ``variant`` of one sample: the one-row case of
    :func:`evaluate_rows`."""
    spec = VARIANTS[variant]
    fn = spec.resolve(fn, m)
    hv = spec.summands(sample.points.reshape(1, -1), m, fn)
    return StatisticResult(value=float(exact_row_sums(hv)[0]), kind=fn.name,
                           n=sample.arc_count, m=m, variant=spec.name,
                           summand_count=hv.shape[1])


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
