"""Null asymptotics: closed-form moments, standardization, the first-order
mean correction, variance estimation for general summand families, and a
numeric check of the normal-limit moment condition.

The sampling model throughout is the exponential representation of uniform
spacings: scaled spacings behave like iid standard exponentials x_k (extended
circularly, x_{n+j} = x_j), and window totals |x_k^m| = x_k + ... + x_{k+m-1}
stand in for the scaled overlapping m-spacings.

The stationary-stream estimators draw one stream block by block and pass
over it in blocks (``lagcov.window_pass``, ``lagcov.lag_pass`` and, for
:func:`clt_condition_ratio`, ``lagcov.stream_moment``), keeping one
stream-length array, the draws: each pass rebuilds the window totals and
statistic values of a block in cache.  Their results equal those of
:func:`stream_window_values` followed by ``lagcov.components``,
``lagcov.batched_components`` and ``lagcov.projection_moment`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateVariance,
    FamilyLengthMismatch,
    NonFiniteSample,
    UnsupportedKind,
    checked_index,
)
from .lagcov import (
    DEFAULT_BATCHES,
    MIN_DRAWS,
    Estimate,
    batch_std_error,
    lag_pass,
    stream_moment,
    window_pass,
    window_sums,
)
from .rng import CHUNK_VALUES, SeededStream
from .specfun import digamma_int, hurwitz_zeta2
from .statistics import (
    KIND_VARIANTS,
    NAMED_KINDS,
    StatisticResult,
    TupleFunction,
    TupleFunctionFamily,
    resolve_kind,
)

_MIN_REPLICATIONS = 100
_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class AsymptoticMoments:
    """Leading-order null mean and variance of a statistic, with the
    per-window coefficients they scale from."""

    mean: float
    variance: float
    per_term_mean: float
    per_term_variance: float

    def sd(self) -> float:
        """The standard deviation that standardizes the statistic.

        Raises DegenerateVariance unless the variance is finite and positive,
        and ValueError unless the mean is finite.
        """
        if not 0.0 < self.variance < math.inf:
            raise DegenerateVariance(f"variance {self.variance!r} is not finite and positive")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean {self.mean!r} is not finite")
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class GeneralMoments:
    """Monte Carlo estimates of the general variance ingredients.

    A is the summed expectation of the family; B the average covariance of
    each summand with its window total; C the average two-sided
    lag-covariance total; sigma2 = n (C - B^2).
    """

    A: float
    B: float
    C: float
    sigma2: float
    se_A: float
    se_B: float
    se_C: float
    se_sigma2: float
    n: int
    m: int
    replications: int
    seed: int

    def as_asymptotic_moments(self) -> "AsymptoticMoments":
        """Bridge to standardization; sigma2 that went negative from MC noise
        is clamped to 0 here while the raw value stays reported above."""
        variance = max(self.sigma2, 0.0)
        return AsymptoticMoments(mean=self.A, variance=variance,
                                 per_term_mean=self.A / self.n,
                                 per_term_variance=variance / self.n)


@dataclass(frozen=True)
class TestReport:
    """A standardized statistic with its two-sided and one-sided p-values."""

    value: float
    kind: str
    n: int
    m: int
    variant: str
    summand_count: int
    mean: float
    variance: float
    z: float
    p_two_sided: float
    p_upper: float
    p_lower: float


def closed_form_moments(kind, n: int, m: int) -> AsymptoticMoments:
    """Leading-order null moments for the named kinds.

    Per window of order m (psi is the digamma function, z2 the inverse-square
    tail sum from its argument):

    * greenwood: mean m(m+1), variance 2m(m+1)(2m+1)/3
    * moran:     mean psi(m), variance (2m^2-2m+1) z2(m) - 2m + 1
    * entropy:   mean m psi(m+1),
                 variance (2 (m(m+1))^2 z2(m+2) - m(m+1)(2m-1)) / 4

    The statistic-level moments multiply these by n.
    """
    (window, _, _), n, m = _closed_forms(kind, m, n)
    per_mean, per_var = window(m)
    return AsymptoticMoments(mean=float(n * per_mean), variance=float(n * per_var),
                             per_term_mean=float(per_mean), per_term_variance=float(per_var))


def null_moments(kind, n: int, m: int, variant: str) -> AsymptoticMoments:
    """The null moments that standardize ``variant`` (one of ``KIND_VARIANTS``).

    Today every variant gets V's leading-order :func:`closed_form_moments`,
    though W sums n - m windows and Q floor(n/m) blocks: both are off-centre
    at m > 1."""
    if variant not in KIND_VARIANTS:
        raise ValueError(f"variant must be one of {KIND_VARIANTS}, got {variant!r}")
    return closed_form_moments(kind, n, m)


def standardize(result: StatisticResult, moments: AsymptoticMoments) -> TestReport:
    """Center and scale a statistic and attach normal p-values.

    The two-sided p-value is 2 (1 - Phi(|z|)); the one-sided tail
    probabilities are included for callers with a directional alternative.
    """
    z = (result.value - moments.mean) / moments.sd()
    return TestReport(
        value=result.value,
        kind=result.kind,
        n=result.n,
        m=result.m,
        variant=result.variant,
        summand_count=result.summand_count,
        mean=moments.mean,
        variance=moments.variance,
        z=z,
        p_two_sided=math.erfc(abs(z) * _SQRT_HALF),
        p_upper=0.5 * math.erfc(z * _SQRT_HALF),
        p_lower=0.5 * math.erfc(-z * _SQRT_HALF),
    )


def sigma_m_closed_form_large_m(kind, m: int) -> float:
    """Leading large-m form of the per-window variance coefficient.

    greenwood 4m^3/3, moran 1/(2m^2), entropy (m+5)/4.  These are leading
    orders only; scripts/sigma_table.py tabulates them against the exact
    coefficients, which they track to varying degrees at moderate m.
    """
    (_, _, large_m), _, m = _closed_forms(kind, m)
    return large_m(m)


def exact_mean_correction(kind, n: int, m: int) -> float:
    """Exact value of E[statistic] - n E[per-window term] at finite n.

    Scaled overlapping m-spacings have Beta(m, n - m) marginals scaled by n,
    which gives closed finite-n means for the named kinds:

    * greenwood: -n m (m+1) / (n+1)          (limit -m(m+1))
    * moran:     n (ln n - psi(n))            (limit 1/2)
    * entropy:   n m (ln n - psi(n+1))        (limit -m/2)
    """
    (_, correction, _), n, m = _closed_forms(kind, m, n)
    return correction(n, m)


# The closed forms of each registered kind: its per-window null (mean,
# variance) at order m, its exact mean correction at (n, m) and its leading
# large-m variance.  Greenwood's per-window moments are integers (one of m,
# m+1, 2m+1 is always divisible by 3), so n times them stays exact.
_CLOSED_FORMS = {
    "greenwood": (lambda m: (m * (m + 1), 2 * m * (m + 1) * (2 * m + 1) // 3),
                  lambda n, m: -n * m * (m + 1) / (n + 1),
                  lambda m: 4.0 * m**3 / 3.0),
    "moran": (lambda m: (digamma_int(m), (2 * m * m - 2 * m + 1) * hurwitz_zeta2(m) - 2 * m + 1),
              lambda n, m: n * (math.log(n) - digamma_int(n)),
              lambda m: 1.0 / (2.0 * m * m)),
    "entropy": (lambda m: (m * digamma_int(m + 1),
                           (2.0 * (m * (m + 1)) * (m * (m + 1)) * hurwitz_zeta2(m + 2)
                            - m * (m + 1) * (2 * m - 1)) / 4.0),
                lambda n, m: n * m * (math.log(n) - digamma_int(n + 1)),
                lambda m: (m + 5.0) / 4.0),
}


def _indices(**values) -> list[int]:
    """The given keyword values checked by :func:`checked_index`, in order."""
    return [checked_index(name, value) for name, value in values.items()]


def _closed_forms(kind, m, n=None):
    """(closed forms of ``kind``, n, m) with m >= 1, and n > m when n is
    given, checked as integers.  A custom kind that reuses a registered name
    is refused, not given that kind's forms."""
    kind = resolve_kind(kind)
    m = checked_index("m", m)
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if n is not None and (n := checked_index("n", n)) <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    if kind not in NAMED_KINDS.values():
        raise UnsupportedKind(f"no closed forms for kind {kind.name!r}: "
                              "it is not the registered kind of that name")
    return _CLOSED_FORMS[kind.name], n, m


def _values(h, m: int):
    """A function (x, w) -> ``h`` on the order-m windows of the draws x
    (along the last axis) whose totals are w, as a flat float64 array.

    ``h`` is a StatisticKind (or its name), applied to the totals, or a
    TupleFunction of arity m, applied to the windows; both are checked here.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if isinstance(h, TupleFunction):
        if h.arity != m:
            raise ValueError(f"tuple function has arity {h.arity}, expected {m}")

        def values(x, w):
            with np.errstate(all="ignore"):
                return h.evaluate(sliding_window_view(x, m, axis=-1).reshape(-1, m))
    else:
        kind = resolve_kind(h)

        def values(x, w):
            with np.errstate(all="ignore"):
                return np.asarray(kind.sum_fn(w), dtype=np.float64)
    return values


def _window_values(h, m: int, stream: SeededStream, shape: tuple[int, ...]):
    """Exponentials of ``shape`` drawn from ``stream``, with the totals w of
    every m consecutive draws along the last axis and h on every such window
    (see :func:`_values`).  Returns (x, hv, w), with hv and w flat.
    """
    values = _values(h, m)
    x = stream.exponentials(math.prod(shape)).reshape(shape)
    w = window_sums(x, m).reshape(-1)
    hv = values(x, w)
    if not np.isfinite(hv).all():
        k = int(np.flatnonzero(~np.isfinite(hv))[0])
        raise NonFiniteSample(f"statistic value at window {k} is not finite")
    return x, hv, w


def _stream_pass(h, m: int, draws: int, seed: int):
    """The stream of :func:`stream_window_values`, drawn into one array by
    ``lagcov.window_pass``: returns (x, values, mean_h, mean_w), where
    ``values`` gives h on windows (see :func:`_values`)."""
    values = _values(h, m)
    x = np.empty(draws + 2 * m)
    mean_h, mean_w = window_pass(SeededStream(seed, 0).exponentials, x, m, values)
    return x, values, mean_h, mean_w


def _sigma_components(h, m: int, draws: int, seed: int, holst: bool):
    """Full-stream and batch components of the per-window variance on stream
    (seed, 0); the Holst form only when ``holst`` is true."""
    m, draws, seed = _indices(m=m, draws=draws, seed=seed)
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be >= {MIN_DRAWS}")
    x, values, mean_h, mean_w = _stream_pass(h, m, draws, seed)
    return lag_pass(x, m, values, mean_h, mean_w, holst, batched=True)


def stream_window_values(h, m: int, draws: int, seed: int):
    """One stationary exponential stream (seed, 0) of length draws + 2m with
    its window totals and statistic values.

    ``h`` is a StatisticKind (applied to window totals) or a TupleFunction
    of arity m (applied to the windows themselves).  Returns (x, hv, w).
    """
    m, draws, seed = _indices(m=m, draws=draws, seed=seed)
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    return _window_values(h, m, SeededStream(seed, 0), (draws + 2 * m,))


def _mean_covs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean product of a and b centred on their means, along the last axis:
    one covariance per row of a stack of batches, in one pass."""
    a_dev = a - a.mean(axis=-1, keepdims=True)
    a_dev *= b - b.mean(axis=-1, keepdims=True)
    return a_dev.mean(axis=-1)


def mean_correction(h, m: int, draws: int, seed: int, stream_id: int = 0) -> Estimate:
    """First-order correction to the statistic's null mean.

    Estimates half the covariance of h with (w - m) - (w - m)^2, where w is
    the total of an iid standard-exponential m-window, by plain Monte Carlo
    over independent windows.  ``h`` may be a StatisticKind (applied to the
    total) or a TupleFunction of arity m.

    The window totals are taken once, by column adds (``window_sums``), and
    serve both a kind and w; they equal ``x.sum(axis=1)`` bit for bit, so a
    kind gives the same values as its tuple function (``as_tuple_function``).
    """
    m, draws, seed, stream_id = _indices(m=m, draws=draws, seed=seed, stream_id=stream_id)
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be >= {MIN_DRAWS}")
    _, hv, totals = _window_values(h, m, SeededStream(seed, stream_id), (draws, m))
    dev = totals - m
    target = dev - dev * dev
    full = 0.5 * float(_mean_covs(hv, target))
    used = draws // DEFAULT_BATCHES * DEFAULT_BATCHES
    batch_vals = 0.5 * _mean_covs(hv[:used].reshape(DEFAULT_BATCHES, -1),
                                  target[:used].reshape(DEFAULT_BATCHES, -1))
    return Estimate(full, batch_std_error(batch_vals))


def holst_comparison(h, m: int, draws: int, seed: int) -> tuple[Estimate, Estimate, Estimate]:
    """Both per-window variance assemblies from one stationary stream, and
    their difference.

    Returns (holst, corrected, holst - corrected), each with a batch-means
    standard error; see :func:`holst_vs_corrected`.
    """
    full, batch = _sigma_components(h, m, draws, seed, holst=True)
    holst = Estimate(full.holst, batch_std_error([c.holst for c in batch]))
    corrected = Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))
    difference = Estimate(full.holst - full.corrected,
                          batch_std_error([c.holst - c.corrected for c in batch]))
    return holst, corrected, difference


def holst_vs_corrected(h, m: int, draws: int, seed: int) -> tuple[Estimate, Estimate]:
    """Both per-window variance assemblies from one stationary stream.

    Returns (holst, corrected): the pooled cross-covariance form and the
    corrected form, each with a batch-means standard error.  The two use the
    same lag-covariance accumulators, so at m = 1 they coincide exactly; no
    ordering between them is asserted at any order.
    """
    holst, corrected, _ = holst_comparison(h, m, draws, seed)
    return holst, corrected


def estimate_sigma_m(h, m: int, window_draws: int, seed: int) -> Estimate:
    """Stationary-stream estimate of the per-window variance coefficient.

    One exponential stream of length window_draws + 2m supplies all windows;
    lag covariances for j in [-(m-1), m-1] share one accumulator per |j|, and
    the assembled value subtracts the squared covariance with the window
    total.  The standard error comes from contiguous batch means.  This is
    the corrected assembly of :func:`holst_comparison`, bit for bit, without
    the cross-lag sums that only the Holst form needs.
    """
    full, batch = _sigma_components(h, m, checked_index("window_draws", window_draws), seed,
                                     holst=False)
    return Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))


def estimate_general_moments(
    family: TupleFunctionFamily, n: int, m: int, replications: int, seed: int
) -> GeneralMoments:
    """Monte Carlo estimates of A, B, C and sigma2 for a summand family.

    Replication r draws n iid standard exponentials from stream (seed, r)
    with circular extension, evaluates the family on all n windows, and
    accumulates per-position first and second moments; covariances are then
    taken across replications.  Standard errors are batch means over
    replications.

    Replications are drawn and evaluated in chunks, one matrix row each, and
    their moments are added into the sums one replication after another, so
    every result equals that of a loop over single replications bit for bit,
    wherever the chunk boundaries fall.  Every chunk is drawn and evaluated
    into one block of memory, allocated once per call.
    """
    n, m, replications, seed = _indices(n=n, m=m, replications=replications, seed=seed)
    if len(family) != n:
        raise FamilyLengthMismatch(f"family has {len(family)} functions, need n={n}")
    if family.arity != m:
        raise ValueError(f"family arity {family.arity}, expected {m}")
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if replications < _MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {_MIN_REPLICATIONS}")

    batches = DEFAULT_BATCHES
    size = replications // batches
    sizes = [size + 1 if b < replications - batches * size else size for b in range(batches)]
    bounds = np.cumsum([0] + sizes)

    # sums[b] holds, per position, the batch-b totals of h, w, h w and
    # h times h at lag d (row 3 + d)
    sums = np.zeros((batches, 3 + m, n))
    # one block, allocated once, holds a chunk's draws and its terms (see
    # statistics.ChunkWorkspace); terms[1 + r] holds replication first + r
    cap = min(max(1, CHUNK_VALUES // (n + m - 1)), replications)
    block = np.empty(cap * (n + m - 1) + (cap + 1) * (3 + m) * n)
    ext_all = block[: cap * (n + m - 1)].reshape(cap, n + m - 1)
    terms_all = block[cap * (n + m - 1) :].reshape(cap + 1, 3 + m, n)
    for first, ext in SeededStream.chunks(seed, replications, ext_all, "exponentials",
                                          wrap=m - 1):
        last = first + len(ext)
        terms = terms_all[: len(ext) + 1]
        hv = terms[1:, 0]
        with np.errstate(all="ignore"):
            family.evaluate_all(sliding_window_view(ext, m, axis=1), out=hv)
        bad = ~np.isfinite(hv)
        if bad.any():
            r, k = divmod(int(np.flatnonzero(bad)[0]), n)
            raise NonFiniteSample(
                f"statistic value of replication {first + r} at window {k} is not finite")
        window_sums(ext, m, out=terms[1:, 1])
        np.multiply(hv, terms[1:, 1], out=terms[1:, 2])
        # h at lag d is hv rolled left by d: two slices
        for d in range(m):
            lag = terms[1:, 3 + d]
            np.multiply(hv[:, : n - d], hv[:, d:], out=lag[:, : n - d])
            np.multiply(hv[:, n - d :], hv[:, :d], out=lag[:, n - d :])
        # add each batch's rows into its sums in replication order: the slot
        # before the rows (free, or a row already added) takes the running
        # sums, and numpy reduces over axis 0 one row after another
        for b in np.flatnonzero((bounds[:-1] < last) & (bounds[1:] > first)):
            lo = max(bounds[b], first) - first
            hi = min(bounds[b + 1], last) - first
            terms[lo] = sums[b]
            np.add.reduce(terms[lo : hi + 1], axis=0, out=sums[b])

    # row 0 covers all replications, row 1 + b batch b
    means = np.concatenate([sums.sum(axis=0)[None], sums])
    means /= np.array([replications] + sizes, dtype=np.float64)[:, None, None]
    mh, mw = means[:, 0], means[:, 1]
    a_val = np.sum(mh, axis=1)
    b_val = np.mean(means[:, 2] - mh * mw, axis=1)
    c_total = np.zeros(batches + 1)
    for d in range(m):
        total = np.sum(means[:, 3 + d] - mh * np.roll(mh, -d, axis=1), axis=1)
        c_total += total if d == 0 else 2.0 * total
    c_val = c_total / n
    values = np.array([a_val, b_val, c_val, n * (c_val - b_val * b_val)])
    full = values[:, 0].tolist()
    ses = [batch_std_error(v[1:]) for v in values]
    return GeneralMoments(
        A=full[0], B=full[1], C=full[2], sigma2=full[3],
        se_A=ses[0], se_B=ses[1], se_C=ses[2], se_sigma2=ses[3],
        n=n, m=m, replications=replications, seed=seed,
    )


def clt_condition_ratio(h, n: int, m: int, r: float, draws: int, seed: int) -> float:
    """Monte Carlo value of the normal-limit moment condition ratio.

    With g = h - Eh - (x_0 - 1) cov(h, w) over exponential windows, the ratio
    is m^(r-1) E|g|^r / (n^((r-2)/2) sigma_m^r), which must vanish as n grows
    for asymptotic normality.  Returns 0 exactly when g is identically zero
    (constant and linear h), and inf when the variance degenerates while g
    does not.
    """
    n, m, draws, seed = _indices(n=n, m=m, draws=draws, seed=seed)
    if not 2.0 < r < math.inf:
        raise ValueError(f"the moment order must be finite and exceed 2, got {r}")
    if draws < MIN_DRAWS:
        raise ValueError(f"draws must be >= {MIN_DRAWS}")
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if n <= m:
        raise ValueError(f"need n > m, got n={n}, m={m}")
    x, values, mean_h, mean_w = _stream_pass(h, m, draws, seed)
    comp, _ = lag_pass(x, m, values, mean_h, mean_w, holst=False, batched=False)
    moment = stream_moment(x, m, values, comp.mean_h, comp.b, r)
    if moment == 0.0:
        return 0.0
    if comp.corrected <= 0.0:
        return math.inf
    return (m ** (r - 1.0)) * moment / (n ** ((r - 2.0) / 2.0) * comp.corrected ** (r / 2.0))
