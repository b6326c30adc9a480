"""Seeded null-distribution simulation.

Replications draw uniform samples on independent substreams keyed by the
replication index, standardize the chosen statistic with its asymptotic
moments, and summarize how close the standardized values sit to the standard
normal.  Replications are evaluated in chunks, one matrix row each, so the
sort, the spacing arithmetic and the exact sums run over whole chunks; every
statistic value equals the one-sample evaluation of the same draws, so the
result does not depend on the chunk boundaries.  A direct stationary-stream
estimator of the per-window variance coefficient lives here as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .asymptotics import AsymptoticMoments, closed_form_moments
from .errors import (
    DegenerateVariance,
    MSpacingsError,
    SimulationAborted,
    UnsupportedKind,
)
from .lagcov import (
    Estimate,
    batch_std_error,
    batched_components,
    components,
    stream_window_values,
)
from .rng import SeededStream
from .spacings import anchored_points
from .statistics import KIND_VARIANTS, evaluate_rows, resolve_kind

_MIN_SIGMA_DRAWS = 10_000
# the constant of specfun.normal_cdf, so the KS distance matches it bit for bit
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)

#: Values per array in one chunk of replications (512 KiB of doubles); a
#: chunk holds max(1, CHUNK_VALUES // n) replications.
CHUNK_VALUES = 1 << 16


def uniform_sorted(stream: SeededStream, count: int) -> np.ndarray:
    """``count`` iid uniforms in [0, 1) from the stream, sorted ascending."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return np.sort(stream.uniforms(count))


def exponential(stream: SeededStream) -> float:
    """One standard exponential draw, -ln(1 - u); finite and nonnegative."""
    return stream.exponential()


@dataclass(frozen=True)
class McConfig:
    """Parameters of one null simulation run.

    ``n`` is the arc count (each replication draws n - 1 uniforms), ``m`` the
    window order, ``variant`` one of v, w, q, z.
    """

    n: int
    m: int
    kind: object
    replications: int
    seed: int
    variant: str = "v"

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise ValueError(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.replications < 2:
            raise ValueError(f"replications must be >= 2, got {self.replications}")
        variant = str(self.variant).lower()
        if variant not in KIND_VARIANTS:
            raise ValueError(f"variant must be one of {KIND_VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "variant", variant)


@dataclass(frozen=True)
class McSummary:
    """Empirical law of the standardized statistic over all replications.

    ``wall_time_s`` is None unless timing was requested, so that equal
    configurations produce bit-identical summaries.
    """

    replications: int
    mean_z: float
    variance_z: float
    ks_distance: float
    min_z: float
    max_z: float
    seed: int
    wall_time_s: float | None = None


def ks_distance_to_normal(z_values) -> float:
    """Kolmogorov distance between the empirical law of the inputs and the
    standard normal, evaluated at the empirical jump points (both one-sided
    suprema, no continuity correction)."""
    z = np.sort(np.asarray(z_values, dtype=np.float64))
    count = z.size
    if count == 0:
        raise ValueError("need at least one value")
    phi = np.array([0.5 * math.erfc(-v * _INV_SQRT_2) for v in z.tolist()])
    steps = np.arange(1, count + 1) / count
    d_plus = float(np.max(steps - phi))
    d_minus = float(np.max(phi - (steps - 1.0 / count)))
    return max(d_plus, d_minus)


def _chunk_draws(config: McConfig, first: int, count: int) -> np.ndarray:
    """(count, n - 1) uniforms; row r is stream (seed, first + r)."""
    draws = np.empty((count, config.n - 1))
    for row in range(count):
        draws[row] = SeededStream(config.seed, first + row).uniforms(config.n - 1)
    return draws


def _evaluate_chunk(config: McConfig, kind, first: int, count: int) -> np.ndarray:
    """Statistic values of replications first .. first + count - 1.

    A chunk that fails is evaluated again row by row, so the error names the
    first failing replication and carries the error its one-sample
    evaluation raises.
    """
    points = anchored_points(_chunk_draws(config, first, count))
    try:
        return evaluate_rows(points, config.m, kind, config.variant)
    except MSpacingsError:
        for row in range(count):
            try:
                evaluate_rows(points[row : row + 1], config.m, kind, config.variant)
            except MSpacingsError as exc:
                raise SimulationAborted(first + row, exc) from exc
        raise


def simulate_null(config: McConfig, moments: AsymptoticMoments | None = None,
                  measure_time: bool = False) -> McSummary:
    """Replicate the standardized statistic under the uniform null.

    Replication r runs on stream (seed, r): n - 1 uniforms become a circular
    sample, the configured variant is evaluated and standardized with the
    closed-form moments (or caller-supplied ``moments`` for custom kinds).
    Statistic errors abort the run with the replication index attached.
    """
    kind = resolve_kind(config.kind)
    if moments is None:
        if not kind.has_closed_form:
            raise UnsupportedKind(
                f"kind {kind.name!r} has no closed-form moments; pass them explicitly")
        moments = closed_form_moments(kind, config.n, config.m)
    if not moments.variance > 0.0:
        raise DegenerateVariance(f"variance {moments.variance!r} is not positive")
    sd = math.sqrt(moments.variance)

    start = time.perf_counter() if measure_time else None
    z = np.empty(config.replications)
    rows = max(1, CHUNK_VALUES // config.n)
    for first in range(0, config.replications, rows):
        count = min(rows, config.replications - first)
        values = _evaluate_chunk(config, kind, first, count)
        z[first : first + count] = (values - moments.mean) / sd

    elapsed = time.perf_counter() - start if measure_time else None
    return McSummary(
        replications=config.replications,
        mean_z=float(np.mean(z)),
        variance_z=float(np.var(z, ddof=1)),
        ks_distance=ks_distance_to_normal(z),
        min_z=float(np.min(z)),
        max_z=float(np.max(z)),
        seed=config.seed,
        wall_time_s=elapsed,
    )


def estimate_sigma_m(h, m: int, window_draws: int, seed: int) -> Estimate:
    """Stationary-stream estimate of the per-window variance coefficient.

    One exponential stream of length window_draws + 2m supplies all windows;
    lag covariances for j in [-(m-1), m-1] share one accumulator per |j|, and
    the assembled value subtracts the squared covariance with the window
    total.  The standard error comes from contiguous batch means.
    """
    if window_draws < _MIN_SIGMA_DRAWS:
        raise ValueError(f"window_draws must be >= {_MIN_SIGMA_DRAWS}")
    _, hv, w = stream_window_values(h, m, window_draws, seed)
    full = components(hv, w, m)
    batch = batched_components(hv, w, m)
    return Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))
