"""Seeded null-distribution simulation.

Replications draw uniform samples on independent substreams keyed by the
replication index and evaluate the chosen statistic (:func:`null_values`);
:func:`simulate_null` standardizes those values with the variant's null
moments and summarizes how close they sit to the standard normal.
Replications are drawn (:meth:`~mspacings.rng.SeededStream.chunks`) and
evaluated in chunks, one matrix row each, so the
sort, the spacing arithmetic and the row sums run over whole chunks; every
statistic value equals the one-sample evaluation of the same draws, so the
result does not depend on the chunk boundaries.  Each run allocates one
:class:`~mspacings.statistics.ChunkWorkspace` at its largest chunk shape, and
every chunk is drawn, sorted and evaluated in its buffers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .asymptotics import null_moments
from .errors import MSpacingsError, SimulationAborted, checked_index
from .rng import CHUNK_VALUES, SeededStream
from .spacings import anchored_points
from .specfun import normal_cdf
from .statistics import KIND_VARIANTS, ChunkWorkspace, evaluate_rows, resolve_kind


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
        for name in ("n", "m", "replications", "seed"):
            checked_index(name, getattr(self, name))
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
    phi = np.array([normal_cdf(v) for v in z.tolist()])
    steps = np.arange(1, count + 1) / count
    d_plus = float(np.max(steps - phi))
    d_minus = float(np.max(phi - (steps - 1.0 / count)))
    return max(d_plus, d_minus)


def _evaluate_chunk(config: McConfig, kind, first: int, points: np.ndarray,
                    work: ChunkWorkspace) -> np.ndarray:
    """Statistic values of replications first .. first + len(points) - 1,
    whose uniforms fill columns 1 .. n - 1 of ``points``, a leading slice of
    ``work.points``: anchored, sorted and evaluated in the buffers of ``work``.

    A chunk that fails is evaluated again row by row from its points, which
    the evaluation leaves intact, so the error names the first failing
    replication and carries the error its one-sample evaluation raises.
    """
    anchored_points(points[:, 1:], out=points)
    try:
        return evaluate_rows(points, config.m, kind, config.variant, work)
    except MSpacingsError:
        for row in range(len(points)):
            try:
                evaluate_rows(points[row : row + 1], config.m, kind, config.variant)
            except MSpacingsError as exc:
                raise SimulationAborted(first + row, exc) from exc
        raise


def null_values(config: McConfig) -> np.ndarray:
    """Raw statistic of every replication under the uniform null.

    Entry r is the configured variant evaluated on stream (seed, r), whose
    n - 1 uniforms become a circular sample.  Any kind works, custom kinds
    included, since no moments are needed.  Statistic errors abort the run
    with the replication index attached.
    """
    kind = resolve_kind(config.kind)
    values = np.empty(config.replications)
    rows = min(max(1, CHUNK_VALUES // config.n), config.replications)
    work = ChunkWorkspace(rows, config.n, config.m)
    for first, drawn in SeededStream.chunks(config.seed, config.replications,
                                            work.points[:, 1:]):
        count = len(drawn)
        values[first : first + count] = _evaluate_chunk(
            config, kind, first, work.points[:count], work)
    return values


def simulate_null(config: McConfig, measure_time: bool = False) -> McSummary:
    """Replicate the standardized statistic under the uniform null.

    The :func:`null_values` are standardized with the variant's
    :func:`~mspacings.asymptotics.null_moments`, which are taken first, so a
    kind without them fails before any draw.
    """
    moments = null_moments(config.kind, config.n, config.m, config.variant)
    sd = moments.sd()

    start = time.perf_counter() if measure_time else None
    z = null_values(config)
    z -= moments.mean
    z /= sd

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
