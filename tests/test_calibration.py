"""Calibration cells of the null z-score: the variant's moments standardize
its statistic, so the z-scores of R null replications have mean 0 and
variance 1 within Monte Carlo error.

Bounds, at R = 4000 and seed 3: |mean_z| <= 4 / sqrt(R) and
|var_z - 1| <= 4 sqrt(2 / R).  A cell that fails today is marked as a strict
expected failure, so the change that calibrates it must also unmark it.
"""

import math

import pytest

from mspacings import McConfig, simulate_null

REPLICATIONS = 4000
SEED = 3
MEAN_BOUND = 4.0 / math.sqrt(REPLICATIONS)
VARIANCE_BOUND = 4.0 * math.sqrt(2.0 / REPLICATIONS)

UNCALIBRATED = pytest.mark.xfail(
    strict=True, reason="Q and W are standardized with V's moments (ROADMAP item 1)")


@pytest.mark.parametrize("variant, kind, n, m", [
    ("v", "greenwood", 5000, 2),
    ("v", "moran", 5000, 2),
    pytest.param("q", "greenwood", 5000, 2, marks=UNCALIBRATED),
    pytest.param("w", "moran", 1000, 50, marks=UNCALIBRATED),
    pytest.param("w", "greenwood", 50, 2, marks=UNCALIBRATED),
])
def test_null_z_scores_are_calibrated(variant, kind, n, m):
    summary = simulate_null(McConfig(n=n, m=m, kind=kind, replications=REPLICATIONS,
                                     seed=SEED, variant=variant))
    assert abs(summary.mean_z) <= MEAN_BOUND, f"mean_z {summary.mean_z}"
    assert abs(summary.variance_z - 1.0) <= VARIANCE_BOUND, f"variance_z {summary.variance_z}"
