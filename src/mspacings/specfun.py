"""Special functions needed by the closed-form null moments.

Integer-argument digamma and the Hurwitz zeta tail zeta(2, m) are computed by
direct summation with analytic tail corrections, so their accuracy is
auditable against brute-force oracles.  The normal CDF and the log-gamma in
:func:`mu_n` delegate to the C library routines in :mod:`math`, which sit
comfortably inside the accuracy budgets used here (1e-12 relative, 1e-10
absolute).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentTooSmall, NonPositiveArgument, checked_index

#: Euler-Mascheroni constant to double precision.
EULER_GAMMA = 0.5772156649015329

_LN_TWO_PI = math.log(2.0 * math.pi)
_INV_SQRT_2 = 1.0 / math.sqrt(2.0)

# Direct harmonic summation below this point, Stirling series above.  The
# series remainder at the switch point is ~1e-20, far below the 1e-12
# agreement budget with plain summation.
_DIGAMMA_SWITCH = 64

# Head length for zeta(2, m): with cutoff J = m + 1024 the Euler-Maclaurin
# remainder ~1/(30 J^5) stays below 3e-17 while the head stays a short sum.
_ZETA2_HEAD_TERMS = 1024


def digamma_int(m: int) -> float:
    """Digamma at a positive integer: the (m-1)-th harmonic number minus
    ``EULER_GAMMA``."""
    m = checked_index("m", m)
    if m < 1:
        raise NonPositiveArgument(f"digamma_int needs m >= 1, got {m}")
    if m <= _DIGAMMA_SWITCH:
        return math.fsum(1.0 / k for k in range(1, m)) - EULER_GAMMA
    x = float(m)
    u = 1.0 / (x * x)
    # Stirling series: ln x - 1/(2x) - 1/(12x^2) + 1/(120x^4) - 1/(252x^6)
    series = u * (1.0 / 12.0 - u * (1.0 / 120.0 - u / 252.0))
    return math.log(x) - 0.5 / x - series


def hurwitz_zeta2(m: int) -> float:
    """Tail sum of inverse squares from m: sum_{j >= m} j**-2, m >= 1."""
    m = checked_index("m", m)
    if m < 1:
        raise NonPositiveArgument(f"hurwitz_zeta2 needs m >= 1, got {m}")
    cutoff = m + _ZETA2_HEAD_TERMS
    j = np.arange(m, cutoff, dtype=np.float64)
    head = float(np.sum(1.0 / (j * j)))
    big_j = float(cutoff)
    tail = 1.0 / big_j + 0.5 / (big_j * big_j) + 1.0 / (6.0 * big_j**3)
    return head + tail


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z * _INV_SQRT_2)


def mu_n(n: int) -> float:
    """Normalizing constant 2*pi*sqrt(n)*n**(n-1)*exp(-n)/(n-1)!.

    Evaluated in log space so it never overflows; tends to sqrt(2*pi) from
    below as n grows.
    """
    n = checked_index("n", n)
    if n < 2:
        raise ArgumentTooSmall(f"mu_n needs n >= 2, got {n}")
    x = float(n)
    return math.exp(_LN_TWO_PI + (x - 0.5) * math.log(x) - x - math.lgamma(x))
