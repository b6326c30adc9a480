#!/usr/bin/env python3
"""Sweep the sample size and watch the normal limit take hold.

For each n in the grid this prints the moment-condition ratio (which must
shrink like n^{-(r-2)/2} for the CLT to apply) next to the empirical
mean, variance, KS distance and skewness of the standardized statistic under
the null.  Each grid point simulates its raw values once (``null_values``)
and standardizes them with ``null_moments``; mean, variance and KS use the
formulas of ``simulate_null``'s summary.

Example:
    python3 scripts/clt_sweep.py --statistic greenwood --m 2 \
        --n-grid 100 400 1600 --reps 1000 --seed 42
"""

import argparse
from dataclasses import dataclass

import numpy as np

from mspacings import (McConfig, clt_condition_ratio, ks_distance_to_normal, null_moments,
                       null_values)
from mspacings.statistics import NAMED_KINDS


@dataclass(frozen=True)
class SweepConfig:
    statistic: str
    m: int
    r: float
    n_grid: tuple[int, ...]
    replications: int
    draws: int
    seed: int


def parse_args() -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--statistic", choices=NAMED_KINDS, default="greenwood")
    parser.add_argument("--m", type=int, default=1, help="window order")
    parser.add_argument("--r", type=float, default=4.0,
                        help="moment order in the CLT condition (default 4)")
    parser.add_argument("--n-grid", type=int, nargs="+",
                        default=[100, 400, 1600, 6400])
    parser.add_argument("--reps", type=int, default=1000,
                        help="replications per grid point")
    parser.add_argument("--draws", type=int, default=200_000,
                        help="window draws for the condition ratio")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    return SweepConfig(statistic=args.statistic, m=args.m, r=args.r,
                       n_grid=tuple(args.n_grid), replications=args.reps,
                       draws=args.draws, seed=args.seed)


def skewness(z: np.ndarray) -> float:
    """Sample skewness mean((z - mean)^3) / mean((z - mean)^2)^(3/2)."""
    centred = z - np.mean(z)
    return float(np.mean(centred**3) / np.mean(centred**2) ** 1.5)


def main() -> None:
    cfg = parse_args()
    print(f"statistic={cfg.statistic} m={cfg.m} r={cfg.r} "
          f"reps={cfg.replications} seed={cfg.seed}")
    header = f"{'n':>8} {'condition':>12} {'mean_z':>9} {'var_z':>8} {'ks':>8} {'skew':>8}"
    print(header)
    print("-" * len(header))
    for n in cfg.n_grid:
        ratio = clt_condition_ratio(cfg.statistic, n, cfg.m, cfg.r,
                                    draws=cfg.draws, seed=cfg.seed)
        config = McConfig(n=n, m=cfg.m, kind=cfg.statistic,
                          replications=cfg.replications, seed=cfg.seed)
        moments = null_moments(cfg.statistic, n, cfg.m, config.variant)
        z = null_values(config)
        z -= moments.mean
        z /= moments.sd()
        print(f"{n:>8d} {ratio:>12.4g} {float(np.mean(z)):>9.4f} "
              f"{float(np.var(z, ddof=1)):>8.4f} {ks_distance_to_normal(z):>8.4f} "
              f"{skewness(z):>8.4f}")


if __name__ == "__main__":
    main()
