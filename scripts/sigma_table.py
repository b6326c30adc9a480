#!/usr/bin/env python3
"""Tabulate the per-window variance coefficient across kinds and orders.

Columns: the closed form, its large-m leading form, the stationary stream
Monte Carlo estimate with batch-means SE, and (with --compare-holst) the
pooled cross-covariance assembly next to the corrected one.

Example:
    python3 scripts/sigma_table.py --m-values 1 2 3 5 8 --draws 500000 \
        --seed 42 --compare-holst
"""

import argparse

from mspacings import (
    closed_form_moments,
    holst_vs_corrected,
    sigma_m_closed_form_large_m,
)
from mspacings.statistics import NAMED_KINDS


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kinds", nargs="+", default=list(NAMED_KINDS), choices=NAMED_KINDS)
    parser.add_argument("--m-values", type=int, nargs="+", default=[1, 2, 3, 5])
    parser.add_argument("--draws", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--compare-holst", action="store_true",
                        help="estimate both assemblies from the same stream")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    columns = f"{'kind':<10} {'m':>3} {'closed':>12} {'large-m':>12} {'estimate':>12} {'se':>10}"
    if args.compare_holst:
        columns += f" {'holst':>12} {'holst se':>10}"
    print(columns)
    print("-" * len(columns))
    for kind in args.kinds:
        for m in args.m_values:
            closed = closed_form_moments(kind, m + 1, m).per_term_variance
            leading = sigma_m_closed_form_large_m(kind, m)
            holst, est = holst_vs_corrected(kind, m, args.draws, args.seed)
            extra = f" {holst.value:>12.6g} {holst.std_error:>10.2g}" if args.compare_holst else ""
            print(f"{kind:<10} {m:>3d} {closed:>12.6g} {leading:>12.6g} "
                  f"{est.value:>12.6g} {est.std_error:>10.2g}" + extra)


if __name__ == "__main__":
    main()
