"""Pinned null-simulation results: any change to a ``simulate_null`` result
fails here.

``null_golden.json`` holds every ``McSummary`` field (floats as
``float.hex``) for the variants v, w, q and z of each named kind at
m in {1, 2, 5, 9}, n in {50, 5000} and 2, 13 or 40 replications.  At
n = 5000 a chunk holds 13 replications, so the runs cover a single partial
chunk, one full chunk, and full chunks followed by a short one.  To print
the table for the checked-out code, run
``PYTHONPATH=src python tests/test_null_golden.py``; replace the file only
when a change to the null results is intended.
"""

import dataclasses
import json
from itertools import product
from pathlib import Path

import pytest

from mspacings import McConfig, simulate_null

GOLDEN = Path(__file__).with_name("null_golden.json")
VARIANTS = ("v", "w", "q", "z")
KINDS = ("greenwood", "moran", "entropy")
ORDERS = (1, 2, 5, 9)
SIZES = (50, 5000)
REPLICATIONS = (2, 13, 40)
SEED = 20_241_018


def summary_fields(variant: str, kind: str, m: int, n: int, reps: int) -> dict:
    """The McSummary of one configuration, floats as float.hex."""
    summary = simulate_null(McConfig(n=n, m=m, kind=kind, replications=reps,
                                     seed=SEED, variant=variant))
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in dataclasses.asdict(summary).items()}


def table(variant: str, kind: str) -> dict:
    return {f"{variant} {kind} m={m} n={n} reps={reps}": summary_fields(variant, kind, m, n, reps)
            for m, n, reps in product(ORDERS, SIZES, REPLICATIONS)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_null_summaries_match_golden(variant, kind):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for key, fields in table(variant, kind).items():
        assert fields == golden[key], key


if __name__ == "__main__":
    full = {}
    for variant, kind in product(VARIANTS, KINDS):
        full.update(table(variant, kind))
    print(json.dumps(full, indent=1))
