"""Pinned closed forms: any change to a closed-form moment bit fails here.

``closed_form_golden.json`` holds, as ``float.hex``, every field of
``closed_form_moments`` and the value of ``exact_mean_correction`` for each
named kind at m in ORDERS and every n > m in {m+1, 2m+1, 200, 5000, 10^6,
10^7+3}, and ``sigma_m_closed_form_large_m`` at each m: 264 cases in all.
The grid reaches n = 10^7 + 3 at m = 10^4, where greenwood's variance
n 2m(m+1)(2m+1)/3 exceeds 2^53 and is exact only if computed in integers.
To print the table for the checked-out code, run
``PYTHONPATH=src python tests/test_closed_form_golden.py``; replace the file
only when a change to the closed forms is intended.
"""

import json
from pathlib import Path

import pytest

from mspacings import closed_form_moments, exact_mean_correction, sigma_m_closed_form_large_m

GOLDEN = Path(__file__).with_name("closed_form_golden.json")
KINDS = ("greenwood", "moran", "entropy")
ORDERS = (1, 2, 3, 5, 7, 8, 9, 63, 64, 65, 100, 1000, 10_000)


def sizes(m: int) -> list[int]:
    return [n for n in (m + 1, 2 * m + 1, 200, 5000, 10**6, 10**7 + 3) if n > m]


def table(kind: str) -> dict:
    """float.hex of every closed-form value of one kind, keyed by its case."""
    out = {}
    for m in ORDERS:
        out[f"{kind} m={m}"] = {"large_m": sigma_m_closed_form_large_m(kind, m).hex()}
        for n in sizes(m):
            mom = closed_form_moments(kind, n, m)
            out[f"{kind} m={m} n={n}"] = {
                "mean": mom.mean.hex(),
                "variance": mom.variance.hex(),
                "per_term_mean": mom.per_term_mean.hex(),
                "per_term_variance": mom.per_term_variance.hex(),
                "exact_mean_correction": exact_mean_correction(kind, n, m).hex(),
            }
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_closed_forms_match_golden(kind):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = table(kind)
    assert sorted(current) == sorted(key for key in golden if key.split()[0] == kind)
    for key, fields in current.items():
        assert fields == golden[key], key


if __name__ == "__main__":
    full = {}
    for kind in KINDS:
        full.update(table(kind))
    print(json.dumps(full, indent=1))
