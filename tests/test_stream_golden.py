"""Pinned stream-estimator results: any change to a stream result fails here.

``stream_golden.json`` holds the ``float.hex`` of every value that
``estimate_sigma_m``, ``holst_vs_corrected`` and ``clt_condition_ratio``
return for each named kind at m in {1, 2, 3, 5, 7} on 20 000 draws from one
fixed seed.  To print the table for the checked-out code, run
``PYTHONPATH=src python tests/test_stream_golden.py``; replace the file only
when a change to the stream results is intended.
"""

import json
from pathlib import Path

import pytest

from mspacings import clt_condition_ratio, estimate_sigma_m, holst_vs_corrected

GOLDEN = Path(__file__).with_name("stream_golden.json")
KINDS = ("greenwood", "moran", "entropy")
ORDERS = (1, 2, 3, 5, 7)
DRAWS = 20_000
SEED = 20_240_611


def stream_values(kind: str, m: int) -> list[str]:
    """float.hex of (sigma, se, holst, se, corrected, se, clt ratio)."""
    sigma = estimate_sigma_m(kind, m, DRAWS, SEED)
    holst, corrected = holst_vs_corrected(kind, m, DRAWS, SEED)
    ratio = clt_condition_ratio(kind, 5000, m, 3.0, DRAWS, SEED)
    values = (sigma.value, sigma.std_error, holst.value, holst.std_error,
              corrected.value, corrected.std_error, ratio)
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_stream_estimates_match_golden(kind, m):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stream_values(kind, m) == golden[f"{kind} m={m}"]


if __name__ == "__main__":
    table = {f"{kind} m={m}": stream_values(kind, m) for kind in KINDS for m in ORDERS}
    print(json.dumps(table, indent=1))
