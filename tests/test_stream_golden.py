"""Pinned stream-estimator results: any change to a stream result fails here.

``stream_golden.json`` holds the ``float.hex`` of every value that
``estimate_sigma_m``, ``holst_vs_corrected`` and ``clt_condition_ratio``
return for each named kind at m in {1, 2, 3, 5, 7} on 20 000 draws from one
fixed seed.  There the lag sums and the CLT moment cover 20 002 positions,
one block of the pairwise tree, so the file also pins each kind at
m in {1, 2, 5, 8, 70} on 100 003 draws: about 100 000 positions, several
blocks and no multiple of 8, with the CLT ratio at moment orders 3, 2.5 and
4.  Order 8 takes the window totals from ``sliding_window_view`` sums and
order 70 from differences of cumulative sums.  To print
the table for the checked-out code, run
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
LONG_ORDERS = (1, 2, 5, 8, 70)
LONG_DRAWS = 100_003
LONG_RATIO_ORDERS = (3.0, 2.5, 4.0)


def stream_values(kind: str, m: int, draws: int = DRAWS,
                  ratio_orders: tuple[float, ...] = (3.0,)) -> list[str]:
    """float.hex of (sigma, se, holst, se, corrected, se) and the clt ratio
    at each of ``ratio_orders``."""
    sigma = estimate_sigma_m(kind, m, draws, SEED)
    holst, corrected = holst_vs_corrected(kind, m, draws, SEED)
    ratios = [clt_condition_ratio(kind, 5000, m, r, draws, SEED) for r in ratio_orders]
    values = (sigma.value, sigma.std_error, holst.value, holst.std_error,
              corrected.value, corrected.std_error, *ratios)
    return [float(v).hex() for v in values]


def long_key(kind: str, m: int) -> str:
    return f"{kind} m={m} draws={LONG_DRAWS}"


def long_values(kind: str, m: int) -> list[str]:
    return stream_values(kind, m, LONG_DRAWS, LONG_RATIO_ORDERS)


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_stream_estimates_match_golden(kind, m):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stream_values(kind, m) == golden[f"{kind} m={m}"]


@pytest.mark.parametrize("m", LONG_ORDERS)
@pytest.mark.parametrize("kind", KINDS)
def test_multi_block_stream_estimates_match_golden(kind, m):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert long_values(kind, m) == golden[long_key(kind, m)]


if __name__ == "__main__":
    table = {f"{kind} m={m}": stream_values(kind, m) for kind in KINDS for m in ORDERS}
    table.update({long_key(kind, m): long_values(kind, m)
                  for kind in KINDS for m in LONG_ORDERS})
    print(json.dumps(table, indent=1))
