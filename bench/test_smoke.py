"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, must emit every metric BENCHMARK.json names, with its unit, and fail
no operation.

    python -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_emits_every_metric_without_errors():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    expected = {f"{w['name']}:{name}" for w in spec["workloads"] for name in units}
    assert set(result["metrics"]) == expected
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(":", 1)[1]], key
        assert isinstance(metric["value"], (int, float)), key
