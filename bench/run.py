#!/usr/bin/env python3
"""Benchmark of the mspacings package, one workload per run.

    python3 bench/run.py --workload null-replication --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 1 --size tiny

Run from the root of a checkout; the package is imported from its ``src``
directory.  ``--trace 0`` reports the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced replay of the run's first
cycle of operations.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give provenance, sample counts and the checks.  bench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# relative to ROOT, the working directory, so that reports name the same
# data paths in every checkout
OUT_DIR = Path(".bench_out")
BASELINE = BENCH_DIR / "baseline.json"

WORKLOAD_NAMES = ("null-replication", "stationary-stream", "family-moments", "cli-test")
SETUP_PROBES = 7
# the warm-up operation comes from a cycle the timed loop never reaches
WARMUP_CYCLE = 2**31
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "reps_per_s": "1/s", "draws_per_s": "1/s", "calls_per_s": "1/s",
    "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; the first cycle always completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def load_package() -> None:
    """Import the package from this checkout's source; without it, exit with
    an error and no result."""
    src = ROOT / "src"
    if not (src / "mspacings" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src / 'mspacings'}")
    sys.path.insert(0, str(src))


def report_validator():
    import jsonschema
    import mspacings

    schema = json.loads(Path(mspacings.__file__).with_name("report_schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def build(name: str, seed: int, size: str, data_dir: Path):
    import workloads

    return workloads.WORKLOADS[name](seed, size, data_dir, report_validator())


def data_dir(args) -> Path:
    return OUT_DIR / f"{args.workload}-seed{args.seed}-{args.size}"


def digest(result) -> str:
    import workloads

    return hashlib.sha256(workloads.canonical(result)).hexdigest()


def attempt(op, call):
    """Run one operation; returns (result or exception, seconds, problem)."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing operation is counted, not fatal
        return exc, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        problem = op.check(result)
    except Exception as exc:  # an unreadable report is a failed check
        problem = f"check raised {type(exc).__name__}: {exc}"
    return result, elapsed, problem


# ---------------------------------------------------------------- set-up

def probe_setup(args) -> float:
    """Import time of the package plus one warm-up call, in a fresh process."""
    import numpy  # noqa: F401  the benchmark's own dependency, not set-up

    start = time.perf_counter()
    import mspacings  # noqa: F401

    imported = time.perf_counter() - start
    op = build(args.workload, args.seed, args.size, data_dir(args)).cycle(WARMUP_CYCLE)[0]
    start = time.perf_counter()
    op.run()
    return imported + time.perf_counter() - start


def setup_prober(args):
    """A call that times set-up once, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]

    def probe() -> float:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1])
    return probe


# ---------------------------------------------------------------- timed loop

def measure(workload, seconds: float, probe=None) -> dict:
    """Closed loop over the workload's cycles until ``seconds`` have passed;
    the first cycle always completes, so every operation kind is measured.
    Position k of every cycle runs the same kind of operation on new inputs.

    ``probe`` times set-up SETUP_PROBES times, spread evenly over the loop so
    that the median sees the machine's slow and fast phases alike; the loop
    pauses for each probe and is extended by as much."""
    import workloads

    by_position, first_cycle, summaries, problems, setup = [], [], [], [], []
    cpu_start = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start + seconds / (2 * SETUP_PROBES) if probe else math.inf
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        for position, op in enumerate(workload.cycle(cycle)):
            if cycle > 0 and time.perf_counter() >= deadline:
                break
            if len(setup) < SETUP_PROBES and time.perf_counter() >= next_probe:
                paused = time.perf_counter()
                setup.append(probe())
                paused = time.perf_counter() - paused
                deadline += paused
                next_probe += paused + seconds / SETUP_PROBES
            result, elapsed, problem = attempt(op, op.run)
            if problem:
                problems.append(f"{op.label}: {problem}")
            if cycle == 0:
                by_position.append([])
                first_cycle.append((op, None if problem else digest(result), elapsed))
            by_position[position].append(elapsed)
            if isinstance(result, workloads.McSummary):
                summaries.append((op.label, result))
        cycle += 1
    cpu_s = time.process_time() - cpu_start
    while probe and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return {
        "by_position": by_position, "cycles": cycle, "cpu_s": cpu_s, "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_cycle": first_cycle, "summaries": summaries, "problems": problems,
    }


def fastest(run) -> list[float]:
    """Each position's fastest latency: the cost of that kind of operation on
    an uncontended machine.  The speed of a shared machine drifts by tens of
    percent over seconds, which moves medians between runs by as much; the
    minimum over a run's repeats of a position moves far less."""
    return [min(samples) for samples in run["by_position"]]


def throughput(run) -> tuple[float, float, float]:
    """(reps, draws, calls) per second over one cycle timed at the fastest
    latency of each position."""
    cycle_s = sum(fastest(run))
    ops = [op for op, _, _ in run["first_cycle"]]
    return (sum(op.reps for op in ops) / cycle_s, sum(op.draws for op in ops) / cycle_s,
            len(ops) / cycle_s)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile); the maximum when there are too few samples."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def null_law(summaries) -> dict:
    """Per configuration: the z-scores of all its operations pooled (mean and
    variance exactly, from the per-operation summaries) and the median KS
    distance of one operation's replications.  Information, not a gate."""
    groups: dict[str, list] = {}
    for label, s in summaries:
        groups.setdefault(label, []).append(s)
    table = {}
    for label, group in groups.items():
        total = sum(s.replications for s in group)
        mean = sum(s.mean_z * s.replications for s in group) / total
        ss = sum((s.replications - 1) * s.variance_z + s.replications * (s.mean_z - mean) ** 2
                 for s in group)
        table[label] = {"ops": len(group), "replications": total, "mean_z": mean,
                        "variance_z": ss / (total - 1),
                        "ks_distance_median": statistics.median(s.ks_distance for s in group),
                        "replications_per_ks": group[0].replications}
    return table


# ---------------------------------------------------------------- checks

def reference_check(name: str) -> tuple[int, int, list[str], list[list[str]]]:
    """Run one tiny cycle at the baseline's reference seed and compare each
    operation's digest with the one recorded at the seed commit.  A changed
    digest is reported, not failed, so a change that fixes a result can land."""
    baseline = json.loads(BASELINE.read_text())
    workload = build(name, baseline["reference_seed"], "tiny", OUT_DIR / f"{name}-reference")
    digests, problems = [], []
    for index, op in enumerate(workload.cycle(0)):
        result, _, problem = attempt(op, op.run)
        if problem:
            problems.append(f"reference {op.label}: {problem}")
        digests.append([f"{index:03d} {op.label}", None if problem else digest(result)])
    recorded = baseline["reference_digests"].get(name, [])
    changed = sum(1 for pair in digests if pair not in recorded)
    return len(digests), changed, problems, digests


def traced_replay(run):
    """Replay the first cycle with spans; every result must reproduce the
    untraced digest bit for bit.  The overhead compares the replay with the
    median untraced latency of each position."""
    from tracing import Tracer

    tracer = Tracer()
    problems = []
    traced = 0.0
    for index, (op, expected, _) in enumerate(run["first_cycle"]):
        tracer.op = index
        result, elapsed, problem = attempt(op, lambda: op.replay(tracer))
        traced += elapsed
        if problem:
            problems.append(f"traced {op.label}: {problem}")
        elif digest(result) != expected:
            problems.append(f"traced {op.label}: result differs from the untraced run")
    untraced = sum(statistics.median(samples) for samples in run["by_position"])
    return tracer, 100.0 * (traced - untraced) / untraced, problems


def layer_metrics(tracer, cpu_s: float, overhead_pct: float) -> dict:
    total, own = tracer.seconds()
    counts = tracer.counts
    seconds = {
        "rng.draw_s": total["rng.draw"],
        "spacings.sample_s": total["spacings.from_unit_observations"],
        "statistics.evaluate_s": total["statistics.statistic"],
        "statistics.family_eval_s": total["statistics.evaluate_all"],
        "montecarlo.simulate_s": total["montecarlo.simulate_null"],
        "montecarlo.self_s": own["montecarlo.simulate_null"],
        "montecarlo.ks_s": total["montecarlo.ks_distance_to_normal"],
        "asymptotics.general_moments_s": total["asymptotics.estimate_general_moments"],
        "asymptotics.general_self_s": own["asymptotics.estimate_general_moments"],
        "asymptotics.mean_correction_s": total["asymptotics.mean_correction"],
        "asymptotics.closed_form_s": total["asymptotics.closed_form_moments"],
        "asymptotics.standardize_s": total["asymptotics.standardize"],
        "lagcov.window_sums_s": total["lagcov.window_sums"],
        "lagcov.components_s": total["lagcov.components"],
        "lagcov.batched_s": total["lagcov.batched_components"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "proc.cpu_s": cpu_s,
    }
    metrics = {name: {"value": float(v), "unit": "s"} for name, v in seconds.items()}
    for name in ("rng.streams", "rng.values", "statistics.calls", "statistics.summands"):
        metrics[name] = {"value": counts[name], "unit": "count"}
    for name in ("lagcov.bytes_computed", "cli.report_bytes"):
        metrics[name] = {"value": counts[name], "unit": "bytes"}
    metrics["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return metrics


# ---------------------------------------------------------------- provenance

def provenance(args, workload) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        revision = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mspacings").glob("*")):
        if path.is_file():
            source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": revision, "source_sha256": source.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "inputs": workload.provenance(),
    }


# ---------------------------------------------------------------- runs

def run_workload(args) -> int:
    load_package()
    try:
        workload = build(args.workload, args.seed, args.size, data_dir(args))
        warmup = workload.cycle(WARMUP_CYCLE)[0]
        warmup.run()
        gc.collect()
        run = measure(workload, args.seconds, None if args.trace else setup_prober(args))
        setup = run["setup"]

        problems = list(run["problems"])
        latencies = [t for samples in run["by_position"] for t in samples]
        attempted = len(latencies)
        op, expected, _ = run["first_cycle"][0]
        result, _, problem = attempt(op, op.run)
        attempted += 1
        if problem or digest(result) != expected:
            problems.append(f"determinism {op.label}: a second run gave another result")
        count, changed, reference_problems, reference = reference_check(args.workload)
        attempted += count
        problems += reference_problems

        tail_value, tail_pct = tail(latencies)
        info = {
            "op_samples": len(latencies), "cycles": run["cycles"], "busy_s": sum(latencies),
            "tail_percentile": tail_pct, "setup_samples_s": setup,
            "digests_checked": count, "digests_changed": changed,
        }
        if args.trace:
            tracer, overhead, replay_problems = traced_replay(run)
            attempted += len(run["first_cycle"])
            problems += replay_problems
            metrics = layer_metrics(tracer, run["cpu_s"], overhead)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            reps_per_s, draws_per_s, calls_per_s = throughput(run)
            values = {
                "setup_s": statistics.median(setup),
                "reps_per_s": reps_per_s,
                "draws_per_s": draws_per_s,
                "calls_per_s": calls_per_s,
                "op_p50_ms": 1000.0 * statistics.median(fastest(run)),
                "op_tail_ms": 1000.0 * tail_value,
                "peak_rss_mb": run["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        info["error_rate"] = len(problems) / attempted
        positions = [{"label": op.label, "latencies_s": samples}
                     for (op, _, _), samples in zip(run["first_cycle"], run["by_position"])]
        record = {"provenance": provenance(args, workload), "info": info, "positions": positions,
                  "null_law": null_law(run["summaries"]), "problems": problems,
                  "reference_digests": reference, "metrics": metrics}
    finally:
        shutil.rmtree(data_dir(args), ignore_errors=True)
        shutil.rmtree(OUT_DIR / f"{args.workload}-reference", ignore_errors=True)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print("info " + json.dumps(info))
    for label, row in record["null_law"].items():
        print(f"null-law {label}: " + json.dumps(row))
    for problem in problems[:20]:
        print(f"problem {problem}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(problems),
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process; the last
    line combines them with metric names prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode not in (0, 1) or not lines:
                sys.exit(f"bench: {name} trace={trace} exited {done.returncode}")
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                if line.startswith(("metric ", "problem ")):
                    print(f"{name} {line}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if args.probe_setup:
        load_package()
        print(repr(probe_setup(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
