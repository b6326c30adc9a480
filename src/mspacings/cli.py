"""Command-line front end.

Four subcommands: ``test`` runs a uniformity test on a data file, ``simulate``
replicates the statistic under the null, ``sigma`` estimates the per-window
variance coefficient, ``meancheck`` compares the first-order mean correction
against simulation and, where available, an exact value.  ``test`` and
``simulate`` take a variant's moments from ``null_moments``; ``sigma`` and
``meancheck`` use ``closed_form_moments``, which no variant changes.
``meancheck`` evaluates its simulated samples as variant V with
``evaluate_rows``, in chunks whose boundaries never change its result.

Every run prints one report object: ``{"schema_version", "command", "params",
"result", "warnings", "elapsed_ms"}``, as JSON (default) or a flat text
rendering of the same numbers.  Exit codes: 0 success, 1 input or
configuration errors (messages name the offending line where applicable),
2 statistic domain errors such as a tied sample under the log statistic.

Timing is off by default so repeated runs with equal flags are byte-identical;
``--timing`` fills ``elapsed_ms`` (and ``wall_time_s`` for ``simulate``).
Randomized commands require an explicit ``--seed`` or ``--seed-from-entropy``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import secrets
import sys
import time

import numpy as np

from .asymptotics import (
    closed_form_moments,
    estimate_sigma_m,
    exact_mean_correction,
    holst_comparison,
    mean_correction,
    null_moments,
    standardize,
)
from .errors import (
    DomainViolation,
    MSpacingsError,
    NonFiniteSample,
    SimulationAborted,
    SummandOverflow,
    ZeroSpacing,
)
from .lagcov import MIN_DRAWS
from .montecarlo import McConfig, simulate_null
from .rng import CHUNK_VALUES, SeededStream
from .spacings import anchored_points, from_unit_observations
from .statistics import (
    KIND_VARIANTS,
    NAMED_KINDS,
    ChunkWorkspace,
    custom_sum,
    evaluate,
    evaluate_rows,
    resolve_kind,
)

# ``test`` evaluates through ``evaluate`` and the variant table, so these four
# are not called here.  They stay module attributes because the benchmark's
# traced replay of the CLI (bench/workloads.py) patches them by name.
from .statistics import statistic_Q, statistic_V, statistic_W, statistic_Z  # noqa: F401

SCHEMA_VERSION = "1"

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_DOMAIN = 2

_DOMAIN_ERRORS = (ZeroSpacing, DomainViolation, SummandOverflow, NonFiniteSample)

#: Named scalar functions available to ``sigma --custom-h``.
CUSTOM_H_REGISTRY = {
    "square": np.square,
    "identity": lambda u: np.asarray(u, dtype=np.float64),
    "cube": lambda u: np.asarray(u, dtype=np.float64) ** 3,
}


class CliInputError(ValueError):
    """Bad file contents or command configuration; maps to exit code 1."""


def _document(command: str, params: dict, result: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "result": result,
        "warnings": warnings,
        "elapsed_ms": None,
    }


#: Kept lines are cast in blocks of this many, so that a refused value costs
#: the cast of the values before it and a ``float()`` loop over part of one
#: block; a valid file pays one list slice and one copy of its values more
#: than a single cast.
_CAST_BLOCK = 4096


def _load_unit_data(path: str) -> np.ndarray:
    """The data values of a ``test`` file (``-`` reads stdin) as float64.

    The format: one value per line, in the syntax of Python's ``float()``,
    each in [0, 1).  Lines are split as ``str.splitlines`` splits them.  Blank
    lines, and lines that start with ``#`` after leading whitespace, are
    skipped anywhere in the file.  Raises CliInputError naming the 1-based
    line of the first bad value, or saying that no value was found.

    The kept lines are converted by float64 casts, which give ``float()``'s
    bits and accept nothing ``float()`` rejects, block by block up to the
    first value that ``float()`` refuses, and range-checked once.  The first
    bad value, refused or out of range, is then named by counting the lines
    up to it.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    lines = text.splitlines()
    kept = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    values = _cast_until_refused(kept)
    # NaN fails both comparisons, and min/max propagate it
    if values.size == len(kept) and values.size and values.min() >= 0.0 and values.max() < 1.0:
        return values
    outside = np.flatnonzero(~((values >= 0.0) & (values < 1.0)))
    raise _bad_value(lines, int(outside[0]) if outside.size else values.size)


def _cast_until_refused(kept: list[str]) -> np.ndarray:
    """float64 values of ``kept``, up to the first one that ``float()``
    refuses."""
    blocks = [np.empty(0)]
    for start in range(0, len(kept), _CAST_BLOCK):
        block = kept[start : start + _CAST_BLOCK]
        try:
            blocks.append(np.array(block, dtype=np.float64))
        except ValueError:
            prefix = []
            for line in block:
                try:
                    prefix.append(float(line))
                except ValueError:
                    break
            blocks.append(np.array(prefix, dtype=np.float64))
            if len(prefix) < len(block):
                break
    return np.concatenate(blocks)


def _bad_value(lines: list[str], index: int) -> CliInputError:
    """The error for kept value ``index`` of ``lines``, which ``float()``
    refuses or which lies outside [0, 1), found by counting the lines up to
    it; if there is no such value, the file holds none."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if index:
            index -= 1
            continue
        try:
            float(line)
        except ValueError:
            return CliInputError(f"line {lineno}: {line!r} is not a number")
        return CliInputError(f"line {lineno}: value {line} is outside [0, 1)")
    return CliInputError("no data values found")


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    if args.seed_from_entropy:
        return secrets.randbits(63)
    raise CliInputError("provide --seed or, for a non-reproducible run, --seed-from-entropy")


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _render_text(doc: dict) -> str:
    lines = [f"command: {doc['command']}",
             f"schema_version: {doc['schema_version']}",
             "params:"]
    lines += [f"  {k}: {_fmt(v)}" for k, v in doc["params"].items()]
    lines.append("result:")
    lines += [f"  {k}: {_fmt(v)}" for k, v in doc["result"].items()]
    if doc["warnings"]:
        lines.append("warnings:")
        lines += [f"  - {w}" for w in doc["warnings"]]
    else:
        lines.append("warnings: none")
    lines.append(f"elapsed_ms: {_fmt(doc['elapsed_ms'])}")
    return "\n".join(lines) + "\n"


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    else:
        sys.stdout.write(_render_text(doc))


def _cmd_test(args: argparse.Namespace) -> dict:
    sample = from_unit_observations(_load_unit_data(args.data_path))
    kind = resolve_kind(args.statistic)
    if not 1 <= args.m < sample.arc_count:
        raise CliInputError(
            f"order {args.m} is not in [1, n) for a sample with n={sample.arc_count} arcs")
    result = evaluate(sample, args.m, kind, args.variant)
    moments = null_moments(kind, sample.arc_count, args.m, args.variant)
    report = standardize(result, moments)
    params = {"data_path": args.data_path, "statistic": kind.name,
              "m": args.m, "variant": args.variant}
    warnings = []
    if result.summand_count != result.n:
        # the moments are n times the per-window ones
        shift = (result.summand_count - result.n) * moments.per_term_mean / moments.sd()
        warnings.append(f"the null moments assume {result.n} summands, but variant "
                        f"{result.variant} sums {result.summand_count}: that alone "
                        f"shifts z by about {shift:.4g}")
    return _document("test", params, dict(vars(report)), warnings)


def _cmd_simulate(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args)
    config = McConfig(n=args.n, m=args.m, kind=args.statistic,
                      replications=args.reps, seed=seed, variant=args.variant)
    summary = simulate_null(config, measure_time=args.timing)
    params = {"n": args.n, "m": args.m, "statistic": args.statistic,
              "replications": args.reps, "seed": seed, "variant": config.variant}
    return _document("simulate", params, dataclasses.asdict(summary), [])


def _sigma_target(args: argparse.Namespace):
    """(h, label, closed_form_value_or_None) for the sigma subcommand."""
    if args.custom_h is not None:
        kind = custom_sum(CUSTOM_H_REGISTRY[args.custom_h], name=args.custom_h)
        return kind, args.custom_h, None
    kind = resolve_kind(args.statistic)
    closed = closed_form_moments(kind, args.m + 1, args.m).per_term_variance
    return kind, kind.name, closed


def _cmd_sigma(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args)
    if args.draws < MIN_DRAWS:
        raise CliInputError(f"--draws must be at least {MIN_DRAWS}, got {args.draws}")
    kind, label, closed = _sigma_target(args)
    params = {"statistic": label, "m": args.m, "draws": args.draws,
              "seed": seed, "compare_holst": bool(args.compare_holst)}
    if args.compare_holst:
        holst, corrected, difference = holst_comparison(kind, args.m, args.draws, seed)
    else:
        corrected = estimate_sigma_m(kind, args.m, args.draws, seed)
    out = {
        "estimate": corrected.value,
        "std_error": corrected.std_error,
        "closed_form": closed,
    }
    if args.compare_holst:
        out.update(holst=holst.value, holst_std_error=holst.std_error,
                   difference=difference.value,
                   difference_std_error=difference.std_error)
    warnings = []
    if corrected.value < 2.0 * corrected.std_error:
        warnings.append(f"estimate {corrected.value:.6g} is below twice its standard error "
                        f"{corrected.std_error:.6g}: too few draws to resolve it")
    return _document("sigma", params, out, warnings)


def _simulated_mean_correction(kind, n: int, m: int, reps: int, seed: int):
    """Mean of the overlapping-sum statistic over ``reps`` samples, minus the
    leading term, with an iid standard error.

    The samples are consecutive draws of stream (seed, 0), taken in chunks
    of at most ``CHUNK_VALUES`` values, so the chunk boundaries never change
    them.  Each chunk is sorted in one workspace and evaluated as variant V
    by ``evaluate_rows``, as ``test`` and ``simulate`` evaluate it."""
    rows = max(1, CHUNK_VALUES // n)
    work = ChunkWorkspace(min(rows, reps), n, m)
    stream = SeededStream(seed, 0)
    totals = np.empty(reps)
    for first in range(0, reps, rows):
        count = min(rows, reps - first)
        u = stream.uniforms(count * (n - 1)).reshape(count, n - 1)
        points = anchored_points(u, out=work.points[:count])
        totals[first : first + count] = evaluate_rows(points, m, kind, "v", work)
    leading = closed_form_moments(kind, n, m).mean
    correction = float(np.mean(totals)) - leading
    se = float(np.std(totals, ddof=1) / math.sqrt(reps))
    return leading, correction, se


def _cmd_meancheck(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args)
    if not 1 <= args.m < args.n:
        raise CliInputError(f"need 1 <= m < n, got m={args.m}, n={args.n}")
    if args.reps < 2:
        raise CliInputError(f"--reps must be at least 2, got {args.reps}")
    kind = resolve_kind(args.statistic)
    leading, simulated, simulated_se = _simulated_mean_correction(
        kind, args.n, args.m, args.reps, seed)
    formula = mean_correction(kind, args.m, max(args.reps, MIN_DRAWS), seed, stream_id=1)
    exact = exact_mean_correction(kind, args.n, args.m)
    warnings: list[str] = []
    gap = abs(formula.value - simulated)
    budget = 3.0 * math.hypot(formula.std_error, simulated_se)
    agree = gap <= budget
    if not agree:
        warnings.append(
            f"first-order correction formula gives {formula.value:.6g} but simulation "
            f"gives {simulated:.6g} (gap {gap:.3g} exceeds 3 combined SE {budget:.3g})")
    params = {"statistic": kind.name, "m": args.m, "n": args.n,
              "replications": args.reps, "seed": seed}
    out = {
        "leading_term": leading,
        "formula_correction": formula.value,
        "formula_correction_se": formula.std_error,
        "simulated_correction": simulated,
        "simulated_correction_se": simulated_se,
        "exact_correction": exact,
        "corrections_agree": agree,
    }
    return _document("meancheck", params, out, warnings)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output rendering (default json)")
    parser.add_argument("--timing", action="store_true",
                        help="fill elapsed_ms (off by default so equal runs are byte-identical)")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None, help="64-bit reproducibility seed")
    group.add_argument("--seed-from-entropy", action="store_true",
                       help="draw the seed from the OS entropy pool (non-reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspacings",
        description="Uniformity tests from sum-functions of m-spacings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test a data file for uniformity")
    p_test.add_argument("data_path", help="one value in [0,1) per line; '-' reads stdin")
    p_test.add_argument("--statistic", choices=NAMED_KINDS, required=True)
    p_test.add_argument("--m", type=int, default=1, help="spacing order (default 1)")
    p_test.add_argument("--variant", choices=KIND_VARIANTS, default="v",
                        help="circular overlapping (v), non-wrapping (w), disjoint (q), "
                             "tuple-sum (z)")
    _add_common(p_test)
    p_test.set_defaults(handler=_cmd_test)

    p_sim = sub.add_parser("simulate", help="replicate the statistic under the null")
    p_sim.add_argument("--n", type=int, required=True, help="arc count per replication")
    p_sim.add_argument("--m", type=int, default=1)
    p_sim.add_argument("--statistic", choices=NAMED_KINDS, required=True)
    p_sim.add_argument("--reps", type=int, required=True, help="replication count (>= 2)")
    p_sim.add_argument("--variant", choices=KIND_VARIANTS, default="v")
    _add_seed(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sigma = sub.add_parser("sigma", help="estimate the per-window variance coefficient")
    target = p_sigma.add_mutually_exclusive_group(required=True)
    target.add_argument("--statistic", choices=NAMED_KINDS)
    target.add_argument("--custom-h", choices=sorted(CUSTOM_H_REGISTRY),
                        help="named scalar function of the window total")
    p_sigma.add_argument("--m", type=int, default=1)
    p_sigma.add_argument("--draws", type=int, default=1_000_000,
                         help=f"window draws (default 1000000, minimum {MIN_DRAWS})")
    p_sigma.add_argument("--compare-holst", action="store_true",
                         help="also report the pooled cross-covariance assembly")
    _add_seed(p_sigma)
    _add_common(p_sigma)
    p_sigma.set_defaults(handler=_cmd_sigma)

    p_mean = sub.add_parser("meancheck",
                            help="compare the first-order mean correction with simulation")
    p_mean.add_argument("--statistic", choices=NAMED_KINDS, required=True)
    p_mean.add_argument("--m", type=int, default=1)
    p_mean.add_argument("--n", type=int, required=True)
    p_mean.add_argument("--reps", type=int, required=True)
    _add_seed(p_mean)
    _add_common(p_mean)
    p_mean.set_defaults(handler=_cmd_meancheck)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call (not at import)
    and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our contract reserves 2 for
        # statistic domain failures
        return _EXIT_OK if not exc.code else _EXIT_INPUT
    started = time.perf_counter() if args.timing else None
    try:
        doc = args.handler(args)
    except SimulationAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = _EXIT_DOMAIN if isinstance(exc.cause, _DOMAIN_ERRORS) else _EXIT_INPUT
        return code
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (CliInputError, MSpacingsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    if args.timing:
        doc["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    _emit(doc, args.format)
    return _EXIT_OK


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
