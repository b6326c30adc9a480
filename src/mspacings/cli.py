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


#: Lines are converted in blocks of this many, so that a bad value costs the
#: work on the lines before it and on one block, and the arrays of one block
#: stay small.
_CAST_BLOCK = 4096


def _load_unit_data(path: str) -> np.ndarray:
    r"""The data values of a ``test`` file (``-`` reads stdin) as float64.

    The format: one value per line, in the syntax of Python's ``float()``,
    each in [0, 1).  Lines are split as ``str.splitlines`` splits them.  Blank
    lines, and lines that start with ``#`` after leading whitespace, are
    skipped anywhere in the file.  Raises CliInputError naming the 1-based
    line of the first bad value, or saying that no value was found.

    The lines are read in blocks of ``_CAST_BLOCK``, in one pass that stops
    at the block holding the first bad value.  Plain lines, ``0.`` followed
    by 1 to 19 digits and nothing else, are converted from their digits by
    ``_digit_block`` when the text is ASCII, its lines split at ``"\n"``
    alone (none of ``\r \x0b \x0c \x1c \x1d \x1e`` is left after text-mode
    reading), and ``_extended_division`` finds numpy's ``longdouble`` to be
    x87 extended precision (x86-64 Linux and macOS builds; Windows and ARM
    builds read every line by the casts below).  A plain line is exactly
    N / 10**19, with N its digits left-aligned to 19 places, so N < 2**64
    and N is built exactly in uint64.  10**19 = 2**19 * 5**19 with 5**19 <
    2**64, so N and 10**19 are exact in x87 format and one division rounds
    the quotient once, to 64 bits.  Rounding that to float64 gives the
    correctly rounded value, ``float()``'s bits, unless the quotient's 11
    bits below float64's read exactly ``10000000000`` (the double-rounding
    lemma); those lines, about one in 2048, go to ``float()``.  A plain
    line from 1 - 2**-54 on rounds to 1.0, which is out of range.

    Every other line goes to ``_cast_kept``, whose float64 casts give
    ``float()``'s bits and accept nothing ``float()`` rejects.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if (text.isascii() and not any(c in text for c in "\r\x0b\x0c\x1c\x1d\x1e")
            and _extended_division()):
        blocks = _digit_values(text)
    else:
        blocks = _cast_lines(text.splitlines())
    values = np.concatenate([np.empty(0), *blocks])
    if not values.size:
        raise CliInputError("no data values found")
    return values


@functools.cache
def _extended_division() -> bool:
    """Whether numpy's ``longdouble`` is x87 extended precision: 16 bytes,
    a 64-bit significand stored in the low 8 bytes (2**64 - 1 is held there
    exactly), division rounded to 64 bits and ``finfo``'s 63 mantissa bits.
    The significand is read from memory: a cast back to uint64 would load
    one more numpy cast loop, about 0.1 MB resident, into the process."""
    if np.dtype(np.longdouble).itemsize != 16:
        return False
    top = np.array([2**64 - 1], dtype=np.uint64)
    third = np.array([1.0], dtype=np.longdouble) / np.longdouble(3)
    return (int(top.astype(np.longdouble).view(np.uint64)[0]) == 2**64 - 1
            and int(third.view(np.uint64)[0]) == 0xAAAAAAAAAAAAAAAB
            and np.finfo(np.longdouble).nmant == 63)


@functools.cache
def _plain_masks() -> tuple[np.ndarray, np.ndarray]:
    """A plain line read as three little-endian 64-bit words: by its digit
    count k = 0..19, the masks that keep its "0." and k digits, and what
    those bytes read as "0." and zeros.  Built on first use, so that
    importing the module runs no numpy code."""
    keep = np.array([[(1 << 8 * min(max(k + 2 - lo, 0), 8)) - 1 for lo in (0, 8, 16)]
                     for k in range(20)], dtype=np.uint64)
    zeros = [0x3030303030302E30, 0x3030303030303030, 0x3030303030303030]
    return keep, keep & np.array(zeros, dtype=np.uint64)


def _cast_lines(lines: list[str]) -> list[np.ndarray]:
    """The kept values of ``lines``, block by block, by ``_cast_kept``
    alone."""
    blocks = []
    for start in range(0, len(lines), _CAST_BLOCK):
        block = lines[start : start + _CAST_BLOCK]
        linenos = range(start + 1, start + 1 + len(block))
        direct = "" not in block and "#" not in "".join(block)
        blocks.append(_cast_kept(block, linenos, direct))
    return blocks


def _digit_values(text: str) -> list[np.ndarray]:
    """The kept values of the lines of ``text``, which split at ``"\\n"``
    alone, block by block by ``_digit_block``."""
    raw = text.encode("ascii")
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)
    starts = np.concatenate(([0], ends + 1))
    ends = np.append(ends, len(raw))
    # the 24-byte window of the text from each byte on
    windows = np.ndarray((max(len(raw) - 23, 0),), "V24", raw, strides=(1,))
    return [_digit_block(text, windows, starts[first : first + _CAST_BLOCK],
                         ends[first : first + _CAST_BLOCK], first)
            for first in range(0, starts.size, _CAST_BLOCK)]


def _digit_block(text, windows, starts, ends, first) -> np.ndarray:
    """The kept values of the lines text[starts[i]:ends[i]], line first + i
    + 1 of the text: plain lines converted from their digits as
    ``_load_unit_data`` describes, the others by ``_cast_kept``.  Raises
    the error for the first bad value among them."""
    count = ends - starts - 2
    # the window of a plain line lies inside the text
    at = np.flatnonzero((count >= 1) & (count <= 19) & (starts + 24 <= len(text)))
    values = np.empty(starts.size)
    plain = np.zeros(starts.size, dtype=bool)
    over = at[:0]
    if at.size:
        count = count[at]
        words = windows[starts[at]].view(np.uint64).reshape(-1, 3)
        keep, zeros = _plain_masks()
        words &= keep.take(count, axis=0)
        dotted = (words[:, 0] & np.uint64(0xFFFF)) == 0x2E30  # "0."
        words -= zeros.take(count, axis=0)
        # a kept byte after "0." is a digit iff it is now at most 9, with no borrow
        bad = words + np.uint64(0x7676767676767676)
        bad |= words
        bad &= np.uint64(0x8080808080808080)
        digits = dotted & ((bad[:, 0] | bad[:, 1] | bad[:, 2]) == 0)
        if not digits.all():
            at, words = at[digits], words[digits]
        plain[at] = True
        # eight bytes per word into one number, "0." reading as 00: pairs,
        # quads, then the eight
        words *= np.uint64(10 * 256 + 1)
        words >>= np.uint64(8)
        words &= np.uint64(0x00FF00FF00FF00FF)
        words *= np.uint64(100 * 65536 + 1)
        words >>= np.uint64(16)
        words &= np.uint64(0x0000FFFF0000FFFF)
        words *= np.uint64(10000 * 2**32 + 1)
        words >>= np.uint64(32)
        # digits 1-6, 7-14 and 15-22, of which 20-22 are zero
        numerators = words[:, 0] * np.uint64(10**13)
        numerators += words[:, 1] * np.uint64(10**5)
        numerators += words[:, 2] // np.uint64(1000)
        quotients = numerators.astype(np.longdouble)
        quotients /= np.longdouble(10**19)
        values[at] = quotients
        # the 11 significand bits below float64's read 10000000000: a rounded
        # quotient on a float64 midpoint, which a second rounding may break wrongly
        halfway = at[(quotients.view(np.uint64)[::2] & np.uint64(0x7FF)) == 0x400]
        for i in halfway.tolist():
            values[i] = float(text[starts[i] : ends[i]])
        # a plain line below 1 can round to 1.0
        over = at[values[at] >= 1.0]
        if at.size == starts.size and not over.size:
            return values
    # blank lines hold no value; lines after a bad plain one need no look
    other = np.flatnonzero(~plain & (ends > starts))
    if over.size:
        other = other[other < over[0]]
    if other.size:
        # many other lines: one split of the block costs less than a slice each
        if 4 * other.size > starts.size:
            lines = text[starts[0] : ends[-1]].split("\n")
            if other.size < starts.size:
                lines = list(map(lines.__getitem__, other.tolist()))
        else:
            lines = list(map(text.__getitem__, map(slice, starts[other].tolist(),
                                                   ends[other].tolist())))
        direct = text.find("#", starts[0], ends[-1]) < 0
        cast = _cast_kept(lines, other + (first + 1), direct)
        if cast.size < other.size:
            other = other[[bool(line) and line[0] != "#" for line in map(str.strip, lines)]]
        values[other] = cast
        plain[other] = True
    if over.size:
        raise _bad_value(first + 1 + int(over[0]), text[starts[over[0]] : ends[over[0]]])
    return values[plain]


def _cast_kept(lines: list[str], linenos, direct: bool) -> np.ndarray:
    """float64 values of the kept ``lines``, those that are not blank or a
    comment once stripped.  Raises the error for the first bad value,
    naming it by ``linenos[i]``.

    ``direct``, set where no line is empty or holds ``#``, first casts the
    lines unstripped: ``float()`` strips a subset of ``str.strip``'s
    whitespace and no value starts with ``#``, so if every line casts, all
    are kept and their values are those of the stripped lines."""
    values = None
    if direct:
        try:
            values = np.array(lines, dtype=np.float64)
        except ValueError:
            pass
    if values is None:
        try:
            values = np.array([line for line in map(str.strip, lines)
                               if line and line[0] != "#"], dtype=np.float64)
        except ValueError:
            pass
    # NaN fails both comparisons, and min/max propagate it
    if values is not None and (not values.size
                               or (values.min() >= 0.0 and values.max() < 1.0)):
        return values
    for index, raw in enumerate(lines):
        line = raw.strip()
        if line and line[0] != "#":
            try:
                if not 0.0 <= float(line) < 1.0:
                    break
            except ValueError:
                break
    raise _bad_value(linenos[index], line)


def _bad_value(lineno: int, line: str) -> CliInputError:
    """The error for ``line``, line ``lineno`` of the file, whose value
    ``float()`` refuses or which lies outside [0, 1)."""
    line = line.strip()
    try:
        float(line)
    except ValueError:
        return CliInputError(f"line {lineno}: {line!r} is not a number")
    return CliInputError(f"line {lineno}: value {line} is outside [0, 1)")


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
