#!/usr/bin/env python3
"""Compare the CLI reports of two checkouts byte for byte.

Runs one fixed set of ``mspacings`` commands against the package of each
checkout (``DIR/src``) and compares every command's exit code, stdout and
stderr.  The set covers ``test`` on seeded data files for every variant
(v, w, q, z), every named kind and m in {1, 2, 3, 5, 9}, as JSON and as
text, plus a tied file and a file with a bad value; ``test`` at m = 3 for
variants v and q and every named kind on the same values as ``%.6f`` fixed
decimals, as numpy ``savetxt``'s ``%.18e``, with CRLF line ends, with
comments and blank lines between them and space-padded, and on 30 000 values
(more than one conversion block), and once on 30 000 values with one out of
range after 20 000 lines; ``simulate`` for every variant, and once at 4100
replications, more than one block of seed words;
``sigma`` with and without ``--compare-holst``, at 20 000 draws (one block
of the lag sums), at 100 003 draws and m = 5 (several blocks), and at 100 003
draws and m = 8 and m = 70 (window totals from ``sliding_window_view`` sums
and from cumulative sums), with ``--custom-h cube`` at m = 70 and 100 003
draws (custom values rebuilt across blocks from the carried running sum) and
``--custom-h identity`` at m = 1 (where the totals are the draws); and
``meancheck``.
Prints the number of identical and differing reports, names each differing
command with the largest absolute and relative difference over its numeric
report fields and the names of its other differing fields, and exits 1 if
any differs.

Example:
    python3 scripts/report_diff.py --parent ../parent --change .
"""

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("greenwood", "moran", "entropy")
VARIANTS = ("v", "w", "q", "z")


#: The data files that ``test`` reads in every format below, beside "plain".
FORMATS = ("fixed", "savetxt", "crlf", "between", "padded", "large")


def write_files(folder: Path) -> dict[str, str]:
    """Seeded data files for ``test``: plain, tied and bad; the same values
    as ``%.6f`` fixed decimals, as numpy ``savetxt``'s ``%.18e``, with CRLF
    line ends, with comments and blank lines between them, and space-padded;
    30 000 values, which cross the conversion blocks; and 30 000 values with
    one out of range after 20 000 lines."""
    rng = np.random.default_rng(20240415)
    numbers = rng.random(299)
    values = [repr(v) for v in numbers.tolist()]
    large = [repr(v) for v in rng.random(30_000).tolist()]
    files = {}
    for name, rows in (("plain", values),
                       ("tied", values[:100] + [values[50]] + values[100:]),
                       ("bad", values[:150] + ["0.5x"] + values[150:]),
                       ("fixed", [f"{v:.6f}" for v in numbers.tolist()]),
                       ("between", [row + ("\n# between" if k % 2 else "\n")
                                    for k, row in enumerate(values)]),
                       ("padded", [f"  {row} " for row in values]),
                       ("large", large),
                       ("late", large[:20_000] + ["1.0000001"] + large[20_000:])):
        path = folder / f"{name}.txt"
        path.write_text(f"# {name}\n" + "".join(f"{row}\n" for row in rows))
        files[name] = str(path)
    files["savetxt"] = str(folder / "savetxt.txt")
    np.savetxt(files["savetxt"], numbers)
    files["crlf"] = str(folder / "crlf.txt")
    Path(files["crlf"]).write_bytes("".join(f"{row}\r\n" for row in values).encode())
    return files


def commands(files: dict[str, str]) -> list[list[str]]:
    runs = []
    for variant in VARIANTS:
        for kind in KINDS:
            for m in (1, 2, 3, 5, 9):
                for fmt in ("json", "text"):
                    runs.append(["test", files["plain"], "--statistic", kind, "--m", str(m),
                                 "--variant", variant, "--format", fmt])
    for kind in KINDS:
        runs.append(["test", files["tied"], "--statistic", kind])
    runs.append(["test", files["bad"], "--statistic", "greenwood"])
    for name in FORMATS:
        for kind in KINDS:
            for variant in ("v", "q"):
                runs.append(["test", files[name], "--statistic", kind, "--m", "3",
                             "--variant", variant])
    runs.append(["test", files["late"], "--statistic", "greenwood"])
    for variant in VARIANTS:
        for kind in KINDS:
            runs.append(["simulate", "--n", "300", "--m", "2", "--statistic", kind,
                         "--reps", "60", "--seed", "7", "--variant", variant])
    # more replications than one block of seed words (4096)
    runs.append(["simulate", "--n", "50", "--m", "2", "--statistic", "greenwood",
                 "--reps", "4100", "--seed", "7"])
    for kind in KINDS:
        for holst in ([], ["--compare-holst"]):
            runs.append(["sigma", "--statistic", kind, "--m", "2", "--draws", "20000",
                         "--seed", "11", *holst])
        runs.append(["sigma", "--statistic", kind, "--m", "5", "--draws", "100003",
                     "--seed", "11", "--compare-holst"])
        # m = 8: window totals from sliding_window_view sums; m above 64:
        # from cumulative sums
        for m in ("8", "70"):
            for holst in ([], ["--compare-holst"]):
                runs.append(["sigma", "--statistic", kind, "--m", m, "--draws", "100003",
                             "--seed", "11", *holst])
    runs.append(["sigma", "--custom-h", "square", "--m", "3", "--draws", "20000",
                 "--seed", "11", "--compare-holst"])
    runs.append(["sigma", "--custom-h", "cube", "--m", "70", "--draws", "100003",
                 "--seed", "11", "--compare-holst"])
    runs.append(["sigma", "--custom-h", "identity", "--m", "1", "--draws", "100003",
                 "--seed", "11"])
    for kind in KINDS:
        runs.append(["meancheck", "--statistic", kind, "--m", "2", "--n", "60",
                     "--reps", "300", "--seed", "13"])
    return runs


def run_all(runs: list[list[str]]) -> list[dict]:
    """Exit code, stdout and stderr of every command, run in this process."""
    from mspacings.cli import main

    results = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return results


def reports_of(checkout: Path, runs: list[list[str]]) -> list[dict]:
    """The results of ``runs`` against the package under ``checkout/src``,
    from a fresh interpreter."""
    src = checkout.resolve() / "src"
    if not (src / "mspacings").is_dir():
        raise SystemExit(f"no package at {src / 'mspacings'}")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        input=json.dumps(runs), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def fields(result: dict) -> dict:
    """Every field of one command's result by name: the exit code, stderr,
    and each leaf of the report, named as ``result.z`` or ``warnings[0]`` in
    either format."""
    out = {"code": result["code"], "stderr": result["stderr"]}
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        section, warned = "", 0
        for line in result["stdout"].splitlines():
            if line.startswith("  - "):
                out[f"{section}[{warned}]"] = line[4:]
                warned += 1
            elif line.startswith("  "):
                key, _, value = line[2:].partition(": ")
                out[f"{section}.{key}"] = value
            else:
                section, _, value = line.partition(": ")
                section = section.rstrip(":")
                if value:
                    out[section] = value
        return out

    def leaves(value, name):
        if isinstance(value, dict):
            for key, item in value.items():
                leaves(item, f"{name}.{key}" if name else key)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                leaves(item, f"{name}[{index}]")
        else:
            out[name] = value
    leaves(report, "")
    return out


def number(value):
    """``value`` as a float if it is a number or a numeral, else None."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def sizes(parent: dict, change: dict) -> str:
    """The largest absolute and relative difference over the numeric fields
    two results share, and the names of their other differing fields."""
    a, b = fields(parent), fields(change)
    gaps, other = [], []
    for name in list(a) + [name for name in b if name not in a]:
        left, right = number(a.get(name)), number(b.get(name))
        if left is None or right is None:
            if a.get(name, ...) != b.get(name, ...):
                other.append(name)
        elif left != right:
            gap = abs(left - right)
            gaps.append((gap, gap / max(abs(left), abs(right)), name))
    numeric = "equal"
    if gaps:
        gap, _, gap_name = max(gaps)
        rel, rel_name = max((rel, name) for _, rel, name in gaps)
        numeric = f"abs {gap:.3g} ({gap_name}), rel {rel:.3g} ({rel_name})"
    return f"  numeric: {numeric}\n  other fields: {', '.join(other) or 'none'}"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout of the reference revision")
    parser.add_argument("--change", type=Path, help="checkout of the revision under test")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and (args.parent is None or args.change is None):
        parser.error("--parent and --change are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker is not None:
        sys.path.insert(0, args.worker)
        json.dump(run_all(json.load(sys.stdin)), sys.stdout)
        return 0
    with tempfile.TemporaryDirectory() as folder:
        runs = commands(write_files(Path(folder)))
        parent = reports_of(args.parent, runs)
        change = reports_of(args.change, runs)
    differing = [(argv, a, b) for argv, a, b in zip(runs, parent, change) if a != b]
    for argv, a, b in differing:
        print("differs: mspacings " + " ".join(argv))
        print(sizes(a, b))
    print(f"identical: {len(runs) - len(differing)}  differing: {len(differing)}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
