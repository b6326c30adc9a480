#!/usr/bin/env python3
"""Time how two checkouts read ``test`` data files, format by format.

Writes one seeded 30 000-value file per layout: ``repr`` values, ``%.6f``
fixed decimals, numpy ``savetxt``'s ``%.18e``, CRLF line ends, comments and
blank lines between values, space-padded values, a bad first line, a bad
last line, and an out-of-range value after 20 000 lines.  Then, in
alternating rounds of one fresh process per checkout, times that
checkout's ``cli._load_unit_data`` on each file (fastest of 20 calls) and
prints, per file, each side's fastest round in ms and the ratio
change / parent.  ``--no-digits`` turns off the digit path on a side that
has one, so that it reads every file by the float64 casts alone, as on a
platform without x87 ``longdouble``.

Example:
    python3 scripts/load_timing.py --parent ../parent --change . --rounds 5
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Runs in the child process: argv is src dir, --no-digits flag, then files.
CHILD = """
import json, sys, timeit
sys.path.insert(0, sys.argv[1])
from mspacings import cli
if sys.argv[2] == "1" and hasattr(cli, "_extended_division"):
    cli._extended_division = lambda: False
def load(path):
    try:
        cli._load_unit_data(path)
    except cli.CliInputError:
        pass
print(json.dumps({path: min(timeit.repeat(lambda: load(path), number=1, repeat=20))
                  for path in sys.argv[3:]}))
"""


def write_files(folder: Path) -> dict[str, str]:
    values = [repr(v) for v in np.random.default_rng(20241022).random(30_000).tolist()]
    numbers = [float(v) for v in values]
    layouts = {
        "repr": "".join(f"{v}\n" for v in values),
        "fixed": "".join(f"{v:.6f}\n" for v in numbers),
        "savetxt": "".join(f"{v:.18e}\n" for v in numbers),
        "crlf": "".join(f"{v}\r\n" for v in values),
        "between": "".join(f"{v}\n" + ("# between\n" if k % 2 else "\n")
                           for k, v in enumerate(values)),
        "padded": "".join(f"  {v} \n" for v in values),
        "bad-first": "".join(f"{v}\n" for v in ["0.5x"] + values[1:]),
        "bad-last": "".join(f"{v}\n" for v in values[:-1] + ["0.5x"]),
        "late": "".join(f"{v}\n" for v in values[:20_000] + ["1.0000001"] + values[20_000:]),
    }
    files = {}
    for name, text in layouts.items():
        path = folder / f"{name}.txt"
        path.write_bytes(text.encode())
        files[name] = str(path)
    return files


def time_side(checkout: str, files: dict[str, str], no_digits: bool) -> dict[str, float]:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(Path(checkout) / "src"),
                           "1" if no_digits else "0", *files.values()],
                          capture_output=True, text=True, check=True)
    times = json.loads(proc.stdout)
    return {name: times[path] for name, path in files.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--no-digits", action="store_true")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as folder:
        files = write_files(Path(folder))
        best = {"parent": {}, "change": {}}
        for round_ in range(args.rounds):
            order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
            for side in order:
                times = time_side(getattr(args, side), files, args.no_digits)
                for name, seconds in times.items():
                    best[side][name] = min(seconds, best[side].get(name, seconds))
    print(f"{'file':10s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>6s}")
    for name in files:
        parent, change = best["parent"][name], best["change"][name]
        print(f"{name:10s} {parent * 1e3:10.3f} {change * 1e3:10.3f} {change / parent:6.2f}")


if __name__ == "__main__":
    main()
