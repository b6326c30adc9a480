"""Command-line behavior: exit codes, report schema, reproducible output."""

import argparse
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import mspacings
from mspacings import (
    DomainViolation,
    SeededStream,
    ZeroSpacing,
    closed_form_moments,
    resolve_kind,
)
from mspacings import cli
from mspacings.cli import main
from mspacings.spacings import anchored_points, spacing_rows
from mspacings.statistics import NAMED_KINDS

SCHEMA = json.loads(
    (Path(mspacings.__file__).parent / "report_schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_data(tmp_path, values, name="data.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    return str(path)


@pytest.fixture
def data_path(tmp_path):
    return write_data(tmp_path, SeededStream(17).uniforms(20))


class TestExitCodes:
    def test_ok(self, capsys, data_path):
        code, out, err = run_cli(capsys, "test", data_path, "--statistic", "greenwood")
        assert code == 0
        assert err == ""
        assert json.loads(out)["command"] == "test"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "test", str(tmp_path / "nope.txt"),
                               "--statistic", "greenwood")
        assert code == 1
        assert "cannot read" in err

    def test_out_of_range_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n1.0\n0.25\n")
        code, _, err = run_cli(capsys, "test", str(path), "--statistic", "greenwood")
        assert code == 1
        assert "line 2" in err and "[0, 1)" in err

    def test_non_numeric_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n\n# comment\nabc\n")
        code, _, err = run_cli(capsys, "test", str(path), "--statistic", "greenwood")
        assert code == 1
        assert "line 4" in err and "'abc'" in err

    def test_first_bad_line_is_named(self, capsys, tmp_path):
        # the one-cast path refuses the non-number on line 5 first; the line
        # loop it falls back to still names the out-of-range value on line 3
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0.5\n1.5\n0.25\nabc\n")
        code, _, err = run_cli(capsys, "test", str(path), "--statistic", "greenwood")
        assert code == 1
        assert err == "error: line 3: value 1.5 is outside [0, 1)\n"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n\n")
        code, _, err = run_cli(capsys, "test", str(path), "--statistic", "greenwood")
        assert code == 1
        assert "no data values" in err

    def test_tied_sample_is_domain_error(self, capsys, tmp_path):
        path = write_data(tmp_path, [0.3, 0.3, 0.7])
        code, _, err = run_cli(capsys, "test", path, "--statistic", "moran")
        assert code == 2
        assert "spacing" in err

    def test_order_too_large(self, capsys, data_path):
        code, _, err = run_cli(capsys, "test", data_path,
                               "--statistic", "greenwood", "--m", "21")
        assert code == 1
        assert "order" in err

    def test_simulate_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "20", "--statistic",
                               "greenwood", "--reps", "5")
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_input_error(self, capsys, seed):
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--statistic",
                                 "greenwood", "--reps", "5", "--seed", seed)
        assert code == 1
        assert out == ""
        assert f"seed {seed} " in err

    def test_seed_flags_are_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "20", "--statistic",
                             "greenwood", "--reps", "5", "--seed", "1",
                             "--seed-from-entropy")
        assert code == 1

    @pytest.mark.parametrize("flag, message", [
        (("--reps", "1"), "replications must be >= 2, got 1"),
        (("--m", "0"), "need 1 <= m < n, got m=0, n=20"),
    ])
    def test_simulate_configuration_is_input_error(self, capsys, flag, message):
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--statistic",
                                 "greenwood", "--seed", "1", "--reps", "5", *flag)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", [
        ("test", None, "--statistic", "greenwood"),
        ("simulate", "--n", "20", "--reps", "10", "--statistic", "greenwood", "--seed", "1"),
        ("sigma", "--statistic", "greenwood", "--draws", "10000", "--seed", "1"),
        ("meancheck", "--statistic", "greenwood", "--n", "20", "--reps", "10", "--seed", "1"),
    ], ids=lambda argv: argv[0])
    def test_threads_is_a_usage_error(self, capsys, data_path, command):
        argv = [data_path if arg is None else arg for arg in command]
        cli.build_parser().parse_args(argv)  # valid without the flag
        code, out, err = run_cli(capsys, *argv, "--threads", "1")
        assert code == 1
        assert out == ""
        assert "--threads" in err

    def test_statistic_choices_are_the_registry(self):
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for name, parser in commands.choices.items():
            (action,) = [a for a in parser._actions if "--statistic" in a.option_strings]
            assert list(action.choices) == list(NAMED_KINDS), name

    def test_unknown_statistic(self, capsys, data_path):
        code, _, _ = run_cli(capsys, "test", data_path, "--statistic", "wilcoxon")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "mspacings" in out

    def test_sigma_needs_a_target(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--seed", "1", "--draws", "10000")
        assert code == 1
        assert "--statistic" in err and "--custom-h" in err

    def test_sigma_takes_one_target(self, capsys):
        code, out, err = run_cli(capsys, "sigma", "--statistic", "greenwood",
                                 "--custom-h", "cube", "--m", "2", "--draws", "10000",
                                 "--seed", "1")
        assert code == 1
        assert out == ""
        assert "--statistic" in err and "--custom-h" in err

    def test_sigma_draw_floor(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--statistic", "greenwood",
                               "--seed", "1", "--draws", "100")
        assert code == 1
        assert "--draws" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0.1\n0.4\n0.8\n"))
        code, out, _ = run_cli(capsys, "test", "-", "--statistic", "greenwood")
        assert code == 0
        assert json.loads(out)["result"]["n"] == 4


class TestReportSchema:
    def check(self, out):
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        return doc

    def test_test_command(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "test", data_path, "--statistic", "moran",
                               "--m", "2", "--variant", "w")
        assert code == 0
        doc = self.check(out)
        result = doc["result"]
        assert result["variant"] == "W"
        assert result["summand_count"] == 21 - 2
        assert 0.0 <= result["p_two_sided"] <= 1.0
        assert result["p_upper"] + result["p_lower"] == pytest.approx(1.0, rel=1e-12)

    def test_simulate_command(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "50", "--m", "1",
                               "--statistic", "greenwood", "--reps", "10",
                               "--seed", "3")
        assert code == 0
        doc = self.check(out)
        assert doc["result"]["replications"] == 10
        assert doc["result"]["wall_time_s"] is None
        assert doc["params"]["seed"] == 3

    def test_sigma_command(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--statistic", "greenwood",
                               "--m", "1", "--draws", "10000", "--seed", "4")
        assert code == 0
        doc = self.check(out)
        assert set(doc["result"]) == {"estimate", "std_error", "closed_form"}
        assert doc["result"]["closed_form"] == 4.0

    def test_meancheck_command(self, capsys):
        code, out, _ = run_cli(capsys, "meancheck", "--statistic", "greenwood",
                               "--n", "50", "--reps", "2000", "--seed", "6")
        assert code == 0
        doc = self.check(out)
        result = doc["result"]
        assert set(result) == {
            "leading_term", "formula_correction", "formula_correction_se",
            "simulated_correction", "simulated_correction_se",
            "exact_correction", "corrections_agree",
        }
        assert result["leading_term"] == 100.0
        assert result["exact_correction"] == pytest.approx(-100.0 / 51.0, rel=1e-12)
        assert isinstance(result["corrections_agree"], bool)
        assert bool(doc["warnings"]) == (not result["corrections_agree"])

    def test_timing_fills_elapsed(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "test", data_path, "--statistic",
                               "greenwood", "--timing")
        assert code == 0
        doc = self.check(out)
        assert doc["elapsed_ms"] > 0.0


class TestReproducibility:
    def test_byte_identical_reruns(self, capsys):
        argv = ("simulate", "--n", "60", "--m", "2", "--statistic", "entropy",
                "--reps", "25", "--seed", "11")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_reused_parser_equals_a_fresh_one(self, capsys, data_path):
        calls = [
            ("test", data_path, "--statistic", "moran", "--m", "2", "--variant", "q"),
            ("test", data_path, "--statistic", "greenwood", "--m", "0.5"),  # usage error
            ("meancheck", "--statistic", "entropy", "--m", "2", "--n", "30", "--reps", "100",
             "--seed", "3"),
            ("simulate", "--n", "40", "--statistic", "greenwood", "--reps", "50", "--seed", "4",
             "--format", "text"),
            ("sigma", "--statistic", "moran", "--m", "2", "--draws", "10000", "--seed", "5"),
            ("test", data_path, "--statistic", "entropy"),
        ]
        cli._parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0, 0]
        assert "invalid int value: '0.5'" in reused[1][2]


class TestTextFormat:
    def test_layout(self, capsys, data_path):
        code, out, _ = run_cli(capsys, "test", data_path, "--statistic",
                               "greenwood", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "command: test"
        assert lines[1] == "schema_version: 1"
        assert "params:" in lines and "result:" in lines
        assert "  statistic: greenwood" in lines
        assert "  mean: 42" in lines  # 21 arcs, per-window mean 2, .10g drops .0
        assert "warnings: none" in lines
        assert lines[-1] == "elapsed_ms: null"

    def test_boolean_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "meancheck", "--statistic", "moran",
                               "--n", "40", "--reps", "500", "--seed", "8",
                               "--format", "text")
        assert code == 0
        assert any(line.startswith("  corrections_agree: ")
                   and line.endswith(("true", "false")) for line in out.splitlines())


class TestSigmaVariants:
    def test_custom_h_has_no_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--custom-h", "identity",
                               "--m", "1", "--draws", "10000", "--seed", "2")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["result"]["closed_form"] is None
        assert doc["params"]["statistic"] == "identity"

    def test_compare_holst_keys(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--statistic", "greenwood",
                               "--m", "2", "--draws", "20000", "--seed", "5",
                               "--compare-holst")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, SCHEMA)
        assert set(doc["result"]) == {
            "estimate", "std_error", "closed_form", "holst",
            "holst_std_error", "difference", "difference_std_error",
        }
        assert doc["result"]["closed_form"] == 20.0

    def test_compare_holst_order_one_difference_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "sigma", "--statistic", "greenwood",
                               "--m", "1", "--draws", "10000", "--seed", "5",
                               "--compare-holst")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["difference"] == 0.0
        assert doc["result"]["difference_std_error"] == 0.0


class TestSigmaOrder:
    @pytest.mark.parametrize("m", ["0", "-2"])
    @pytest.mark.parametrize("target", [("--custom-h", "cube"), ("--statistic", "moran")])
    @pytest.mark.parametrize("holst", [(), ("--compare-holst",)])
    def test_order_below_one_is_input_error(self, capsys, m, target, holst):
        code, out, err = run_cli(capsys, "sigma", *target, "--m", m, "--seed", "1",
                                 "--draws", "10000", *holst)
        assert code == 1
        assert out == ""
        assert err == f"error: order must be >= 1, got {m}\n"

    @pytest.mark.parametrize("target", [("--custom-h", "cube"), ("--statistic", "entropy")])
    def test_compare_holst_only_adds_fields(self, capsys, target):
        argv = ("sigma", *target, "--m", "3", "--draws", "20000", "--seed", "8")
        _, plain, _ = run_cli(capsys, *argv)
        _, compared, _ = run_cli(capsys, *argv, "--compare-holst")
        plain, compared = json.loads(plain), json.loads(compared)
        assert plain["result"] == {k: compared["result"][k] for k in plain["result"]}
        assert len(compared["result"]) == len(plain["result"]) + 4


def looped_mean_correction(kind, n, m, reps, seed, stream_cls=SeededStream):
    """The meancheck simulation as one chunk loop with its own spacing
    arithmetic, scaling and domain checks: the oracle for the engine path."""
    rows = max(1, 2_000_000 // max(n - 1, 1))
    stream = stream_cls(seed, 0)
    totals = np.empty(reps)
    done = 0
    while done < reps:
        count = min(rows, reps - done)
        u = stream.uniforms(count * (n - 1)).reshape(count, n - 1)
        scaled = n * spacing_rows(anchored_points(u), m)
        if kind.requires_positive and not (scaled > 0.0).all():
            bad = int(np.flatnonzero(~(scaled > 0.0).ravel())[0]) % n
            raise ZeroSpacing(bad)
        with np.errstate(all="ignore"):
            hv = np.asarray(kind.sum_fn(scaled), dtype=np.float64)
        if not np.isfinite(hv).all():
            bad = int(np.flatnonzero(~np.isfinite(hv).ravel())[0]) % n
            raise DomainViolation(bad, "non-finite summand in simulation")
        totals[done : done + count] = hv.sum(axis=1)
        done += count
    leading = closed_form_moments(kind, n, m).mean
    correction = float(np.mean(totals)) - leading
    se = float(np.std(totals, ddof=1) / math.sqrt(reps))
    return leading, correction, se


class TiedStream(SeededStream):
    """A stream whose draw ``TIE`` repeats the draw before it."""

    # draw 7 of replication 3 at n = 20 (19 draws per replication)
    TIE = 3 * 19 + 7

    def uniforms(self, count):
        u = super().uniforms(count)
        start = getattr(self, "drawn", 0)
        self.drawn = start + count
        if start < self.TIE < start + count:
            u[self.TIE - start] = u[self.TIE - start - 1]
        return u


class TestMeancheckSimulation:
    CASES = [(20, 2), (20, 333), (200, 1000), (50, 2000)]

    @pytest.mark.parametrize("one_row_chunks", [False, True])
    @pytest.mark.parametrize("n, reps", CASES)
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("kind", ["greenwood", "moran", "entropy"])
    def test_equals_loop(self, monkeypatch, kind, m, n, reps, one_row_chunks):
        if one_row_chunks:
            monkeypatch.setattr(cli, "CHUNK_VALUES", n)
        kind = resolve_kind(kind)
        got = cli._simulated_mean_correction(kind, n, m, reps, 11 * m + n)
        expected = looped_mean_correction(kind, n, m, reps, 11 * m + n)
        assert [v.hex() for v in got] == [v.hex() for v in expected]

    @pytest.mark.parametrize("one_row_chunks", [False, True])
    def test_tie_is_the_oracles_zero_spacing(self, capsys, monkeypatch, one_row_chunks):
        if one_row_chunks:
            monkeypatch.setattr(cli, "CHUNK_VALUES", 20)
        with pytest.raises(ZeroSpacing) as oracle:
            looped_mean_correction(resolve_kind("moran"), 20, 1, 10, 4, TiedStream)
        monkeypatch.setattr(cli, "SeededStream", TiedStream)
        code, out, err = run_cli(capsys, "meancheck", "--statistic", "moran", "--n", "20",
                                 "--reps", "10", "--seed", "4")
        assert (code, out) == (2, "")
        assert err == f"error: {oracle.value}\n"


def reference_load(text: str) -> list[float]:
    """The data-file parser as a loop over every line: the oracle for
    ``cli._load_unit_data``."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            raise cli.CliInputError(f"line {lineno}: {line!r} is not a number") from None
        if not 0.0 <= value < 1.0:
            raise cli.CliInputError(f"line {lineno}: value {line} is outside [0, 1)")
        values.append(value)
    if not values:
        raise cli.CliInputError("no data values found")
    return values


def parse_outcome(load, text):
    """float64 bits of the values, or the error message."""
    try:
        return np.asarray(load(text), dtype=np.float64).view(np.uint64).tolist()
    except cli.CliInputError as exc:
        return str(exc)


def load_stdin(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.StringIO(text, newline=""))
        values = cli._load_unit_data("-")
    assert values.dtype == np.float64
    return values


# whitespace that str.strip removes; "\x1f" is also one that float() refuses
PADS = st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000", " \x1f "])
# every separator of str.splitlines
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                              "\x85", "\u2028", "\u2029"])
IN_RANGE = st.floats(0.0, 1.0, exclude_max=True).map(repr)
DATA = st.one_of(IN_RANGE, st.floats().map(repr), st.sampled_from([
    "-0.0", "1.0", "nan", "-nan", "inf", "1_0", "0_5", "0.2_5", "\u0660.\u0665",
    "\uff10.\uff15", "0.1 0.2", "0.5x", "0x1p-1", "1e-400", "."]))
BLANK = st.lists(PADS, max_size=3).map("".join)
COMMENT = st.tuples(PADS, st.sampled_from(["#", "# header", "##", "#0.5"])).map("".join)


@st.composite
def data_files(draw):
    """Texts of data files: an optional header of blank and comment lines,
    then either values alone, mostly in range, or any mix of lines."""
    header = draw(st.lists(st.one_of(BLANK, COMMENT), max_size=3))
    if draw(st.booleans()):
        value = st.one_of(IN_RANGE, IN_RANGE, st.sampled_from(["1.0", "-1e-300", "nan", "1_0"]))
        body = st.tuples(PADS, value, PADS).map("".join)
    else:
        body = st.one_of(st.tuples(PADS, DATA, PADS).map("".join), BLANK, COMMENT)
    lines = header + draw(st.lists(body, max_size=8))
    ends = draw(st.lists(SEPARATORS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


class TestDataFile:
    @given(data_files())
    @example("# h\n0.5\x1f\n0.25\n")
    @example("0.1 0.2\n")
    @example("\n\n")
    @example("0.5\n\n")
    @example("0.5\r\n# tail\r\n")
    @example("#\n0.5\n-0.0\n1_0\n")
    @example("0.5\nnan\n0.2\n")
    @example("# h\n0.25\n1.0\n")
    @example("0.5\n-1e-300\n")
    @example("\u0660.\u0665\x85\xa00.25\xa0\u2028")
    @example("   # indented header\n0.75\n")
    def test_equals_the_line_loop(self, text):
        assert parse_outcome(load_stdin, text) == parse_outcome(reference_load, text)

    def test_both_paths_give_the_same_reports(self, capsys, monkeypatch, tmp_path):
        values = SeededStream(23).uniforms(300).tolist()
        plain = tmp_path / "plain.txt"
        plain.write_text("# 300 uniforms\n" + "".join(f"{v!r}\n" for v in values) + "\n# end\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_bytes("".join(
            f"{v!r}\r\n" + ("# between\r\n" if k % 3 == 0 else "\r\n" if k % 3 == 1 else "")
            for k, v in enumerate(values)).encode())
        loops = []
        monkeypatch.setattr(cli, "_bad_value",
                            lambda lines, index, bad=cli._bad_value:
                            loops.append(1) or bad(lines, index))
        for kind in NAMED_KINDS:
            for m in (1, 2, 3, 5):
                for variant in "vwqz":
                    options = ["--statistic", kind, "--m", str(m), "--variant", variant]
                    reports = []
                    for path in (plain, mixed):
                        code, out, err = run_cli(capsys, "test", str(path), *options)
                        assert (code, err) == (0, "")
                        reports.append(out.replace(str(path), "FILE"))
                    monkeypatch.setattr(sys, "stdin", io.StringIO(mixed.read_text()))
                    code, out, _ = run_cli(capsys, "test", "-", *options)
                    reports.append(out.replace('"-"', '"FILE"'))
                    assert code == 0
                    assert reports[1] == reports[0] and reports[2] == reports[0]
        # every valid file, comments between values included, is read by the
        # casts alone; only a file with a bad value counts lines
        assert loops == []

    @given(data_files(), st.sampled_from([1, 2, 3]))
    def test_cast_blocks_do_not_matter(self, text, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CAST_BLOCK", block)
            assert parse_outcome(load_stdin, text) == parse_outcome(reference_load, text)

    @pytest.mark.parametrize("bad", [0, 4095, 4096, 4097, 8191, 8999])
    @pytest.mark.parametrize("value", ["abc", "1.5", "nan", "0.5\x1f0"])
    @pytest.mark.parametrize("earlier", [None, "0.25 0.5", "-0.5"])
    def test_bad_value_in_any_block(self, bad, value, earlier):
        # the cast runs in blocks of 4096 kept lines
        values = [repr(v) for v in SeededStream(29).uniforms(9000).tolist()]
        values[bad] = value
        if earlier and bad:
            values[bad // 2] = earlier  # named first, refused or out of range
        text = "# header\n" + "\n".join(values) + "\n# trailer\n"
        assert parse_outcome(load_stdin, text) == parse_outcome(reference_load, text)


def test_module_runs_as_script(tmp_path):
    path = write_data(tmp_path, SeededStream(1).uniforms(10))
    proc = subprocess.run(
        [sys.executable, "-m", "mspacings.cli", "test", path,
         "--statistic", "greenwood"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, SCHEMA)
    assert doc["result"]["n"] == 11


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in (parser, *commands.choices.values()) for action in p._actions
               for opt in action.option_strings if opt.startswith("--")}
    missing = [opt for opt in sorted(options)
               if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)]
    assert missing == []
