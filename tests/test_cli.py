"""Command-line behavior: exit codes, report schema, reproducible output."""

import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import mspacings
from mspacings import SeededStream
from mspacings.cli import main

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

    def test_threads_floor(self, capsys, data_path):
        code, _, err = run_cli(capsys, "test", data_path, "--statistic",
                               "greenwood", "--threads", "0")
        assert code == 1
        assert "--threads" in err

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

    def test_threads_flag_never_changes_output(self, capsys, data_path):
        base = ("test", data_path, "--statistic", "greenwood")
        _, one, _ = run_cli(capsys, *base, "--threads", "1")
        _, four, _ = run_cli(capsys, *base, "--threads", "4")
        assert one == four


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
