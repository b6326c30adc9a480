"""A non-finite summand is refused with the same DomainViolation, and finite
summands whose sum overflows with the same SummandOverflow, on every path
that reduces summands: one-sample evaluation, the null simulation (which
names the first failing replication) and the meancheck simulation.  Each
path scans the summands only when a row total comes out non-finite."""

import math
import re

import numpy as np
import pytest

from mspacings import (
    DomainViolation,
    McConfig,
    SeededStream,
    SimulationAborted,
    SummandOverflow,
    custom_sum,
    from_unit_observations,
    null_values,
)
from mspacings import cli, montecarlo
from mspacings.statistics import NAMED_KINDS, evaluate

BAD = [math.inf, -math.inf, math.nan]
VARIANTS = ["v", "w", "q", "z"]


def spike(bad, cut):
    """A kind equal to its argument, except ``bad`` from ``cut`` on."""
    return custom_sum(lambda x: np.where(x >= cut, bad, x), name="spike")


def message(bad, window, value):
    """The DomainViolation text: V, W and Q name the kind and the scaled
    spacing, Z the bad value."""
    detail = f"value {bad!r}" if value is None else f"spike returned {bad!r} at value {value!r}"
    return f"tuple function undefined at window {window}: {detail}"


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("variant, cut, window, value", [
    # 4 arcs, scaled simple spacings 1, 1, 1.5, 0.5: at m = 2 the scaled
    # m-spacings, and the window totals, are 2, 2.5, 2, 1.5, W keeps the
    # first two, and the disjoint ones are 2, 2
    ("v", 2.25, 1, 2.5),
    ("w", 2.25, 1, 2.5),
    ("q", 2.0, 0, 2.0),
    ("z", 2.25, 1, None),
])
def test_evaluate(bad, variant, cut, window, value):
    with pytest.raises(DomainViolation) as err:
        evaluate(from_unit_observations([0.25, 0.5, 0.875]), 2, spike(bad, cut), variant)
    assert err.value.index == window
    assert str(err.value) == message(bad, window, value)


# n = 20, m = 2: a scaled 2-spacing of at least 6 first occurs in a later
# chunk of three replications, for every variant
N, M, CUT, SEED, REPS, ROWS = 20, 2, 6.0, 4, 40, 3


def first_failure(kind, variant, stream, error=DomainViolation):
    """(replication, message) of the first one-sample evaluation that fails,
    which must fail with ``error``."""
    for rep in range(REPS):
        try:
            evaluate(from_unit_observations(stream(rep)), M, kind, variant)
        except (DomainViolation, SummandOverflow) as exc:
            assert type(exc) is error
            return rep, str(exc)
    raise AssertionError("no replication fails")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("variant", VARIANTS)
def test_null_values_names_the_first_failing_replication(monkeypatch, bad, variant):
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", ROWS * N)
    kind = spike(bad, CUT)
    rep, text = first_failure(kind, variant,
                              lambda rep: SeededStream(SEED, rep).uniforms(N - 1))
    assert rep >= ROWS
    config = McConfig(n=N, m=M, kind=kind, replications=REPS, seed=SEED, variant=variant)
    with pytest.raises(SimulationAborted) as err:
        null_values(config)
    assert err.value.replication == rep
    assert isinstance(err.value.cause, DomainViolation)
    assert str(err.value) == f"replication {rep} aborted: {text}"


@pytest.mark.parametrize("bad", BAD)
def test_meancheck_simulation(monkeypatch, bad):
    monkeypatch.setattr(cli, "CHUNK_VALUES", ROWS * N)
    kind = spike(bad, CUT)
    stream = SeededStream(SEED, 0)  # meancheck's consecutive draws
    rep, text = first_failure(kind, "v", lambda rep: stream.uniforms(N - 1))
    assert rep >= ROWS
    with pytest.raises(DomainViolation) as err:
        cli._simulated_mean_correction(kind, N, M, REPS, SEED)
    assert str(err.value) == text


def test_meancheck_refuses_finite_overflowing_totals():
    # every summand is finite and only the row totals overflow, so the scan
    # finds nothing and the overflow itself is refused
    kind = custom_sum(lambda x: np.full_like(x, 1e308), name="huge")
    with pytest.raises(SummandOverflow) as err:
        cli._simulated_mean_correction(kind, N, M, 4, SEED)
    assert (err.value.index, err.value.value) == (0, 1e308)
    assert str(err.value) == ("the sum of 20 finite summands overflows; the largest is "
                              "summand 0, 1e+308")


@pytest.mark.parametrize("variant", VARIANTS)
def test_null_values_names_the_first_overflowing_replication(monkeypatch, variant):
    # greenwood scaled so that its sum overflows above a threshold that a
    # replication of a later chunk is the first to pass
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", ROWS * N)
    values = [evaluate(from_unit_observations(SeededStream(SEED, rep).uniforms(N - 1)),
                       M, "greenwood", variant).value for rep in range(REPS)]
    below = max(values[:ROWS])
    above = min(v for v in values[ROWS:] if v > below)
    scale = np.finfo(np.float64).max / (0.5 * (below + above))
    kind = custom_sum(lambda x: np.square(x) * scale, name="scaled")
    rep, text = first_failure(kind, variant, lambda r: SeededStream(SEED, r).uniforms(N - 1),
                              SummandOverflow)
    assert rep >= ROWS
    assert re.fullmatch(r"the sum of \d+ finite summands overflows; "
                        r"the largest is summand \d+, [0-9.e+]+", text)
    config = McConfig(n=N, m=M, kind=kind, replications=REPS, seed=SEED, variant=variant)
    with pytest.raises(SimulationAborted) as err:
        null_values(config)
    assert err.value.replication == rep
    assert isinstance(err.value.cause, SummandOverflow)
    assert str(err.value) == f"replication {rep} aborted: {text}"


@pytest.mark.parametrize("argv, prefix", [
    (["test", "DATA", "--statistic", "greenwood"], ""),
    (["simulate", "--n", "20", "--m", "2", "--statistic", "greenwood", "--reps", "4",
      "--seed", "1"], "replication 0 aborted: "),
    (["meancheck", "--statistic", "greenwood", "--m", "2", "--n", "20", "--reps", "4",
      "--seed", "1"], ""),
])
def test_cli_exits_2_on_an_overflowing_sum(monkeypatch, capsys, tmp_path, argv, prefix):
    # the overflow is a domain failure of the statistic, as a non-finite
    # summand is, on every command that sums summands
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{v}\n" for v in (0.1, 0.35, 0.5, 0.8)))
    def huge(x, out=None):
        return np.full_like(x, 1e308) if out is None else np.copyto(out, 1e308) or out

    monkeypatch.setitem(NAMED_KINDS, "greenwood", custom_sum(huge, name="greenwood"))
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    assert cli.main(argv) == 2
    assert re.fullmatch(f"error: {prefix}the sum of \\d+ finite summands overflows; "
                        "the largest is summand 0, 1e\\+308\n", capsys.readouterr().err)
