"""A non-finite summand is refused with the same DomainViolation on every
path that reduces summands: one-sample evaluation, the null simulation
(which names the first failing replication) and the meancheck simulation.
Each path scans the summands only when a row result comes out non-finite."""

import math

import numpy as np
import pytest

from mspacings import (
    AsymptoticMoments,
    DomainViolation,
    McConfig,
    SeededStream,
    SimulationAborted,
    UnsupportedKind,
    custom_sum,
    from_unit_observations,
    simulate_null,
)
from mspacings import cli, montecarlo
from mspacings.statistics import evaluate

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


def first_failure(kind, variant, stream):
    """(replication, message) of the first one-sample evaluation that fails."""
    for rep in range(REPS):
        try:
            evaluate(from_unit_observations(stream(rep)), M, kind, variant)
        except DomainViolation as exc:
            assert str(exc).startswith("tuple function undefined at window ")
            return rep, str(exc)
    raise AssertionError("no replication fails")


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("variant", VARIANTS)
def test_simulate_null_names_the_first_failing_replication(monkeypatch, bad, variant):
    monkeypatch.setattr(montecarlo, "CHUNK_VALUES", ROWS * N)
    kind = spike(bad, CUT)
    rep, text = first_failure(kind, variant,
                              lambda rep: SeededStream(SEED, rep).uniforms(N - 1))
    assert rep >= ROWS
    config = McConfig(n=N, m=M, kind=kind, replications=REPS, seed=SEED, variant=variant)
    ok = AsymptoticMoments(mean=0.0, variance=1.0, per_term_mean=0.0, per_term_variance=1.0)
    with pytest.raises(SimulationAborted) as err:
        simulate_null(config, moments=ok)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_meancheck_keeps_finite_overflowing_totals():
    # every summand is finite and only the row totals overflow, so the scan
    # finds nothing; the run goes on to the closed forms, which a custom
    # kind has none of
    kind = custom_sum(lambda x: np.full_like(x, 1e308), name="huge")
    with pytest.raises(UnsupportedKind):
        cli._simulated_mean_correction(kind, N, M, 4, SEED)
