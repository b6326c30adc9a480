"""The four benchmark workloads, as cycles of operations on the package.

Every operation has two forms.  ``run`` is the public call a user makes and
is what the end-to-end metrics time.  ``replay`` makes the same sequence of
public calls with a span around each layer boundary, for the traced run; it
must return a result bit-identical to ``run``.  The package's CLI keeps its
internals private, so a CLI operation is replayed by wrapping, for the length
of the call, the public library functions that ``mspacings.cli`` imports.

Inputs come only from the workload seed: ``cycle(c)`` derives fresh
operation seeds from (seed, c), and the ``cli-test`` data files are written
from the seed before timing starts.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mspacings import (
    DEFAULT_BATCHES,
    Estimate,
    GeneralMoments,
    McConfig,
    McSummary,
    NonFiniteSample,
    SeededStream,
    TupleFunction,
    TupleFunctionFamily,
    batch_std_error,
    batched_components,
    closed_form_moments,
    clt_condition_ratio,
    components,
    estimate_general_moments,
    estimate_sigma_m,
    from_unit_observations,
    holst_vs_corrected,
    ks_distance_to_normal,
    mean_correction,
    resolve_kind,
    simulate_null,
    statistic_Q,
    statistic_V,
    statistic_W,
    statistic_Z,
    window_sums,
)
from mspacings import cli

from tracing import Tracer

KINDS = ("greenwood", "moran", "entropy")


@dataclass(frozen=True)
class CliOutcome:
    """Exit code and captured output of one ``cli.main`` call."""

    code: int
    stdout: str
    stderr: str


@dataclass
class Op:
    """One benchmark operation.

    ``reps`` counts replications (1 for an operation without a replication
    loop); ``draws`` counts the random values the program draws, or for
    ``cli-test`` the data values in the file.  ``check`` returns a problem
    description or None.
    """

    label: str
    run: Callable[[], object]
    replay: Callable[[Tracer], object]
    reps: int
    draws: int
    check: Callable[[object], str | None]


def _plain(result):
    if isinstance(result, CliOutcome):
        return [result.code, result.stdout, result.stderr]
    if dataclasses.is_dataclass(result):
        fields = dataclasses.asdict(result)
        fields.pop("wall_time_s", None)
        return fields
    if isinstance(result, tuple):
        return [_plain(r) for r in result]
    return result


def canonical(result) -> bytes:
    """Canonical bytes of a result: the report text for CLI calls, and for
    library calls the result fields minus ``wall_time_s`` as JSON (floats in
    shortest round-trip form)."""
    return json.dumps(_plain(result), sort_keys=True).encode()


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def check_finite(result) -> str | None:
    return "non-finite value in result" if _non_finite(_plain(result)) else None


def check_ratio(result) -> str | None:
    """clt_condition_ratio documents +inf for a degenerate variance estimate."""
    return None if result >= 0.0 else f"ratio {result!r} is not in [0, inf]"


def _op(label: str, call, replay, args: tuple, reps: int, draws: int, check=check_finite) -> Op:
    """An operation calling ``call(*args)``, replayed as ``replay(tracer, *args)``."""
    return Op(label=label, run=lambda: call(*args), replay=lambda tr: replay(tr, *args),
              reps=reps, draws=draws, check=check)


def _op_seeds(seed: int, cycle: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, cycle]).generate_state(count, np.uint64)
    return [int(s) >> 1 for s in state]


# ---------------------------------------------------------------- null-replication

_STATISTICS = {"v": statistic_V, "w": statistic_W, "q": statistic_Q}


def _statistic(sample, m, kind, variant):
    if variant == "z":
        return statistic_Z(sample, m, kind.as_tuple_function(m))
    return _STATISTICS[variant](sample, m, kind)


def replay_simulate_null(tr: Tracer, config: McConfig) -> McSummary:
    """simulate_null as its sequence of public calls."""
    with tr.span("montecarlo.simulate_null"):
        kind = resolve_kind(config.kind)
        with tr.span("asymptotics.closed_form_moments"):
            moments = closed_form_moments(kind, config.n, config.m)
        sd = math.sqrt(moments.variance)
        z = np.empty(config.replications)
        summands = 0
        for rep in range(config.replications):
            with tr.span("rng.draw"):
                draws = SeededStream(config.seed, rep).uniforms(config.n - 1)
            with tr.span("spacings.from_unit_observations"):
                sample = from_unit_observations(draws)
            with tr.span("statistics.statistic"):
                result = _statistic(sample, config.m, kind, config.variant)
            summands += result.summand_count
            z[rep] = (result.value - moments.mean) / sd
        with tr.span("montecarlo.ks_distance_to_normal"):
            ks = ks_distance_to_normal(z)
        summary = McSummary(
            replications=config.replications,
            mean_z=float(np.mean(z)),
            variance_z=float(np.var(z, ddof=1)),
            ks_distance=ks,
            min_z=float(np.min(z)),
            max_z=float(np.max(z)),
            seed=config.seed,
        )
    tr.counts["rng.streams"] += config.replications
    tr.counts["rng.values"] += config.replications * (config.n - 1)
    tr.counts["statistics.calls"] += config.replications
    tr.counts["statistics.summands"] += summands
    return summary


class NullReplication:
    """simulate_null at n=5000 over the criterion-4 configurations (V at
    m in {1, 2, 5} and W at m=2 for each kind) plus Q and Z at m=2."""

    name = "null-replication"
    CONFIGS = ([(kind, m, "v") for kind in KINDS for m in (1, 2, 5)]
               + [(kind, 2, variant) for variant in "wqz" for kind in KINDS])
    N = {"full": 5000, "tiny": 200}
    REPS = {"full": 50, "tiny": 10}

    def __init__(self, seed: int, size: str, data_dir: Path, validator):
        self.seed = seed
        self.n = self.N[size]
        self.reps = self.REPS[size]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        seeds = _op_seeds(self.seed, c, len(self.CONFIGS))
        for (kind, m, variant), seed in zip(self.CONFIGS, seeds):
            config = McConfig(n=self.n, m=m, kind=kind, replications=self.reps,
                              seed=seed, variant=variant)
            ops.append(_op(f"simulate_null {variant} {kind} m={m}", simulate_null,
                           replay_simulate_null, (config,), self.reps, self.reps * (self.n - 1)))
        return ops

    def provenance(self) -> dict:
        return {"n": self.n, "replications_per_op": self.reps}


# ---------------------------------------------------------------- stationary-stream

def _replay_stream_values(tr: Tracer, h, m: int, draws: int, seed: int):
    """stream_window_values with the draw and the window sums as child spans."""
    with tr.span("rng.draw"):
        x = SeededStream(seed, 0).exponentials(draws + 2 * m)
    with tr.span("lagcov.window_sums"):
        w = window_sums(x, m)
    with np.errstate(all="ignore"):
        hv = np.asarray(resolve_kind(h).sum_fn(w), dtype=np.float64)
    if not np.isfinite(hv).all():
        k = int(np.flatnonzero(~np.isfinite(hv))[0])
        raise NonFiniteSample(f"statistic value at window {k} is not finite")
    tr.counts["rng.streams"] += 1
    tr.counts["rng.values"] += x.size
    tr.counts["lagcov.bytes_computed"] += x.nbytes + hv.nbytes + (w.nbytes if w is not x else 0)
    return x, hv, w


def _replay_components(tr: Tracer, hv, w, m: int):
    with tr.span("lagcov.components"):
        full = components(hv, w, m)
    with tr.span("lagcov.batched_components"):
        batch = batched_components(hv, w, m)
    return full, batch


def replay_estimate_sigma_m(tr, h, m, draws, seed) -> Estimate:
    with tr.span("montecarlo.estimate_sigma_m"):
        _, hv, w = _replay_stream_values(tr, h, m, draws, seed)
        full, batch = _replay_components(tr, hv, w, m)
        return Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))


def replay_holst_vs_corrected(tr, h, m, draws, seed) -> tuple[Estimate, Estimate]:
    with tr.span("asymptotics.holst_vs_corrected"):
        _, hv, w = _replay_stream_values(tr, h, m, draws, seed)
        full, batch = _replay_components(tr, hv, w, m)
        holst = Estimate(full.holst, batch_std_error([c.holst for c in batch]))
        corrected = Estimate(full.corrected, batch_std_error([c.corrected for c in batch]))
        return holst, corrected


CLT_N = 5000
CLT_R = 3.0


def clt_ratio(h, m, draws, seed) -> float:
    """clt_condition_ratio at n = CLT_N and moment order CLT_R."""
    return clt_condition_ratio(h, CLT_N, m, CLT_R, draws, seed)


def replay_clt_ratio(tr, h, m, draws, seed) -> float:
    n, r = CLT_N, CLT_R
    with tr.span("asymptotics.clt_condition_ratio"):
        x, hv, w = _replay_stream_values(tr, h, m, draws, seed)
        with tr.span("lagcov.components"):
            comp = components(hv, w, m)
        base_count = hv.size - (m - 1)
        g = hv[:base_count] - hv.mean() - (x[:base_count] - 1.0) * comp.b
        moment = float(np.mean(np.abs(g) ** r))
        if moment == 0.0:
            return 0.0
        if comp.corrected <= 0.0:
            return math.inf
        return (m ** (r - 1.0)) * moment / (n ** ((r - 2.0) / 2.0) * comp.corrected ** (r / 2.0))


class StationaryStream:
    """estimate_sigma_m, holst_vs_corrected and clt_condition_ratio for each
    kind at m in {1, 2, 3, 5} on one exponential stream per operation."""

    name = "stationary-stream"
    ORDERS = (1, 2, 3, 5)
    DRAWS = {"full": (1_000_000, 2_000_000, 4_000_000), "tiny": (10_000, 20_000, 40_000)}
    ESTIMATORS = (
        ("estimate_sigma_m", estimate_sigma_m, replay_estimate_sigma_m, check_finite),
        ("holst_vs_corrected", holst_vs_corrected, replay_holst_vs_corrected, check_finite),
        ("clt_condition_ratio", clt_ratio, replay_clt_ratio, check_ratio),
    )

    def __init__(self, seed: int, size: str, data_dir: Path, validator):
        self.seed = seed
        self.draws = self.DRAWS[size]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        combos = list(product(KINDS, self.ORDERS))
        seeds = iter(_op_seeds(self.seed, c, 3 * len(combos)))
        # each (kind, m) meets all three stream lengths, one per estimator
        for i, (kind, m) in enumerate(combos):
            for f, (name, call, replay, check) in enumerate(self.ESTIMATORS):
                draws = self.draws[(i + f) % 3]
                ops.append(_op(f"{name} {kind} m={m} draws={draws}", call, replay,
                               (kind, m, draws, next(seeds)), 1, draws, check))
        return ops

    def provenance(self) -> dict:
        return {"window_draws": list(self.draws),
                "array_mb": [round(8 * d / 2**20, 2) for d in self.draws]}


# ---------------------------------------------------------------- family-moments

def two_function_family(n: int) -> TupleFunctionFamily:
    """Non-symmetric order-2 family: x0 * x1 on the first half of the
    positions, (x0 + x1)^2 on the second."""
    product_fn = TupleFunction(lambda r: r[:, 0] * r[:, 1], arity=2, vectorized=True,
                               name="product")
    total_sq = TupleFunction(lambda r: np.square(r.sum(axis=1)), arity=2, vectorized=True,
                             name="square-total")
    return TupleFunctionFamily(tuple(product_fn if k < n // 2 else total_sq for k in range(n)))


def alternating_family(n: int) -> TupleFunctionFamily:
    """x^2 at even positions and 0 at odd ones (acceptance criterion 6)."""
    square = TupleFunction(lambda r: np.square(r[:, 0]), arity=1, vectorized=True, name="square")
    zero = TupleFunction(lambda r: np.zeros(r.shape[0]), arity=1, vectorized=True, name="zero")
    return TupleFunctionFamily(tuple(square if k % 2 == 0 else zero for k in range(n)))


def replay_general_moments(tr: Tracer, family, n, m, replications, seed) -> GeneralMoments:
    """estimate_general_moments with each draw and family evaluation as a
    child span; the remainder is the per-position accumulation."""
    with tr.span("asymptotics.estimate_general_moments"):
        batches = DEFAULT_BATCHES
        size = replications // batches
        sizes = [size + 1 if b < replications - batches * size else size for b in range(batches)]
        sum_h = np.zeros((batches, n))
        sum_w = np.zeros((batches, n))
        sum_hw = np.zeros((batches, n))
        sum_hh = np.zeros((batches, m, n))
        rep = 0
        for b, count in enumerate(sizes):
            for _ in range(count):
                with tr.span("rng.draw"):
                    x = SeededStream(seed, rep).exponentials(n)
                ext = np.concatenate([x, x[: m - 1]]) if m > 1 else x
                windows = sliding_window_view(ext, m)
                with tr.span("statistics.evaluate_all"), np.errstate(all="ignore"):
                    hv = family.evaluate_all(windows)
                if not np.isfinite(hv).all():
                    raise NonFiniteSample("statistic value is not finite")
                w = windows.sum(axis=1)
                sum_h[b] += hv
                sum_w[b] += w
                sum_hw[b] += hv * w
                for d in range(m):
                    sum_hh[b, d] += hv * np.roll(hv, -d)
                rep += 1

        def assemble(sh, sw, shw, shh, count):
            mh = sh / count
            mw = sw / count
            a_val = float(np.sum(mh))
            b_val = float(np.mean(shw / count - mh * mw))
            c_total = 0.0
            for d in range(m):
                cov_d = shh[d] / count - mh * np.roll(mh, -d)
                total = float(np.sum(cov_d))
                c_total += total if d == 0 else 2.0 * total
            c_val = c_total / n
            return a_val, b_val, c_val, n * (c_val - b_val * b_val)

        full = assemble(sum_h.sum(axis=0), sum_w.sum(axis=0), sum_hw.sum(axis=0),
                        sum_hh.sum(axis=0), replications)
        per_batch = [assemble(sum_h[b], sum_w[b], sum_hw[b], sum_hh[b], sizes[b])
                     for b in range(batches)]
        ses = [batch_std_error([pb[i] for pb in per_batch]) for i in range(4)]
        result = GeneralMoments(
            A=full[0], B=full[1], C=full[2], sigma2=full[3],
            se_A=ses[0], se_B=ses[1], se_C=ses[2], se_sigma2=ses[3],
            n=n, m=m, replications=replications, seed=seed,
        )
    tr.counts["rng.streams"] += replications
    tr.counts["rng.values"] += replications * n
    return result


def replay_mean_correction(tr: Tracer, kind, m, draws, seed) -> Estimate:
    with tr.span("asymptotics.mean_correction"):
        result = mean_correction(kind, m, draws, seed)
    tr.counts["rng.streams"] += 1
    tr.counts["rng.values"] += draws * m
    return result


def run_cli(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


@contextmanager
def _traced_cli(tr: Tracer):
    """Wrap the public library functions ``mspacings.cli`` calls in spans."""
    def count_statistic(result):
        tr.counts["statistics.calls"] += 1
        tr.counts["statistics.summands"] += result.summand_count

    wrappers = {
        "from_unit_observations": ("spacings.from_unit_observations", None),
        "statistic_V": ("statistics.statistic", count_statistic),
        "statistic_W": ("statistics.statistic", count_statistic),
        "statistic_Q": ("statistics.statistic", count_statistic),
        "statistic_Z": ("statistics.statistic", count_statistic),
        "closed_form_moments": ("asymptotics.closed_form_moments", None),
        "standardize": ("asymptotics.standardize", None),
        "mean_correction": ("asymptotics.mean_correction", None),
    }
    saved = {name: getattr(cli, name) for name in wrappers}
    try:
        for name, (span, on_result) in wrappers.items():
            setattr(cli, name, tr.wrap(span, saved[name], on_result))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def replay_cli(tr: Tracer, argv: list[str]) -> CliOutcome:
    with _traced_cli(tr), tr.span("cli.main"):
        outcome = run_cli(argv)
    tr.counts["cli.report_bytes"] += len(outcome.stdout.encode())
    return outcome


def _report_checker(validator, extra=None):
    """Check for a CLI call expected to succeed: exit 0, schema-valid report
    with finite numbers, then ``extra`` on the parsed report."""
    def check(outcome: CliOutcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}: {outcome.stderr.strip()}"
        doc = json.loads(outcome.stdout)
        error = next(iter(validator.iter_errors(doc)), None)
        if error is not None:
            return f"report fails the schema: {error.message}"
        if _non_finite(doc):
            return "non-finite value in report"
        return extra(doc) if extra else None
    return check


class FamilyMoments:
    """estimate_general_moments on a two-function family (n=200, m=2) and the
    alternating family (n=1000, m=1), mean_correction, and the meancheck
    command at n=200."""

    name = "family-moments"
    FAMILIES = {"full": ((200, 2), (1000, 1)), "tiny": ((20, 2), (40, 1))}
    REPS = {"full": 300, "tiny": 100}
    MC_DRAWS = {"full": 50_000, "tiny": 10_000}
    CHECK_N = {"full": 200, "tiny": 20}
    CHECK_REPS = {"full": 1000, "tiny": 50}

    def __init__(self, seed: int, size: str, data_dir: Path, validator):
        self.seed = seed
        (n2, m2), (n1, m1) = self.FAMILIES[size]
        self.families = ((two_function_family(n2), n2, m2), (alternating_family(n1), n1, m1))
        self.reps = self.REPS[size]
        self.mc_draws = self.MC_DRAWS[size]
        self.check_n = self.CHECK_N[size]
        self.check_reps = self.CHECK_REPS[size]
        self.check_report = _report_checker(validator)

    def cycle(self, c: int) -> list[Op]:
        ops = []
        combos = list(product(KINDS, (1, 2)))
        seeds = iter(_op_seeds(self.seed, c, 3 * len(combos)))
        for i, (kind, m) in enumerate(combos):
            family, n, fm = self.families[i % 2]
            ops.append(_op(f"estimate_general_moments {family.functions[0].name} n={n} m={fm}",
                           estimate_general_moments, replay_general_moments,
                           (family, n, fm, self.reps, next(seeds)), self.reps, self.reps * n))
            ops.append(_op(f"mean_correction {kind} m={m}", mean_correction, replay_mean_correction,
                           (kind, m, self.mc_draws, next(seeds)), 1, self.mc_draws * m))
            argv = ["meancheck", "--statistic", kind, "--m", str(m), "--n", str(self.check_n),
                    "--reps", str(self.check_reps), "--seed", str(next(seeds))]
            draws = self.check_reps * (self.check_n - 1) + max(self.check_reps, 10_000) * m
            ops.append(_op(f"cli meancheck {kind} m={m}", run_cli, replay_cli, (argv,),
                           self.check_reps, draws, self.check_report))
        return ops

    def provenance(self) -> dict:
        return {"families": [[f.functions[0].name, n, m] for f, n, m in self.families],
                "replications_per_op": self.reps, "meancheck_n": self.check_n,
                "meancheck_reps": self.check_reps}


# ---------------------------------------------------------------- cli-test

_SUM_FNS = {
    "greenwood": np.square,
    "moran": np.log,
    "entropy": lambda x: x * np.log(np.where(x > 0.0, x, 1.0)),
}


def oracle_statistic(values: np.ndarray, kind: str, m: int, variant: str) -> tuple[float, float]:
    """Independent value of a V/W/Q/Z statistic of a data set, with the sum
    of absolute summands as the scale for its rounding tolerance.  Window
    totals are sums of simple spacings here, where the package differences
    order statistics."""
    n = values.size + 1
    s = n * np.diff(np.concatenate([[0.0], np.sort(values), [1.0]]))
    if variant == "q":
        totals = s[: (n // m) * m].reshape(-1, m).sum(axis=1)
    else:
        totals = sliding_window_view(np.concatenate([s, s[: m - 1]]), m).sum(axis=1)
        if variant == "w":
            totals = totals[: n - m]
    terms = _SUM_FNS[kind](totals)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _test_checker(values, kind, m, variant):
    def extra(doc):
        result = doc["result"]
        expected, scale = oracle_statistic(values, kind, m, variant)
        if not abs(result["value"] - expected) <= 1e-9 * (scale + 1.0):
            return f"value {result['value']!r} differs from the oracle {expected!r}"
        p = math.erfc(abs(result["z"]) / math.sqrt(2.0))
        if not math.isclose(result["p_two_sided"], p, rel_tol=1e-12, abs_tol=1e-300):
            return f"p_two_sided {result['p_two_sided']!r} does not match z"
        return None
    return extra


def _exit_checker(expected: int):
    def check(outcome: CliOutcome) -> str | None:
        if outcome.code != expected:
            return f"exit code {outcome.code}, expected {expected}"
        if outcome.stdout:
            return "a failed call printed a report"
        return None
    return check


class CliTest:
    """A closed loop, one client, calling ``mspacings test`` on data files
    written before timing; every (kind, m, variant) at m in {1, 2, 3, 5} meets
    every file size, and one call in forty reads a malformed file."""

    name = "cli-test"
    COMBOS = [(kind, m, variant) for variant in "vwqz" for kind in KINDS for m in (1, 2, 3, 5)]
    FILE_SIZES = {"full": (300, 1000, 3000, 10_000, 30_000), "tiny": (30, 100)}
    FILES_PER_SIZE = {"full": 8, "tiny": 2}
    MALFORMED_EVERY = 40

    def __init__(self, seed: int, size: str, data_dir: Path, validator):
        rng = np.random.default_rng([seed, 0])
        self.values: dict[str, np.ndarray] = {}
        self.files: dict[int, list[str]] = {}
        data_dir.mkdir(parents=True, exist_ok=True)
        for count in self.FILE_SIZES[size]:
            self.files[count] = []
            for j in range(self.FILES_PER_SIZE[size]):
                values = rng.random(count)
                path = _write_data(data_dir / f"uniform-{count}-{j}.txt", values,
                                   header=f"# {count} uniforms")
                self.values[path] = values
                self.files[count].append(path)
        good = rng.random(50).tolist()
        tie = good[:20] + [good[0]]
        self.malformed = [
            # (file, argv options, expected exit code)
            (_write_lines(data_dir / "bad-number.txt", good[:10] + ["0.5x"]),
             ["--statistic", "greenwood"], 1),
            (_write_lines(data_dir / "out-of-range.txt", good[:10] + ["1.25"] + good[10:20]),
             ["--statistic", "entropy", "--m", "2"], 1),
            (_write_lines(data_dir / "nan.txt", good[:10] + ["nan"]),
             ["--statistic", "greenwood", "--variant", "q"], 1),
            (_write_lines(data_dir / "comments-only.txt", ["# no data", ""]),
             ["--statistic", "moran"], 1),
            (_write_lines(data_dir / "tied.txt", tie),
             ["--statistic", "moran", "--m", "1", "--variant", "v"], 2),
            (_write_lines(data_dir / "too-short.txt", good[:3]),
             ["--statistic", "greenwood", "--m", "5"], 1),
        ]
        self.validator = validator
        self.ops = self._build_ops()

    def _build_ops(self) -> list[Op]:
        ops = []
        bad = 0
        uses = {count: 0 for count in self.files}
        for kind, m, variant in self.COMBOS:
            for count, paths in self.files.items():
                path = paths[uses[count] % len(paths)]
                uses[count] += 1
                argv = ["test", path, "--statistic", kind, "--m", str(m), "--variant", variant]
                oracle = _test_checker(self.values[path], kind, m, variant)
                check = _report_checker(self.validator, oracle)
                ops.append(_op(f"cli test {Path(path).name} {variant} {kind} m={m}",
                               run_cli, replay_cli, (argv,), 1, count, check))
                if len(ops) % self.MALFORMED_EVERY == 0:
                    path, options, code = self.malformed[bad % len(self.malformed)]
                    bad += 1
                    ops.append(_op(f"cli test {Path(path).name} exit={code}", run_cli,
                                   replay_cli, (["test", path] + options,), 1, 0,
                                   _exit_checker(code)))
        return ops

    def cycle(self, c: int) -> list[Op]:
        return self.ops

    def provenance(self) -> dict:
        return {"file_sizes": list(self.files),
                "files_per_size": len(next(iter(self.files.values()))),
                "malformed_files": len(self.malformed)}


def _write_lines(path: Path, lines) -> str:
    # the directory is keyed by seed and size, so an existing file already
    # holds these lines (set-up probes rebuild the workload in other processes)
    if not path.exists():
        text = "\n".join(repr(v) if isinstance(v, float) else v for v in lines) + "\n"
        path.write_text(text, encoding="utf-8")
    return path.as_posix()


def _write_data(path: Path, values: np.ndarray, header: str) -> str:
    return _write_lines(path, [header] + values.tolist())


WORKLOADS = {w.name: w for w in (NullReplication, StationaryStream, FamilyMoments, CliTest)}
