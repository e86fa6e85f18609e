"""Experiment front-end: config files, solver dispatch, trace CSVs, and the
sampling-bound verification / exact-vs-sampled comparison reports.

Config files are flat ``key = value`` text ('#' starts a comment); unknown
keys are rejected. Exit codes are a stable contract:
0 converged, 2 not-converged (solver aborted included), 4 verification
failure, 3 config error (malformed or unreadable dataset and config files, and
an unwritable trace path, included).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (ABORT_ERRORS, Array, ConfigurationError, IterationRecord,
                   OptimalityTolerances, SolveResult, ensure_finite)
from .cubic_reg import ARCConfig, run_arc
from .problems import (LOSSES, DatasetError, FiniteSumProblem, QuarticSaddle,
                       generate_synthetic, load_dataset, run_claimed)
from .sampling import (HESSIANS, SampleScheme, concentration_draws, hessian_source,
                       prescribed_size, verify_concentration)
from .trust_region import TRConfig, run_tr

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG_ERROR = 3
EXIT_VERIFICATION_FAILURE = 4

# The trace's columns in order, each with the ``IterationRecord`` field it holds.
TRACE_SCHEMA = (
    ("t", "t"), ("F", "f_value"), ("grad_norm", "grad_norm"),
    ("lambda_min_est", "lambda_min_estimate"), ("radius_or_sigma", "radius_or_sigma"),
    ("rho", "rho"), ("accepted", "accepted"), ("sample_size", "sample_size"),
    ("step_norm", "step_norm"), ("eps_t", "eps_t"), ("lambda_source", "lambda_source"))
TRACE_COLUMNS = tuple(column for column, _ in TRACE_SCHEMA)

@dataclass
class ExperimentConfig:
    """Validated experiment description (see ``configs/`` for an example)."""

    problem: str = "biweight"
    data: str | None = None
    format: str = "csv"
    n: int = 1000
    d: int = 50
    skew: float = 1.0
    k_max_target: float | None = None
    noise: float = 0.1
    data_seed: int = 0
    solver: str = "tr"
    arc_mode: str = "standard"
    hessian: str = "exact"
    eps_g: float = 1e-4
    eps_h: float = 1e-2
    delta: float = 0.1
    eta: float = 0.2
    gamma: float = 2.0
    alpha: float = 0.5
    nu: float | None = None
    zeta: float = 0.25
    sigma0: float = 1.0
    radius0: float = 1.0
    l_estimate: float | None = None
    sigma_min: float = 1e-12
    max_iters: int = 500
    seed: int = 0
    x0_scale: float = 0.0
    eps_cap: float = 0.9
    out: str = "trace.csv"
    trials: int = 20
    verify_eps: str = "0.5,0.35,0.25"
    verify_delta: str = "0.1"
    verify_trials: int = 400

    def __post_init__(self) -> None:
        if self.problem not in ("quartic", *LOSSES):
            raise ConfigurationError(f"unknown problem {self.problem!r}")
        if self.solver not in ("tr", "arc"):
            raise ConfigurationError(f"solver must be tr or arc, got {self.solver!r}")
        if self.arc_mode not in ("standard", "optimal"):
            raise ConfigurationError(f"unknown arc_mode {self.arc_mode!r}")
        if self.hessian not in HESSIANS:
            raise ConfigurationError(f"unknown hessian mode {self.hessian!r}")
        if self.problem == "quartic" and self.hessian != "exact":
            raise ConfigurationError("the quartic test problem has no finite-sum "
                                     "structure to sub-sample")
        if not (0.0 < self.eps_cap <= 1.0):
            raise ConfigurationError("eps_cap must lie in (0, 1]")
        if not np.isfinite(self.x0_scale):
            raise ConfigurationError(f"x0_scale must be finite, got {self.x0_scale}")
        for key, low in (("trials", 1), ("verify_trials", 1), ("data_seed", 0)):
            if getattr(self, key) < low:
                raise ConfigurationError(
                    f"{key} must be at least {low}, got {getattr(self, key)}")
        for key in ("verify_eps", "verify_delta"):
            _grid(self, key)


def _grid(config: ExperimentConfig, key: str) -> list[float]:
    """The comma-separated numbers of a grid key such as ``verify_eps``."""
    text = getattr(config, key)
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"{key} must list numbers, got {text!r}") from None
    if not values:
        raise ConfigurationError(f"{key} must list at least one number")
    return values


# Field name -> its annotation as a string ("str", "str | None", "int",
# "float" or "float | None"); the annotations are postponed.
_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{source}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"{source}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(_FIELD_TYPES[key], value)
        except ValueError:
            raise ConfigurationError(f"{source}: line {lineno}: bad value "
                                     f"{value!r} for key {key!r}") from None
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _coerce(annotation: str, text: str) -> object:
    """A config value or trace cell as a value of the postponed ``annotation``."""
    if annotation.startswith("str"):
        return text
    if annotation == "int":
        return int(text)
    if annotation == "bool":
        return bool(int(text))
    if annotation == "float | None" and text.lower() in ("none", ""):
        return None
    return float(text)


# ---------------------------------------------------------------------------
# Problem / solver assembly
# ---------------------------------------------------------------------------

def build_problem(config: ExperimentConfig):
    if config.problem == "quartic":
        return QuarticSaddle()
    if config.data is not None:
        return load_dataset(config.data, fmt=config.format, loss=config.problem)
    return generate_synthetic(config.problem, config.n, config.d,
                              rng_seed=config.data_seed, skew=config.skew,
                              k_max=config.k_max_target, noise=config.noise)


def starting_point(config: ExperimentConfig, problem) -> Array:
    if config.x0_scale == 0.0:
        return np.zeros(problem.d)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0xFFFFFFFF, 105]))
    # A start that overflows is refused, non-finite, by the first check that reads it.
    with np.errstate(over="ignore"):
        return config.x0_scale * rng.standard_normal(problem.d)


def run_solver(config: ExperimentConfig, problem) -> SolveResult:
    loop = dict(tol=OptimalityTolerances(eps_g=config.eps_g, eps_H=config.eps_h),
                eta=config.eta, gamma=config.gamma, nu=config.nu,
                max_iters=config.max_iters, delta_total=config.delta)
    if config.solver == "tr":
        solver, run = TRConfig(**loop, delta0=config.radius0, alpha=config.alpha), run_tr
    else:
        l_estimate = config.l_estimate
        if l_estimate is None:
            l_estimate = problem.hessian_lipschitz_bound()
        solver, run = ARCConfig(**loop, sigma0=config.sigma0, zeta=config.zeta,
                                l_estimate=l_estimate, mode=config.arc_mode,
                                sigma_min=config.sigma_min), run_arc
    if config.hessian != "exact" and solver.per_iteration_delta() == 0.0:
        raise ConfigurationError(
            f"the per-iteration failure probability of the {solver.schedule} "
            f"schedule underflows to 0 at delta={config.delta!r}, "
            f"eps_g={config.eps_g!r}, eps_h={config.eps_h!r}")
    source = hessian_source(problem, config.hessian, config.eps_cap)
    return run(problem, source, solver, starting_point(config, problem),
               rng_seed=config.seed)


# The largest dimension whose Hessian is eigensolved densely.
DENSE_LIMIT = 500


def _dense_finite_sum_problem(config: ExperimentConfig, command: str) -> FiniteSumProblem:
    """The configured problem, if a finite sum small enough for dense eigensolves."""
    problem = build_problem(config)
    if not isinstance(problem, FiniteSumProblem):
        raise ConfigurationError(f"{command} needs a finite-sum problem")
    if problem.d > DENSE_LIMIT:
        raise ConfigurationError(f"d={problem.d} too large for the dense "
                                 f"eigensolves of {command} (limit {DENSE_LIMIT})")
    return problem


def lambda_min_dense(problem, x: Array) -> float:
    """Smallest eigenvalue of the exact Hessian at x, from a dense eigensolve."""
    return float(np.linalg.eigvalsh(problem.dense_hessian(x))[0])


# ---------------------------------------------------------------------------
# Trace emission
# ---------------------------------------------------------------------------

def format_trace(result: SolveResult, problem=None) -> str:
    """CSV rows for each iteration plus a '#'-prefixed summary footer."""
    footer = [("converged", result.converged), ("message", result.message),
              ("f_final", result.f_final), ("grad_norm_final", result.grad_norm_final),
              ("lambda_min_estimate_final", result.lambda_min_final),
              ("eps_final", result.eps_final), ("iterations", len(result.records)),
              ("accepted", result.n_accepted), ("rejected", result.n_rejected)]
    if problem is not None and result.x.shape[0] <= DENSE_LIMIT:
        footer.append(("lambda_min_dense_final", lambda_min_dense(problem, result.x)))
    return _render_trace(map(vars, result.records), footer)


def _render_trace(rows, footer) -> str:
    """The header, a line per row (``IterationRecord`` field -> value) and per
    footer pair: a bool as 1 or 0, a float by ``repr`` (exact), else ``str``."""
    def cell(value: object) -> str:
        if isinstance(value, bool):
            return "1" if value else "0"
        return repr(value) if isinstance(value, float) else str(value)

    lines = [",".join(TRACE_COLUMNS)]
    lines += [",".join(cell(row[field]) for _, field in TRACE_SCHEMA) for row in rows]
    lines += [f"# {key}: {cell(value)}" for key, value in footer]
    return "\n".join(lines) + "\n"


def read_trace(text: str) -> tuple[list[dict[str, object]], dict[str, str]]:
    """A trace's rows, dicts from ``IterationRecord`` field to a value of its
    annotation, and its footer, a dict from key to text, as they were written."""
    lines = text.splitlines()[1:]
    types = {f.name: f.type for f in dataclass_fields(IterationRecord)}
    rows = [{field: _coerce(types[field], cell)
             for (_, field), cell in zip(TRACE_SCHEMA, line.split(","), strict=True)}
            for line in lines if not line.startswith("# ")]
    footer = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    return rows, footer


def run_experiment(config: ExperimentConfig, out_path: str | Path | None = None) -> int:
    """Run the configured solver and write the trace file. Returns exit code.

    An aborted run writes its rows so far, with the reason in the footer and
    no dense-Hessian line, before the error propagates."""
    problem = build_problem(config)
    path = Path(out_path if out_path is not None else config.out)
    try:
        result = run_solver(config, problem)
    except ABORT_ERRORS as exc:
        partial = getattr(exc, "partial_result", None)
        if partial is not None:
            _write_trace(path, format_trace(partial))
        raise
    _write_trace(path, format_trace(result, problem=problem))
    print(f"wrote {path} ({len(result.records)} iterations, "
          f"converged={result.converged})")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _write_trace(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write trace {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Sampling-bound verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationRow:
    mode: str
    epsilon: float
    delta: float
    sample_size: int
    capped: bool
    failure_rate: float
    negative_control: bool = False

    @property
    def passed(self) -> bool:
        if self.negative_control:
            return self.failure_rate > self.delta
        return self.failure_rate <= self.delta


def verify_bounds(config: ExperimentConfig) -> tuple[list[VerificationRow], bool]:
    """Monte-Carlo check of the prescribed sample sizes on a dense grid.

    Positive rows must fail with rate <= delta. When the grid contains a
    genuinely tight point -- uncapped prescription at least 100x beyond n, so
    that a quartered sample operates clearly outside the guarantee even
    accounting for the concentration bound's conservative constant -- a
    quarter of the capped size is run as a negative control and must fail
    more often than delta. With only loose grid points no control is emitted:
    a quartered size can legitimately still concentrate there; nor with a
    zero Hessian at the point, where every sample is exact.

    The plan is built serially: sizes, ``capped`` flags, the control row and
    each row's seed, spawned in grid order. f'' is checked finite and the
    exact Hessian formed once, on the point's record, before the rows run
    concurrently through ``run_claimed``, largest first by draws x |S|. Each
    row draws from its own seed, so the rows equal those of a serial run.
    """
    problem = _dense_finite_sum_problem(config, "verify-sampling")
    x = starting_point(config, problem)
    ensure_finite(x, "starting point")
    eps_grid = _grid(config, "verify_eps")
    delta_grid = _grid(config, "verify_delta")
    plan: list[tuple[SampleScheme, bool, bool]] = []  # scheme, capped, control
    tightest: SampleScheme | None = None
    for mode in ("uniform_wor", "nonuniform"):
        for eps in eps_grid:
            for delta in delta_grid:
                uncapped = prescribed_size(problem, mode, eps, delta, x=x)
                scheme = SampleScheme(mode, eps, delta, min(uncapped, problem.n))
                if mode == "uniform_wor" and uncapped >= 100 * problem.n:
                    if tightest is None or eps < tightest.epsilon:
                        tightest = scheme
                plan.append((scheme, uncapped > problem.n, False))
    second = problem.second_derivatives(x)
    ensure_finite(second, "f'' at the verification point")
    if tightest is not None and np.any(second):
        control = replace(tightest, resolved_size=max(tightest.resolved_size // 4, 1))
        plan.append((control, False, True))
    seeds = np.random.SeedSequence([config.seed & 0xFFFFFFFF, 771]).spawn(len(plan))
    problem.dense_hessian(x)  # cached on x's record for every row

    def row_rate(scheme: SampleScheme, seed: np.random.SeedSequence):
        # Looked up at run time, so a replaced verify_concentration serves
        # every row.
        return lambda: verify_concentration(problem, x, scheme, config.verify_trials,
                                            rng_seed=np.random.default_rng(seed))

    def cost(k: int) -> int:
        scheme = plan[k][0]
        return (concentration_draws(problem, scheme, config.verify_trials)
                * scheme.resolved_size)

    rates = run_claimed([row_rate(scheme, seed) for (scheme, _, _), seed in zip(plan, seeds)],
                        order=sorted(range(len(plan)), key=cost, reverse=True))
    rows = [VerificationRow(mode=scheme.mode, epsilon=scheme.epsilon,
                            delta=scheme.delta, sample_size=scheme.resolved_size,
                            capped=capped, failure_rate=failure_rate,
                            negative_control=negative_control)
            for (scheme, capped, negative_control), failure_rate in zip(plan, rates)]
    return rows, all(row.passed for row in rows)


def format_verification(rows: Sequence[VerificationRow]) -> str:
    width = max(map(len, HESSIANS))
    header = (f"{'mode':<{width}} {'eps':>6} {'delta':>6} {'|S|':>7} {'capped':>6} "
              f"{'fail_rate':>9} {'expect':>8} {'ok':>3}")
    lines = [header, "-" * len(header)]
    for row in rows:
        expect = f">{row.delta:g}" if row.negative_control else f"<={row.delta:g}"
        lines.append(f"{row.mode:<{width}} {row.epsilon:>6g} {row.delta:>6g} "
                     f"{row.sample_size:>7d} {str(row.capped):>6} "
                     f"{row.failure_rate:>9.4f} {expect:>8} "
                     f"{'yes' if row.passed else 'NO':>3}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exact vs sampled comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRun:
    seed: int
    hessian: str
    converged: bool
    iterations: int
    f_final: float
    grad_norm_final: float
    lambda_min_dense: float
    eps_final: float
    hessian_cost: int

    def optimal(self, eps_g: float, eps_h: float) -> bool:
        return (self.grad_norm_final <= eps_g
                and self.lambda_min_dense >= -(self.eps_final + eps_h))


def compare_exact_vs_sampled(config: ExperimentConfig) -> tuple[list[ComparisonRun], str]:
    """Paired runs over ``trials`` seeds; reports terminal optimality and the
    per-iteration Hessian cost proxy (scalar-Hessian evaluations)."""
    problem = _dense_finite_sum_problem(config, "compare")
    if config.hessian == "exact":
        raise ConfigurationError("compare needs a sampled hessian mode to "
                                 "pair against the exact runs")
    runs: list[ComparisonRun] = []
    for trial in range(config.trials):
        seed = config.seed + trial
        for hessian_mode in ("exact", config.hessian):
            result = run_solver(replace(config, hessian=hessian_mode, seed=seed),
                                problem)
            cost = sum(r.sample_size for r in result.records)
            runs.append(ComparisonRun(
                seed=seed, hessian=hessian_mode, converged=result.converged,
                iterations=len(result.records), f_final=result.f_final,
                grad_norm_final=result.grad_norm_final,
                lambda_min_dense=lambda_min_dense(problem, result.x),
                eps_final=result.eps_final if np.isfinite(result.eps_final) else 0.0,
                hessian_cost=cost))
    report = _format_comparison(runs, config)
    return runs, report


def _format_comparison(runs: Sequence[ComparisonRun], config: ExperimentConfig) -> str:
    lines = [f"{'seed':>5} {'hessian':<12} {'conv':>4} {'iters':>5} "
             f"{'F_final':>13} {'|grad|':>10} {'lam_min':>10} {'cost':>10} {'opt':>4}"]
    lines.append("-" * len(lines[0]))
    for run in runs:
        lines.append(f"{run.seed:>5} {run.hessian:<12} {int(run.converged):>4} "
                     f"{run.iterations:>5} {run.f_final:>13.6e} "
                     f"{run.grad_norm_final:>10.3e} {run.lambda_min_dense:>10.3e} "
                     f"{run.hessian_cost:>10} "
                     f"{'yes' if run.optimal(config.eps_g, config.eps_h) else 'no':>4}")
    sampled = [r for r in runs if r.hessian != "exact"]
    exact = [r for r in runs if r.hessian == "exact"]
    if sampled:
        frac = sum(r.optimal(config.eps_g, config.eps_h) for r in sampled) / len(sampled)
        lines.append(f"# sampled runs meeting (eps_g, eps+eps_H)-optimality: "
                     f"{frac:.3f} (target >= {1.0 - config.delta:g})")
    if exact and sampled:
        cost_exact = sum(r.hessian_cost for r in exact)
        cost_sampled = sum(r.hessian_cost for r in sampled)
        if cost_exact:
            lines.append(f"# hessian cost ratio sampled/exact: "
                         f"{cost_sampled / cost_exact:.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="subnewton",
        description="Trust-region / cubic-regularization experiments with "
                    "sub-sampled Hessians")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one solver and write a trace CSV")
    solve.add_argument("--config", required=True)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--out", default=None)

    verify = sub.add_parser("verify-sampling",
                            help="Monte-Carlo check of the sampling bounds")
    verify.add_argument("--config", required=True)

    compare = sub.add_parser("compare",
                             help="paired exact-vs-sampled solver runs")
    compare.add_argument("--config", required=True)
    compare.add_argument("--trials", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "solve":
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            return run_experiment(config, out_path=args.out)
        if args.command == "verify-sampling":
            rows, all_ok = verify_bounds(config)
            print(format_verification(rows))
            return EXIT_OK if all_ok else EXIT_VERIFICATION_FAILURE
        if args.command == "compare":
            if args.trials is not None:
                config = replace(config, trials=args.trials)
            _, report = compare_exact_vs_sampled(config)
            print(report)
            return EXIT_OK
    except (ConfigurationError, DatasetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ABORT_ERRORS as exc:
        what = args.command if args.command == "verify-sampling" else "solver"
        print(f"{what} aborted: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
