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

from .core import (ABORT_ERRORS, Array, ConfigurationError, OptimalityTolerances,
                   SolveResult)
from .cubic_reg import ARCConfig, run_arc
from .problems import (LOSSES, DatasetError, FiniteSumProblem, QuarticSaddle,
                       generate_synthetic, load_dataset)
from .sampling import (HESSIANS, SampleScheme, hessian_source, prescribed_size,
                       resolve_scheme, verify_concentration)
from .trust_region import TRConfig, run_tr

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG_ERROR = 3
EXIT_VERIFICATION_FAILURE = 4

TRACE_COLUMNS = ("t", "F", "grad_norm", "lambda_min_est", "radius_or_sigma",
                 "rho", "accepted", "sample_size", "step_norm", "eps_t",
                 "lambda_source")

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
        values[key] = _coerce(key, value, source, lineno)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _coerce(key: str, value: str, source: str, lineno: int) -> object:
    annotation = _FIELD_TYPES[key]
    try:
        if annotation.startswith("str"):
            return value
        if annotation == "int":
            return int(value)
        if annotation == "float | None" and value.lower() in ("none", ""):
            return None
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"{source}: line {lineno}: bad value {value!r} for key {key!r}") from None


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
    lines = [",".join(TRACE_COLUMNS)]
    for r in result.records:
        lines.append(",".join((
            str(r.t), repr(r.f_value), repr(r.grad_norm),
            repr(r.lambda_min_estimate), repr(r.radius_or_sigma), repr(r.rho),
            "1" if r.accepted else "0", str(r.sample_size), repr(r.step_norm),
            repr(r.eps_t), r.lambda_source)))
    lines.append(f"# converged: {int(result.converged)}")
    lines.append(f"# message: {result.message}")
    lines.append(f"# f_final: {result.f_final!r}")
    lines.append(f"# grad_norm_final: {result.grad_norm_final!r}")
    lines.append(f"# lambda_min_estimate_final: {result.lambda_min_final!r}")
    lines.append(f"# eps_final: {result.eps_final!r}")
    lines.append(f"# iterations: {len(result.records)}")
    lines.append(f"# accepted: {result.n_accepted}")
    lines.append(f"# rejected: {result.n_rejected}")
    if problem is not None and result.x.shape[0] <= DENSE_LIMIT:
        lines.append(f"# lambda_min_dense_final: {lambda_min_dense(problem, result.x)!r}")
    eps_history = ",".join(repr(r.eps_t) for r in result.records)
    size_history = ",".join(str(r.sample_size) for r in result.records)
    lines.append(f"# eps_t_history: {eps_history}")
    lines.append(f"# sample_size_history: {size_history}")
    return "\n".join(lines) + "\n"


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
    a quartered size can legitimately still concentrate there.
    """
    problem = _dense_finite_sum_problem(config, "verify-sampling")
    x = starting_point(config, problem)
    eps_grid = _grid(config, "verify_eps")
    delta_grid = _grid(config, "verify_delta")
    trials = config.verify_trials
    rows: list[VerificationRow] = []
    seed_stream = np.random.SeedSequence([config.seed & 0xFFFFFFFF, 771])
    tightest: SampleScheme | None = None
    for mode in ("uniform_without_replacement", "nonuniform"):
        for eps in eps_grid:
            for delta in delta_grid:
                scheme = resolve_scheme(problem, mode, eps, delta, x=x)
                uncapped = prescribed_size(problem, mode, eps, delta, x=x)
                if (mode == "uniform_without_replacement"
                        and uncapped >= 100 * problem.n):
                    if tightest is None or eps < tightest.epsilon:
                        tightest = scheme
                rate = verify_concentration(problem, x, scheme, trials,
                                            rng_seed=np.random.default_rng(seed_stream.spawn(1)[0]))
                rows.append(VerificationRow(mode=mode, epsilon=eps, delta=delta,
                                            sample_size=scheme.resolved_size,
                                            capped=uncapped > problem.n,
                                            failure_rate=rate))
    if tightest is not None:
        control_size = max(tightest.resolved_size // 4, 1)
        control = SampleScheme(mode=tightest.mode, epsilon=tightest.epsilon,
                               delta=tightest.delta, resolved_size=control_size)
        rate = verify_concentration(problem, x, control, trials,
                                    rng_seed=np.random.default_rng(seed_stream.spawn(1)[0]))
        rows.append(VerificationRow(mode=tightest.mode, epsilon=tightest.epsilon,
                                    delta=tightest.delta, sample_size=control_size,
                                    capped=False, failure_rate=rate,
                                    negative_control=True))
    all_ok = all(row.passed for row in rows)
    return rows, all_ok


def format_verification(rows: Sequence[VerificationRow]) -> str:
    header = (f"{'mode':<30} {'eps':>6} {'delta':>6} {'|S|':>7} {'capped':>6} "
              f"{'fail_rate':>9} {'expect':>8} {'ok':>3}")
    lines = [header, "-" * len(header)]
    for row in rows:
        expect = f">{row.delta:g}" if row.negative_control else f"<={row.delta:g}"
        lines.append(f"{row.mode:<30} {row.epsilon:>6g} {row.delta:>6g} "
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
