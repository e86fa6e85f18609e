"""The benchmark's three workloads.

A *job* is one ``solve`` (solver run plus ``format_trace``) or one
``verify-sampling`` report. Each workload turns the run seed into its inputs:
job ``i`` uses the solver (or verification) seed ``JOB_SEED_STRIDE * seed + i``,
and the seed is also the synthetic data seed unless the workload pins its data
set. Solve workloads build the problem once in set-up; the verification
workload builds its small problem inside every job, as ``verify_bounds`` does.

The program is always reached through module attributes (``harness.run_solver``
and so on), never through names bound at import, so the traced run's wrappers
see every call. Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from subnewton import harness
from subnewton.harness import ExperimentConfig

JOB_SEED_STRIDE = 1000


@dataclass
class Job:
    """One finished job: its output text, the structured result behind it,
    and, once checked, the reason it failed (None when it passed)."""

    text: str
    result: object
    failure: str | None = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def parse_footer(text: str) -> dict[str, str]:
    """The ``# key: value`` summary lines of a solve trace."""
    footer = {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            footer[key] = value
    return footer


def check_solve(text: str, config: ExperimentConfig) -> str | None:
    """A solve passes when it converged with ||g|| <= eps_g and the dense
    Hessian's bottom eigenvalue is >= -(eps_final + eps_h)."""
    footer = parse_footer(text)
    if footer.get("converged") != "1":
        return f"not converged: {footer.get('message')}"
    grad_norm = float(footer["grad_norm_final"])
    if not grad_norm <= config.eps_g:
        return f"grad_norm_final {grad_norm!r} > eps_g {config.eps_g!r}"
    if "lambda_min_dense_final" not in footer:
        return "trace has no lambda_min_dense_final footer"
    lam = float(footer["lambda_min_dense_final"])
    floor = -(float(footer["eps_final"]) + config.eps_h)
    if not lam >= floor:
        return f"lambda_min_dense_final {lam!r} < {floor!r}"
    return None


class Workload:
    """Inputs made from the run seed; subclasses run and check the jobs."""

    def __init__(self, data_seed: int | None = None, **config):
        self.data_seed = data_seed
        self.config_fields = config
        self.seed: int | None = None
        self.config: ExperimentConfig | None = None
        self.problem = None

    @property
    def working_set_bytes(self) -> int:
        """8*n*d bytes of the data matrix, computed from the config."""
        return 8 * self.config_fields["n"] * self.config_fields["d"]

    def setup(self, seed: int) -> None:
        self.seed = seed
        data_seed = seed if self.data_seed is None else self.data_seed
        self.config = ExperimentConfig(data_seed=data_seed, **self.config_fields)

    def job_config(self, i: int) -> ExperimentConfig:
        return replace(self.config, seed=JOB_SEED_STRIDE * self.seed + i)


class SolveWorkload(Workload):
    """Repeated ``solve`` jobs on one problem built in set-up; job ``i`` runs
    ``arc_modes[i % len(arc_modes)]``."""

    def __init__(self, arc_modes: tuple[str, ...] = ("standard",), **config):
        super().__init__(**config)
        self.arc_modes = arc_modes

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.problem = harness.build_problem(self.config)

    def job(self, i: int) -> Job:
        config = replace(self.job_config(i),
                         arc_mode=self.arc_modes[i % len(self.arc_modes)])
        result = harness.run_solver(config, self.problem)
        return Job(harness.format_trace(result, problem=self.problem), result)

    def check(self, job: Job) -> Job:
        job.failure = check_solve(job.text, self.config)
        return job


class VerifyWorkload(Workload):
    """Repeated ``verify-sampling`` reports, one verification seed per job."""

    def job(self, i: int) -> Job:
        rows, all_ok = harness.verify_bounds(self.job_config(i))
        text = (harness.format_verification(rows)
                + f"\nall expectations met: {all_ok}\n")
        return Job(text, rows)

    def check(self, job: Job) -> Job:
        """Every row meets its expectation and a negative control was run."""
        rows = job.result
        failed = [row for row in rows if not row.passed]
        if failed:
            job.failure = "unmet expectations: " + "; ".join(
                f"{r.mode} eps={r.epsilon:g} |S|={r.sample_size} "
                f"rate={r.failure_rate:.4f}" for r in failed)
        elif not any(row.negative_control for row in rows):
            job.failure = "no negative control row"
        return job


WORKLOADS = {
    "tr_uniform_tall": lambda: SolveWorkload(
        problem="biweight", solver="tr", hessian="uniform_wor", n=100_000,
        d=100, k_max_target=1.0, x0_scale=0.5),
    "arc_full_wide": lambda: SolveWorkload(
        ("standard", "optimal"), problem="nls_logistic", solver="arc",
        hessian="uniform_wor", n=20_000, d=200, x0_scale=0.5),
    # The settings of scripts/sampling_check.py, its data set included: the
    # negative control's expectation (a quartered sample fails more often
    # than delta) depends on the data and does not hold on every data seed.
    "verify_mc": lambda: VerifyWorkload(
        data_seed=3, problem="biweight", n=2000, d=20, k_max_target=1.0,
        verify_eps="0.5,0.3,0.004", verify_delta="0.1", verify_trials=400),
}

# Jobs per round of the traced run: every distinct job shape at least once.
TRACE_JOBS = {"tr_uniform_tall": 4, "arc_full_wide": 2, "verify_mc": 2}
