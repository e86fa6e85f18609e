"""Print one ``name sha256`` line per small fixed job: solve traces of both
solvers under every Hessian mode, and one verify-sampling report.

Two checkouts give equal lines exactly when their outputs are byte-identical,
so a refactor is checked with one diff (pin BLAS to one thread: traces are
byte-identical only at a fixed BLAS thread count):

    export OPENBLAS_NUM_THREADS=1
    diff <(PYTHONPATH=old/src python old/scripts/trace_digests.py) \\
         <(PYTHONPATH=src python scripts/trace_digests.py)

The CPU count changes no line either: ``arc_striped`` is the job whose row
passes span several blocks and so run on the stripe helpers, and a run
under ``taskset -c 0`` (one CPU, no helper) prints what an unpinned run does.

With ``--counts`` each solve job prints its decisions instead: iterations,
accepted steps, Eigen seeds (steps handed a negative-curvature direction)
and ``bound`` rows (iterations whose curvature floor made the probe
unnecessary), then its work: Hessian apply calls and the columns they
applied, counted by wrapping each operator's ``apply`` as the operator is
built. The script reads nothing newer than the records, the configs'
``step`` rule and ``HessianOperator``'s construction, so it runs against
older checkouts too, whose rows all read as probe rows; a change that must
keep every decision is checked with

    diff <(PYTHONPATH=old/src python scripts/trace_digests.py --counts | cut -d' ' -f1-4) \\
         <(PYTHONPATH=src python scripts/trace_digests.py --counts | cut -d' ' -f1-4)

and the same diff of the whole lines shows where the work changed.

Usage: python scripts/trace_digests.py [--counts]
"""

import argparse
import hashlib
from contextlib import contextmanager

import numpy as np

from subnewton.core import HessianOperator
from subnewton.cubic_reg import ARCConfig
from subnewton.harness import (ExperimentConfig, build_problem, format_trace,
                               format_verification, run_solver, verify_bounds)
from subnewton.trust_region import TRConfig

BASE = dict(problem="biweight", n=3000, d=8, k_max_target=1.0, data_seed=3, seed=5,
            x0_scale=1.0, max_iters=100)
SOLVERS = {"tr": dict(solver="tr"),
           "arc_standard": dict(solver="arc"),
           "arc_optimal": dict(solver="arc", arc_mode="optimal")}
HESSIANS = ("exact", "uniform", "uniform_wor", "nonuniform", "intrinsic")

SOLVES = {f"{name}_{hessian}": ExperimentConfig(**BASE, **solver, hessian=hessian)
          for name, solver in SOLVERS.items() for hessian in HESSIANS}
# A set nu, at d = 64, where the Grams take the SYRK path.
SOLVES["tr_nu_syrk"] = ExperimentConfig(
    problem="nls_logistic", n=3000, d=64, data_seed=4, seed=6, x0_scale=1.0,
    hessian="uniform", nu=0.9, max_iters=100)
# ARC at d = 64, where its Grams take the SYRK path.
SOLVES["arc_optimal_syrk"] = ExperimentConfig(
    problem="nls_logistic", n=3000, d=64, data_seed=4, seed=6, x0_scale=1.0,
    hessian="uniform", solver="arc", arc_mode="optimal", max_iters=100)
# A small zeta, so the progressive solve grows its Krylov space to 5 columns.
SOLVES["arc_optimal_krylov"] = ExperimentConfig(
    problem="nls_logistic", n=3000, d=20, data_seed=3, seed=5, x0_scale=1.0,
    hessian="uniform", solver="arc", arc_mode="optimal", zeta=1e-4, max_iters=100)
# ARC at d = 200, where n = 4,500 spans five 1,024-row blocks: the oracle,
# the row pass and the Gram run their stripes with helpers when the
# process may use two or more CPUs. Every other job fits in one block.
SOLVES["arc_striped"] = ExperimentConfig(
    problem="nls_logistic", n=4500, d=200, data_seed=4, seed=6, x0_scale=0.5,
    hessian="uniform_wor", solver="arc", max_iters=100)
SOLVES["tr_quartic"] = ExperimentConfig(problem="quartic", solver="tr",
                                        eps_g=1e-6, eps_h=1e-3)
SOLVES["arc_quartic"] = ExperimentConfig(problem="quartic", solver="arc",
                                         eps_g=1e-6, eps_h=1e-3)
# Far from the minimizer, where the probe hands several steps an Eigen seed.
EIGEN = dict(BASE, x0_scale=5.0, eps_h=1e-3, hessian="uniform")
SOLVES["tr_eigen"] = ExperimentConfig(**EIGEN, solver="tr")
SOLVES["arc_eigen"] = ExperimentConfig(**EIGEN, solver="arc")
VERIFY = ExperimentConfig(problem="biweight", n=2000, d=20, k_max_target=1.0,
                          data_seed=3, verify_eps="0.5,0.3", verify_trials=50)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@contextmanager
def eigen_seed_log():
    """A list that gets, per step taken, whether it had an Eigen seed."""
    log, originals = [], {cls: cls.step for cls in (TRConfig, ARCConfig)}

    def logged(step):
        # The direction is the second-to-last argument in every checkout,
        # with or without the older grad_norm argument.
        def wrapper(self, *args):
            log.append(args[-2] is not None)
            return step(self, *args)
        return wrapper

    try:
        for cls, step in originals.items():
            cls.step = logged(step)
        yield log
    finally:
        for cls, step in originals.items():
            cls.step = step


@contextmanager
def apply_log():
    """A list that gets the column count of every Hessian apply. Each
    operator's ``apply`` is wrapped as the operator is built; a
    ``replace`` copy of an operator shares its wrapped ``apply``, so an
    apply counts once."""
    log, post_init = [], HessianOperator.__post_init__

    def logged_post_init(self):
        post_init(self)
        apply = self.apply
        if getattr(apply, "logged", False):
            return

        def logged(v):
            log.append(1 if np.ndim(v) == 1 else np.shape(v)[1])
            return apply(v)

        logged.logged = True
        object.__setattr__(self, "apply", logged)

    try:
        HessianOperator.__post_init__ = logged_post_init
        yield log
    finally:
        HessianOperator.__post_init__ = post_init


def decisions(config: ExperimentConfig) -> str:
    with eigen_seed_log() as seeds, apply_log() as applies:
        result = run_solver(config, build_problem(config))
    bound = sum(getattr(r, "lambda_source", "probe") == "bound"
                for r in result.records)
    return (f"iterations={len(result.records)} accepted={result.n_accepted} "
            f"eigen_seeds={sum(seeds)} bound_rows={bound} "
            f"applies={len(applies)} columns={sum(applies)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--counts", action="store_true",
                        help="print each solve job's decisions, not digests")
    args = parser.parse_args(argv)
    for name, config in SOLVES.items():
        if args.counts:
            print(name, decisions(config), flush=True)
            continue
        problem = build_problem(config)
        result = run_solver(config, problem)
        print(name, digest(format_trace(result, problem=problem)), flush=True)
    if not args.counts:
        rows, all_ok = verify_bounds(VERIFY)
        print("verify_sampling", digest(f"{format_verification(rows)}\n{all_ok}\n"))


if __name__ == "__main__":
    main()
