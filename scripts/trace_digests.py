"""Print one ``name sha256`` line per small fixed job: solve traces of both
solvers under every Hessian mode, and one verify-sampling report.

Two checkouts give equal lines exactly when their outputs are byte-identical,
so a refactor is checked with one diff (pin BLAS to one thread: traces are
byte-identical only at a fixed BLAS thread count):

    export OPENBLAS_NUM_THREADS=1
    diff <(PYTHONPATH=old/src python old/scripts/trace_digests.py) \\
         <(PYTHONPATH=src python scripts/trace_digests.py)

Usage: python scripts/trace_digests.py
"""

import hashlib

from subnewton.harness import (ExperimentConfig, build_problem, format_trace,
                               format_verification, run_solver, verify_bounds)

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
SOLVES["tr_quartic"] = ExperimentConfig(problem="quartic", solver="tr",
                                        eps_g=1e-6, eps_h=1e-3)
SOLVES["arc_quartic"] = ExperimentConfig(problem="quartic", solver="arc",
                                         eps_g=1e-6, eps_h=1e-3)
VERIFY = ExperimentConfig(problem="biweight", n=2000, d=20, k_max_target=1.0,
                          data_seed=3, verify_eps="0.5,0.3", verify_trials=50)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    for name, config in SOLVES.items():
        problem = build_problem(config)
        result = run_solver(config, problem)
        print(name, digest(format_trace(result, problem=problem)), flush=True)
    rows, all_ok = verify_bounds(VERIFY)
    print("verify_sampling", digest(f"{format_verification(rows)}\n{all_ok}\n"))


if __name__ == "__main__":
    main()
