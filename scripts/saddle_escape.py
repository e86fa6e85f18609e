"""Run both solvers from the strict saddle of F = x^4/4 - x^2/2 + y^2/2 and
print their escape traces.

Usage: python scripts/saddle_escape.py
"""

import numpy as np

from subnewton import (ARCConfig, OptimalityTolerances, QuarticSaddle, TRConfig,
                       hessian_source, run_arc, run_tr)


def show(name, result):
    print(f"--- {name} ---")
    for r in result.records:
        print(f"  t={r.t:2d} F={r.f_value:+.6f} |g|={r.grad_norm:.2e} "
              f"lam_min~{r.lambda_min_estimate:+.3f} "
              f"{'sigma' if name == 'arc' else 'radius'}={r.radius_or_sigma:.3f} "
              f"rho={r.rho:+.3f} {'accept' if r.accepted else 'reject'}")
    print(f"  -> converged={result.converged} F={result.f_final:+.6f} "
          f"x={np.round(result.x, 4)} |grad|={result.grad_norm_final:.2e}\n")


def main():
    problem = QuarticSaddle()
    tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
    x0 = np.zeros(2)
    source = hessian_source(problem, "exact")

    tr_result = run_tr(problem, source, TRConfig(tol=tol, max_iters=100), x0,
                       rng_seed=0)
    show("tr", tr_result)
    arc_result = run_arc(problem, source,
                         ARCConfig(tol=tol, max_iters=100, l_estimate=24.0),
                         x0, rng_seed=0)
    show("arc", arc_result)


if __name__ == "__main__":
    main()
