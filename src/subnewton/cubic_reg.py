"""Adaptive cubic-regularization driver with a fixed a-priori Hessian tolerance.

The accuracy the Hessian approximation must meet is computed from the
target tolerances, a Hessian-Lipschitz estimate and the norm bound of a
bootstrap operator built at eps = 1/2, and stays fixed for the whole run;
rejected steps therefore always reuse the previous operator. The iteration
itself is ``trust_region.iterate``, shared with the trust-region driver; this
module supplies the cubic model, the fixed tolerance and the sigma update.
The ``standard`` mode solves the model on the small Cauchy/Eigen span, the
``optimal`` mode keeps enlarging a Krylov space until the model-gradient
inexactness test holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Array, ConfigurationError, HessianOperator, Objective,
                   OptimalityTolerances, SolveResult)
from .subproblem import (CubicModel, SubproblemSolution, arc_cauchy_point,
                         arc_eigen_point, arc_progressive_solve,
                         arc_subspace_solve)
from .trust_region import HessianSource, iterate


@dataclass(frozen=True)
class ARCConfig:
    """Hyper-parameters of the cubic-regularization driver.

    ``l_estimate`` enters the fixed Hessian-accuracy formula; supplying a
    verified upper bound on the path Lipschitz constant keeps the
    sigma <= max(sigma0, 2*gamma*L) certificate assertable. ``sigma_min``
    guards the regularizer against underflow on long success streaks.
    """

    tol: OptimalityTolerances
    sigma0: float = 1.0
    eta: float = 0.2
    gamma: float = 2.0
    nu: float | None = None
    zeta: float = 0.25
    l_estimate: float = 1.0
    mode: str = "standard"
    max_iters: int = 200
    delta_total: float = 0.1
    sigma_min: float = 1e-12

    def __post_init__(self) -> None:
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0)):
            raise ConfigurationError(f"sigma0 must be positive, got {self.sigma0}")
        if not (0.0 < self.eta < 1.0):
            raise ConfigurationError(f"eta must lie in (0, 1), got {self.eta}")
        if self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must exceed 1, got {self.gamma}")
        if self.nu is not None and not (0.0 < self.nu < 1.0):
            raise ConfigurationError(f"nu must lie in (0, 1), got {self.nu}")
        if self.mode not in ("standard", "optimal"):
            raise ConfigurationError(f"mode must be standard or optimal, got {self.mode!r}")
        if self.mode == "optimal" and not (0.0 < self.zeta < 0.5):
            raise ConfigurationError(
                f"optimal mode needs zeta in (0, 1/2), got {self.zeta}")
        if self.l_estimate <= 0:
            raise ConfigurationError("l_estimate must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.sigma_min < 0:
            raise ConfigurationError("sigma_min must be nonnegative")


def arc_epsilon(config: ARCConfig, k_h: float) -> float:
    """Fixed Hessian accuracy for the whole run.

    eps = min( min(1/12, (1-eta)/6) * (sqrt(K^2 + 8 L eps_g) - K),
               min(1/6,  (1-eta)/3) * nu * eps_H )
    further reduced to zeta*eps_g in optimal mode.
    """
    if config.nu is None:
        raise ConfigurationError("arc_epsilon needs a resolved nu")
    if k_h < 0:
        raise ConfigurationError("k_h must be nonnegative")
    eta = config.eta
    surd = 8.0 * config.l_estimate * config.tol.eps_g
    branch_grad = min(1.0 / 12.0, (1.0 - eta) / 6.0) * (
        surd / (math.sqrt(k_h * k_h + surd) + k_h))
    branch_eig = min(1.0 / 6.0, (1.0 - eta) / 3.0) * config.nu * config.tol.eps_H
    eps = min(branch_grad, branch_eig)
    if config.mode == "optimal":
        eps = min(eps, config.zeta * config.tol.eps_g)
    return eps


def run_arc(oracle: Objective, hessian_source: HessianSource, config: ARCConfig,
            x0: Array, rng_seed: int = 0) -> SolveResult:
    """Iterate Algorithm-style sigma updates until optimality of the inexact
    model is certified, or max_iters is hit (flagged not-converged)."""
    mode_tag = "arc_optimal" if config.mode == "optimal" else "arc_standard"
    # The fixed tolerance comes from the bootstrap operator's norm bound.
    return iterate(oracle, hessian_source, config, x0, rng_seed,
                   param=config.sigma0, tag=mode_tag, bootstrap_eps=0.5,
                   tolerance=lambda cfg, bootstrap, sigma: arc_epsilon(
                       cfg, bootstrap.norm_bound),
                   step=_arc_step,
                   update=lambda sigma, accepted: (
                       max(sigma / config.gamma, config.sigma_min) if accepted
                       else config.gamma * sigma))


def _arc_step(config: ARCConfig, grad: Array, grad_norm: float,
              hessian: HessianOperator, direction: Array | None,
              sigma: float) -> SubproblemSolution:
    model = CubicModel(grad=grad, hessian=hessian, sigma=sigma)
    seeds: list[Array] = []
    nu_hat = eigen_norm = None
    if grad_norm > 0.0:
        seeds.append(arc_cauchy_point(model).step)
    if direction is not None:
        # The eigen seed joins the basis whenever it exists (ties between
        # the seed points resolve toward it, escaping saddles); the
        # subspace solution dominates both seeds anyway.
        eigen = arc_eigen_point(model, direction)
        seeds.append(eigen.step)
        nu_hat = eigen.certificates.nu_hat
        eigen_norm = eigen.certificates.eigen_norm
    if config.mode == "optimal":
        return arc_progressive_solve(model, seeds, zeta=config.zeta,
                                     nu_hat=nu_hat, eigen_norm=eigen_norm)
    if grad_norm > 0.0:
        seeds.append(hessian.apply(grad))
    return arc_subspace_solve(model, seeds, nu_hat=nu_hat, eigen_norm=eigen_norm)
