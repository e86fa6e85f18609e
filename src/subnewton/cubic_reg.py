"""Adaptive cubic-regularization driver with a fixed a-priori Hessian tolerance.

The accuracy the Hessian approximation must meet is computed from the
target tolerances, a Hessian-Lipschitz estimate and the norm bound of the
first operator, built at eps = 1/2, and stays fixed for the whole run;
rejected steps therefore always reuse the previous operator. The iteration
itself is ``trust_region.iterate``, shared with the trust-region driver;
``ARCConfig`` supplies its rules: the fixed tolerance, the cubic-model step
and the sigma update. The ``standard`` mode solves the model on the small
Cauchy/Eigen span, the ``optimal`` mode keeps enlarging a Krylov space until
the model-gradient inexactness test holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (Array, ConfigurationError, HessianOperator, Objective,
                   SolveResult)
from .subproblem import (CubicModel, SubproblemSolution, _sqrt_shift,
                         arc_progressive_solve, cauchy_point, eigen_point,
                         subspace_solve)
from .trust_region import HessianSource, LoopConfig, iterate


@dataclass(frozen=True)
class ARCConfig(LoopConfig):
    """Hyper-parameters and rules of the cubic-regularization driver.

    ``l_estimate`` enters the fixed Hessian-accuracy formula; supplying a
    verified upper bound on the path Lipschitz constant keeps the
    sigma <= max(sigma0, 2*gamma*L) certificate assertable. ``sigma_min``
    guards the regularizer against underflow on long success streaks.
    """

    sigma0: float = 1.0
    zeta: float = 0.25
    l_estimate: float = 1.0
    mode: str = "standard"
    sigma_min: float = 1e-12

    first_accuracy = 0.5

    def __post_init__(self) -> None:
        if not (self.sigma0 > 0 and math.isfinite(self.sigma0)):
            raise ConfigurationError(f"sigma0 must be positive, got {self.sigma0}")
        super().__post_init__()
        if self.mode not in ("standard", "optimal"):
            raise ConfigurationError(f"mode must be standard or optimal, got {self.mode!r}")
        if self.mode == "optimal" and not (0.0 < self.zeta < 0.5):
            raise ConfigurationError(
                f"optimal mode needs zeta in (0, 1/2), got {self.zeta}")
        if not (0.0 < self.l_estimate < math.inf):
            raise ConfigurationError(
                f"l_estimate must be positive and finite, got {self.l_estimate}")
        if not (0.0 <= self.sigma_min < math.inf):
            raise ConfigurationError(
                f"sigma_min must be nonnegative and finite, got {self.sigma_min}")

    @property
    def schedule(self) -> str:
        return f"arc_{self.mode}"

    def per_iteration_delta(self) -> float:
        """The total failure budget shrunk by the worst-case iteration count:
        delta_total * min(eps_g^2, eps_H^3), with eps_g^1.5 in optimal mode."""
        eg, eh = self.tol.eps_g, self.tol.eps_H
        eg_term = eg ** 2 if self.mode == "standard" else eg ** 1.5
        return self.delta_total * min(eg_term, eh ** 3)

    @property
    def initial(self) -> float:
        return self.sigma0

    def accuracy(self, k_h: float, sigma: float) -> float:
        return arc_epsilon(self, k_h)

    def step(self, grad: Array, grad_norm: float, hessian: HessianOperator,
             direction: Array | None, sigma: float) -> SubproblemSolution:
        model = CubicModel(grad=grad, hessian=hessian, sigma=sigma)
        seeds: list[Array] = [cauchy_point(model).step] if grad_norm > 0.0 else []
        seed = {}  # the Eigen seed's curvature and step length, for its certificate
        if direction is not None:
            # The eigen seed joins the basis whenever it exists (ties between
            # the seed points resolve toward it, escaping saddles); the
            # subspace solution dominates both seeds anyway.
            eigen = eigen_point(model, direction)
            seeds.append(eigen.step)
            seed = dict(nu_hat=eigen.certificates.nu_hat,
                        eigen_norm=eigen.certificates.eigen_norm)
        if self.mode == "optimal":
            return arc_progressive_solve(model, seeds, zeta=self.zeta, **seed)
        if grad_norm > 0.0:
            seeds.append(model.hg)
        return subspace_solve(model, seeds, **seed)

    def update(self, sigma: float, accepted: bool) -> float:
        return (max(sigma / self.gamma, self.sigma_min) if accepted
                else self.gamma * sigma)


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
    branch_grad = min(1.0 / 12.0, (1.0 - eta) / 6.0) * _sqrt_shift(
        k_h, 8.0 * config.l_estimate * config.tol.eps_g)
    branch_eig = min(1.0 / 6.0, (1.0 - eta) / 3.0) * config.nu * config.tol.eps_H
    eps = min(branch_grad, branch_eig)
    if config.mode == "optimal":
        eps = min(eps, config.zeta * config.tol.eps_g)
    return eps


def run_arc(oracle: Objective, hessian_source: HessianSource, config: ARCConfig,
            x0: Array, rng_seed: int = 0) -> SolveResult:
    """Iterate Algorithm-style sigma updates until optimality of the inexact
    model is certified, or max_iters is hit (flagged not-converged)."""
    return iterate(oracle, hessian_source, config, x0, rng_seed)
