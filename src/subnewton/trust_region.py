"""Trust-region driver, and the iteration loop it shares with the
cubic-regularization driver.

``iterate`` runs the skeleton of the paper's Algorithms 1 and 2: evaluate,
build or reuse an inexact Hessian, probe for negative curvature, test
(eps_g, eps_H)-optimality, solve the sub-problem, and accept or reject the
step. It holds the only optimality test. The trust-region driver plugs in the
adaptive tolerance eps_t = max(eps0, Delta_t), the ball-constrained model
solved on the span of g, Hg and the Eigen seed, and the multiplicative radius
update. On rejected steps the previous operator is reused whenever its
recorded accuracy still meets the shrunken tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .core import (Array, CertificateError, ConfigurationError, HessianOperator,
                   IterationRecord, NonFiniteError, Objective,
                   OptimalityTolerances, SolveResult, acceptance_ratio,
                   ensure_finite, iteration_rng)
from .curvature import default_nu, probe_extreme
from .sampling import per_iteration_delta
from .subproblem import (SubproblemSolution, TRModel, tr_eigen_point,
                         tr_subspace_solve)

HessianSource = Callable[[Array, float, float, np.random.Generator], HessianOperator]

_HESSIAN_STREAM = 1

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TRConfig:
    """Hyper-parameters of the trust-region driver.

    ``delta0`` is the initial radius. ``nu=None`` resolves the curvature
    quality from the first operator's norm bound. ``delta_total`` is the
    total failure-probability budget split across iterations for the
    sub-sampling. ``strict`` additionally enforces the theory-mode coupling
    eps_H <= sqrt(eps_g).
    """

    tol: OptimalityTolerances
    delta0: float = 1.0
    eta: float = 0.2
    gamma: float = 2.0
    alpha: float = 0.5
    nu: float | None = None
    max_iters: int = 200
    delta_total: float = 0.1
    strict: bool = False

    def __post_init__(self) -> None:
        if not (self.delta0 > 0 and math.isfinite(self.delta0)):
            raise ConfigurationError(f"delta0 must be positive, got {self.delta0}")
        if not (0.0 < self.eta < 1.0):
            raise ConfigurationError(f"eta must lie in (0, 1), got {self.eta}")
        if self.gamma <= 1.0:
            raise ConfigurationError(f"gamma must exceed 1, got {self.gamma}")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.nu is not None and not (0.0 < self.nu < 1.0):
            raise ConfigurationError(f"nu must lie in (0, 1), got {self.nu}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.strict:
            self.tol.require_tr_strict()


def tr_tolerance(config: TRConfig, delta_t: float) -> float:
    """Hessian accuracy allowed at radius delta_t: max(alpha(1-eta)nu*eps_H, delta_t)."""
    if config.nu is None:
        raise ConfigurationError("tr_tolerance needs a resolved nu")
    if delta_t <= 0:
        raise ConfigurationError("delta_t must be positive")
    eps0 = config.alpha * (1.0 - config.eta) * config.nu * config.tol.eps_H
    return max(eps0, delta_t)


def exact_hessian_source(problem) -> HessianSource:
    """Adapter: ignore the accuracy request and hand out the exact operator."""

    def source(x: Array, eps: float, delta: float,
               rng: np.random.Generator) -> HessianOperator:
        return problem.exact_hessian_operator(x)

    return source


def run_tr(oracle: Objective, hessian_source: HessianSource, config: TRConfig,
           x0: Array, rng_seed: int = 0) -> SolveResult:
    """Iterate until (eps_g, eps_H)-optimality of the inexact model is certified,
    or max_iters is hit (flagged not-converged)."""
    bootstrap_eps = (_provisional_tolerance(config, config.delta0)
                     if config.nu is None else None)
    return iterate(oracle, hessian_source, config, x0, rng_seed,
                   param=config.delta0, tag="tr_optimal",
                   bootstrap_eps=bootstrap_eps,
                   tolerance=lambda cfg, bootstrap, delta: tr_tolerance(cfg, delta),
                   step=_tr_step,
                   update=lambda delta, accepted: (delta * config.gamma if accepted
                                                   else delta / config.gamma))


def _tr_step(config: TRConfig, grad: Array, grad_norm: float,
             hessian: HessianOperator, direction: Array | None,
             delta: float) -> SubproblemSolution:
    model = TRModel(grad=grad, hessian=hessian, radius=delta)
    seeds: list[Array] = []
    nu_hat = eigen_norm = None
    if grad_norm > 0.0:
        seeds.extend([grad, hessian.apply(grad)])
    if direction is not None:
        eigen = tr_eigen_point(model, direction)
        seeds.append(direction)
        nu_hat = eigen.certificates.nu_hat
        eigen_norm = eigen.certificates.eigen_norm
    return tr_subspace_solve(model, seeds, nu_hat=nu_hat, eigen_norm=eigen_norm)


def _provisional_tolerance(config: TRConfig, delta: float) -> float:
    # nu <= 1, so this upper-bounds the resolved tolerance; used only for the
    # very first build when nu is still unknown.
    eps0 = config.alpha * (1.0 - config.eta) * config.tol.eps_H
    return max(eps0, delta)


def iterate(oracle: Objective, hessian_source: HessianSource, config: Any,
            x0: Array, rng_seed: int, *, param: float, tag: str,
            bootstrap_eps: float | None,
            tolerance: Callable[[Any, HessianOperator | None, float], float],
            step: Callable[..., SubproblemSolution],
            update: Callable[[float, bool], float]) -> SolveResult:
    """The loop shared by the TR and ARC drivers.

    ``config`` supplies tol, eta, nu, max_iters and delta_total (which only
    sizes the Hessian samples); ``param`` is the initial radius or sigma and
    ``tag`` the failure-probability schedule. The driver-specific hooks:

    - ``bootstrap_eps``: accuracy of a build right after the first evaluation
      whose norm bound resolves a missing nu (None: no such build);
    - ``tolerance(config, bootstrap, param)``: the accuracy an operator must
      meet; one is rebuilt when there is none or its accuracy exceeds this;
    - ``step(config, grad, grad_norm, hessian, direction, param)``: the
      sub-problem solution; ``direction`` is the probe's or None;
    - ``update(param, accepted)``: the next radius or sigma.

    A ``NonFiniteError``, ``CertificateError`` or ``OverflowError`` raised
    inside the loop propagates with the rows done so far attached as its
    ``partial_result``, a not-converged ``SolveResult``.
    """
    x = np.asarray(x0, dtype=float).copy()
    ensure_finite(x, "starting point")
    tol = config.tol
    delta_prob = per_iteration_delta(config.delta_total, tol, tag)
    records: list[IterationRecord] = []
    hessian: HessianOperator | None = None
    bootstrap: HessianOperator | None = None
    converged = False
    message = "max_iters exhausted"
    f = grad_norm = lam_est = eps_in_force = float("nan")

    try:
        for t in range(config.max_iters):
            f, grad = oracle.value_grad(x)
            ensure_finite(f, f"objective value at iteration {t}")
            ensure_finite(grad, f"gradient at iteration {t}")
            grad_norm = float(np.linalg.norm(grad))

            if t == 0 and bootstrap_eps is not None:
                bootstrap = hessian = hessian_source(
                    x, bootstrap_eps, delta_prob,
                    iteration_rng(rng_seed, _HESSIAN_STREAM, 0))
                if config.nu is None:
                    config = replace(config,
                                     nu=default_nu(bootstrap.norm_bound, tol.eps_H))

            eps_t = tolerance(config, bootstrap, param)
            if hessian is None or hessian.accuracy > eps_t:
                hessian = hessian_source(x, eps_t, delta_prob,
                                         iteration_rng(rng_seed, _HESSIAN_STREAM, t))
            eps_in_force = hessian.accuracy

            probe = probe_extreme(hessian)
            lam_est = probe.rayleigh
            direction_found = probe.rayleigh <= -config.nu * tol.eps_H

            # The optimality test: ||g|| <= eps_g (boundary inclusive), and an
            # exact probe that found no sufficient negative curvature.
            if grad_norm <= tol.eps_g and not direction_found:
                converged = True
                message = "optimality certified"
                break

            solution = step(config, grad, grad_norm, hessian,
                            probe.direction if direction_found else None, param)
            f_trial, _ = oracle.value_grad(x + solution.step)
            ensure_finite(f_trial, f"trial objective value at iteration {t}")
            rho = acceptance_ratio(f, f_trial, -solution.model_value)
            accepted = rho >= config.eta

            records.append(IterationRecord(
                t=t, f_value=f, grad_norm=grad_norm, lambda_min_estimate=lam_est,
                radius_or_sigma=param, rho=rho, accepted=accepted,
                sample_size=hessian.sample_size,
                step_norm=float(np.linalg.norm(solution.step)), eps_t=eps_in_force))
            logger.debug("%s: %s", tag, records[-1])

            if accepted:
                x = x + solution.step
                hessian = None  # operator belongs to the previous iterate
            param = update(param, accepted)
    except (NonFiniteError, CertificateError, OverflowError) as exc:
        # The rows done so far, for a trace of the aborted run.
        exc.partial_result = SolveResult(
            x=x, records=tuple(records), converged=False, f_final=f,
            grad_norm_final=grad_norm, lambda_min_final=lam_est,
            eps_final=eps_in_force, message=f"aborted: {exc}")
        raise

    if not converged:
        # The last accepted step may have moved x after its stats were taken.
        f, grad = oracle.value_grad(x)
        grad_norm = float(np.linalg.norm(grad))

    return SolveResult(x=x, records=tuple(records), converged=converged,
                       f_final=f, grad_norm_final=grad_norm,
                       lambda_min_final=lam_est, eps_final=eps_in_force,
                       message=message)
