"""Trust-region driver, and the iteration loop it shares with the
cubic-regularization driver.

``iterate`` runs the skeleton of the paper's Algorithms 1 and 2: evaluate,
build or reuse an inexact Hessian, probe for negative curvature unless the
operator's ``lambda_floor`` already rules it out, test
(eps_g, eps_H)-optimality, solve the sub-problem, and accept or reject the
step. It holds the only optimality test; the rules in which the algorithms
differ are their configs'. ``TRConfig``'s are the adaptive tolerance
eps_t = max(eps0, Delta_t), the step of ``subproblem.model_step`` on the
ball-constrained model (the exact solve on the span of the Cauchy point, the
Eigen point and Hg), and the multiplicative radius update. On rejected
steps the previous operator is reused whenever its recorded accuracy still
meets the shrunken tolerance.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ABORT_ERRORS, Array, ConfigurationError, HessianOperator,
                   HessianSource, IterationRecord, Objective,
                   OptimalityTolerances, SolveResult, acceptance_ratio,
                   ensure_finite, iteration_rng)
from .curvature import default_nu, probe_extreme
from .subproblem import SubproblemSolution, TRModel, model_step

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class LoopConfig:
    """The fields ``iterate`` reads, shared by the TR and ARC configs.

    ``nu=None`` resolves the curvature quality from the first operator's norm
    bound. ``delta_total`` is the total failure-probability budget split
    across iterations for the sub-sampling.

    ``TRConfig`` and ``ARCConfig`` add the rules ``iterate`` calls: the
    ``per_iteration_delta()`` failure budget, labelled by ``schedule``, the
    ``initial`` radius or sigma (param), the t = 0 build's
    ``first_accuracy``, ``accuracy(k_h, param)`` with k_h that build's norm
    bound, ``step(grad, hessian, direction, param)`` and
    ``update(param, accepted)``.
    """

    tol: OptimalityTolerances
    eta: float = 0.2
    gamma: float = 2.0
    nu: float | None = None
    max_iters: int = 200
    delta_total: float = 0.1

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < 1.0):
            raise ConfigurationError(f"eta must lie in (0, 1), got {self.eta}")
        if not (1.0 < self.gamma < math.inf):
            raise ConfigurationError(f"gamma must be finite and exceed 1, got {self.gamma}")
        if self.nu is not None and not (0.0 < self.nu < 1.0):
            raise ConfigurationError(f"nu must lie in (0, 1), got {self.nu}")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if not (0.0 < self.delta_total < 1.0):
            raise ConfigurationError(
                f"delta_total must lie in (0, 1), got {self.delta_total}")


@dataclass(frozen=True)
class TRConfig(LoopConfig):
    """Hyper-parameters and rules of the trust-region driver.

    ``delta0`` is the initial radius. ``strict`` additionally enforces the
    theory-mode coupling eps_H <= sqrt(eps_g).
    """

    delta0: float = 1.0
    alpha: float = 0.5
    strict: bool = False

    schedule = "tr_optimal"

    def __post_init__(self) -> None:
        if not (self.delta0 > 0 and math.isfinite(self.delta0)):
            raise ConfigurationError(f"delta0 must be positive, got {self.delta0}")
        super().__post_init__()
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.strict and self.tol.eps_H > np.sqrt(self.tol.eps_g) * (1.0 + 1e-12):
            raise ConfigurationError(f"strict mode needs eps_H <= sqrt(eps_g); got eps_H="
                                     f"{self.tol.eps_H}, sqrt(eps_g)={np.sqrt(self.tol.eps_g)}")

    def per_iteration_delta(self) -> float:
        """The total failure budget shrunk by the worst-case iteration count:
        delta_total * min(eps_g^2 * eps_H, eps_H^3)."""
        eg, eh = self.tol.eps_g, self.tol.eps_H
        return self.delta_total * min(eg ** 2 * eh, eh ** 3)

    @property
    def initial(self) -> float:
        return self.delta0

    @property
    def first_accuracy(self) -> float:
        """The t = 0 accuracy, at nu = 1 when nu is unset: it bounds every
        resolved nu's."""
        return self._accuracy(1.0 if self.nu is None else self.nu, self.delta0)

    def accuracy(self, k_h: float, delta: float) -> float:
        """Hessian accuracy allowed at radius delta: max(alpha(1-eta)nu*eps_H, delta)."""
        if self.nu is None:
            raise ConfigurationError("the TR accuracy needs a resolved nu")
        if delta <= 0:
            raise ConfigurationError("delta_t must be positive")
        return self._accuracy(self.nu, delta)

    def _accuracy(self, nu: float, delta: float) -> float:
        return max(self.alpha * (1.0 - self.eta) * nu * self.tol.eps_H, delta)

    def step(self, grad: Array, hessian: HessianOperator, direction: Array | None,
             delta: float) -> SubproblemSolution:
        return model_step(TRModel(grad=grad, hessian=hessian, radius=delta), direction)

    def update(self, delta: float, accepted: bool) -> float:
        return delta * self.gamma if accepted else delta / self.gamma


def run_tr(oracle: Objective, hessian_source: HessianSource, config: TRConfig,
           x0: Array, rng_seed: int = 0) -> SolveResult:
    """Iterate until (eps_g, eps_H)-optimality of the inexact model is certified,
    or max_iters is hit (flagged not-converged)."""
    return iterate(oracle, hessian_source, config, x0, rng_seed)


def iterate(oracle: Objective, hessian_source: HessianSource, config: LoopConfig,
            x0: Array, rng_seed: int) -> SolveResult:
    """The loop shared by the TR and ARC drivers, under ``config``'s rules.

    One of ``core.ABORT_ERRORS`` raised inside the loop propagates with the
    rows done so far attached as its ``partial_result``, a not-converged
    ``SolveResult``.
    """
    x = np.asarray(x0, dtype=float).copy()
    ensure_finite(x, "starting point")
    tol = config.tol
    delta_prob = config.per_iteration_delta()
    param = config.initial
    records: list[IterationRecord] = []
    converged = False
    message = "max_iters exhausted"
    f = grad_norm = lam_est = eps_in_force = float("nan")

    try:
        for t in range(config.max_iters):
            f, grad = oracle.value_grad(x)
            ensure_finite(f, f"objective value at iteration {t}")
            ensure_finite(grad, f"gradient at iteration {t}")
            grad_norm = float(np.linalg.norm(grad))

            if t == 0:  # k_h resolves a missing nu and ARC's fixed accuracy
                hessian = hessian_source(x, config.first_accuracy, delta_prob,
                                         iteration_rng(rng_seed, 0))
                k_h = hessian.norm_bound
                if config.nu is None:
                    config = replace(config, nu=default_nu(k_h, tol.eps_H))

            eps_t = config.accuracy(k_h, param)
            if hessian is None or hessian.accuracy > eps_t:
                hessian = hessian_source(x, eps_t, delta_prob, iteration_rng(rng_seed, t))
            eps_in_force = hessian.accuracy

            # A floor above the threshold certifies what the probe would
            # find, no sufficient negative curvature, without forming H.
            threshold = -config.nu * tol.eps_H
            direction = None
            if hessian.lambda_floor > threshold:
                lam_est, lam_source = hessian.lambda_floor, "bound"
            else:
                probe = probe_extreme(hessian)
                lam_est, lam_source = probe.rayleigh, "probe"
                if probe.rayleigh <= threshold:
                    direction = probe.direction

            # The optimality test: ||g|| <= eps_g (boundary inclusive), and an
            # exact probe or a floor that found no sufficient negative curvature.
            if grad_norm <= tol.eps_g and direction is None:
                converged = True
                message = "optimality certified"
                break

            solution = config.step(grad, hessian, direction, param)
            f_trial, _ = oracle.value_grad(x + solution.step)
            ensure_finite(f_trial, f"trial objective value at iteration {t}")
            rho = acceptance_ratio(f, f_trial, -solution.model_value)
            accepted = rho >= config.eta

            records.append(IterationRecord(
                t=t, f_value=f, grad_norm=grad_norm, lambda_min_estimate=lam_est,
                radius_or_sigma=param, rho=rho, accepted=accepted,
                sample_size=hessian.sample_size,
                step_norm=float(np.linalg.norm(solution.step)), eps_t=eps_in_force,
                lambda_source=lam_source, model_decrease=-solution.model_value))
            logger.debug("%s: %s", config.schedule, records[-1])

            if accepted:
                x = x + solution.step
                hessian = None  # operator belongs to the previous iterate
            param = config.update(param, accepted)
    except ABORT_ERRORS as exc:
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
