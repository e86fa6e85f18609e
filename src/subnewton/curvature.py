"""Approximate bottom eigenpairs: the Lanczos curvature probe.

The search runs Lanczos with full reorthogonalization on the shifted
positive-semidefinite operator K_H*I - H, whose top eigenpair corresponds to
the bottom of H. Desk-scale dimensions make full reorthogonalization cheap
and avoid ghost eigenvalues. The probe runs up to d steps, where the
factorization is exact, so the paper's log(d/delta)*sqrt(K_H/kappa) matvec
budget never binds and is not computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import Array, ConfigurationError, HessianOperator

# Ritz pair counts as converged once ||Hu - theta*u|| <= RESIDUAL_RTOL * K_H.
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class CurvatureResult:
    """A unit direction with its Rayleigh quotient <u, Hu> on the original H."""

    direction: Array
    rayleigh: float
    iterations_used: int
    converged: bool


def probe_extreme(hessian: HessianOperator,
                  rng_seed: int | np.random.Generator = 0,
                  max_matvecs: int | None = None) -> CurvatureResult:
    """Estimate the bottom eigenpair of H through the shifted operator.

    Starts from a normalized Gaussian vector and iterates until the top Ritz
    pair of the shifted tridiagonal has residual <= 1e-8 * K_H, the Krylov
    space becomes invariant, or ``max_matvecs`` steps are spent
    (converged=False). Without a cap it runs up to d steps, where full
    reorthogonalization makes the factorization exact, so the probe always
    converges. The driver loop gates on ``result.rayleigh <= -nu * eps_H``
    itself, so the trace records the estimate even when no usable direction
    exists.
    """
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(rng_seed))
    d = hessian.dim
    shift = hessian.norm_bound
    steps = d if max_matvecs is None else min(max_matvecs, d)

    def shifted(v: Array) -> Array:
        return shift * v - hessian.apply(v)

    basis = np.zeros((d, steps))
    alphas = np.zeros(steps)
    betas = np.zeros(max(steps - 1, 0))

    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    residual_tol = RESIDUAL_RTOL * max(shift, 1e-30)
    converged = False
    k = 0
    ritz_vec = None

    for k in range(steps):
        basis[:, k] = q
        w = shifted(q)
        alphas[k] = float(q @ w)
        w -= alphas[k] * q
        if k > 0:
            w -= betas[k - 1] * basis[:, k - 1]
        # Full reorthogonalization against everything seen so far.
        w -= basis[:, :k + 1] @ (basis[:, :k + 1].T @ w)

        theta, y = _top_ritz(alphas[:k + 1], betas[:k])
        beta_next = float(np.linalg.norm(w))
        residual = beta_next * abs(y[-1])
        ritz_vec = y
        if residual <= residual_tol or beta_next <= 1e-14 * max(shift, 1.0):
            converged = True
            break
        if k + 1 >= steps:
            # Full space reached: the tridiagonal factorization is exact.
            converged = k + 1 >= d
            break
        betas[k] = beta_next
        q = w / beta_next

    u = basis[:, :k + 1] @ ritz_vec
    u /= np.linalg.norm(u)
    rayleigh = hessian.quad(u)
    return CurvatureResult(direction=u, rayleigh=rayleigh,
                           iterations_used=k + 1, converged=converged)


def _top_ritz(alphas: Array, betas: Array) -> tuple[float, Array]:
    k = alphas.shape[0]
    if k == 1:
        return float(alphas[0]), np.ones(1)
    vals, vecs = eigh_tridiagonal(alphas, betas, select="i",
                                  select_range=(k - 1, k - 1))
    return float(vals[0]), vecs[:, 0]


def min_valid_nu(norm_bound: float, eps_H: float) -> float:
    """2K_H/(2K_H + eps_H) with K_H = max(norm_bound, 0): a value in [0, 1)
    that rises to 1 as K_H/eps_H grows.

    ``default_nu`` floors it at 1/2 to get the nu a driver resolves from its
    bootstrap operator's norm bound when the config sets none. nu scales the
    negative-curvature threshold -nu*eps_H, TR's accuracy floor
    alpha*(1-eta)*nu*eps_H and the Eigen branch of ARC's fixed accuracy. The
    probe is exact, so any nu < 1 still certifies lambda_min(H) > -eps_H at
    termination; a nu near 1 makes the threshold and both accuracies as
    large as that allows, and this formula keeps the default every trace has
    been made with.
    """
    if eps_H <= 0:
        raise ConfigurationError("eps_H must be positive")
    k = max(norm_bound, 0.0)
    return 2.0 * k / (2.0 * k + eps_H)


def default_nu(norm_bound: float, eps_H: float) -> float:
    return max(min_valid_nu(norm_bound, eps_H), 0.5)
