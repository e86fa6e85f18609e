"""Bottom eigenpairs: the curvature probe, and the curvature quality nu.

Algorithms 1 and 2 need a nu-approximate bottom eigenvector of the inexact
Hessian H; the probe returns the exact one (the nu = 1 case) from one subset
eigensolve of H's d x d matrix, which every operator the drivers build has
already formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy.linalg import eigh

from .core import Array, ConfigurationError, HessianOperator, densify


@dataclass(frozen=True)
class CurvatureResult:
    """A unit direction u with its Rayleigh quotient <u, Hu>."""

    direction: Array
    rayleigh: float
    # Not a field: the eigensolve is exact, and perfbench/tracing.py reads it.
    converged = True


def probe_extreme(hessian: HessianOperator) -> CurvatureResult:
    """The bottom eigenvector u of H and its Rayleigh quotient <u, Hu>.

    The driver loop gates on ``result.rayleigh <= -nu * eps_H`` itself, so
    the trace records the estimate even when no usable direction exists.
    """
    _, vecs = eigh(densify(hessian), subset_by_index=[0, 0])
    u = vecs[:, 0]
    return CurvatureResult(direction=u, rayleigh=hessian.quad(u))


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
