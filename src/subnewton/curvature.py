"""Bottom eigenpairs: the curvature probe, and the curvature quality nu.

Algorithms 1 and 2 need a nu-approximate bottom eigenvector of the inexact
Hessian H only when H has curvature below -nu*eps_H. The driver loop first
reads the operator's ``lambda_floor``, which certifies the absence of such
curvature without forming H; only when it cannot does it call the probe,
which returns the exact bottom eigenvector (the nu = 1 case) from one
eigensolve of the operator's d x d matrix, forming it if need be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Array, ConfigurationError, HessianOperator, ensure_finite


@dataclass(frozen=True)
class CurvatureResult:
    """A unit direction u with its Rayleigh quotient <u, Hu>. ``converged``
    is always true (the eigensolve is exact); perfbench/tracing.py reads it."""

    direction: Array
    rayleigh: float
    converged = True


def probe_extreme(hessian: HessianOperator) -> CurvatureResult:
    """The bottom eigenvector u of H and its Rayleigh quotient <u, Hu>.

    The driver loop gates on ``result.rayleigh <= -nu * eps_H`` itself, so
    the trace records the estimate even when no usable direction exists.
    The quotient comes from ``hessian.apply``, a row pass for the
    finite-sum operators, not from the matrix the eigensolve read.
    A non-finite matrix is refused with ``NonFiniteError``, before LAPACK
    sees it.
    """
    ensure_finite(hessian.matrix, "the Hessian handed to the curvature probe")
    u = np.linalg.eigh(hessian.matrix)[1][:, 0]
    return CurvatureResult(direction=u, rayleigh=hessian.quad(u))


def default_nu(norm_bound: float, eps_H: float) -> float:
    """max(2K_H/(2K_H + eps_H), 1/2) with K_H = max(norm_bound, 0): the nu
    a driver resolves from its bootstrap operator's norm bound when the
    config sets none, rising to 1 as K_H/eps_H grows.

    nu scales the negative-curvature threshold -nu*eps_H, TR's accuracy
    floor alpha*(1-eta)*nu*eps_H and the Eigen branch of ARC's fixed
    accuracy. The probe is exact, so any nu < 1 still certifies
    lambda_min(H) > -eps_H at termination; a nu near 1 makes the threshold
    and both accuracies as large as that allows, and this formula keeps the
    default every trace has been made with.
    """
    if eps_H <= 0:
        raise ConfigurationError("eps_H must be positive")
    k = max(norm_bound, 0.0)
    nu = max(2.0 * k / (2.0 * k + eps_H), 0.5)
    if not nu < 1.0:
        raise ConfigurationError(
            f"the default nu = 2K/(2K + eps_H) rounds to 1 at eps_H={eps_H!r}, "
            f"K={norm_bound!r}; set nu below 1")
    return nu
