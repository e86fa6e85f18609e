"""Shared domain types, error classes, and the step-acceptance ratio.

Everything here is an immutable value and operator application is pure, so
all types can be shared freely across threads. An ``apply`` may fill a
write-once cache (``problems.gram_operator``); a race fills it twice, harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

Array = np.ndarray


class ConfigurationError(ValueError):
    """Invalid solver, sampling, or experiment configuration."""


class CertificateError(RuntimeError):
    """A sub-problem solution violates its sufficient-descent guarantee."""


class NonFiniteError(FloatingPointError):
    """NaN or infinity showed up where the smoothness assumptions forbid it."""


def ensure_finite(values: Any, context: str) -> None:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values encountered in {context}")


class Objective(Protocol):
    """Anything that reports the exact objective value and gradient."""

    def value_grad(self, x: Array) -> tuple[float, Array]: ...


@dataclass(frozen=True)
class HessianOperator:
    """Symmetric linear map v -> Hv with a known spectral-norm bound.

    ``apply`` takes a d-vector or a d x k block V and returns Hv or HV.
    ``accuracy`` records the spectral error bound (relative to the exact
    Hessian at the point the operator was built for) that the construction
    guarantees; 0.0 means the operator is exact. ``sample_size`` is the
    number of per-sample Hessians behind the operator (0 when that notion
    does not apply).
    """

    apply: Callable[[Array], Array]
    dim: int
    norm_bound: float
    accuracy: float = 0.0
    sample_size: int = 0

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigurationError("operator dimension must be positive")
        if not np.isfinite(self.norm_bound) or self.norm_bound < 0:
            raise ConfigurationError("norm_bound must be a nonnegative real")

    def quad(self, v: Array) -> float:
        """<v, Hv> as a float."""
        return float(v @ self.apply(v))


def operator_from_dense(matrix: Array, norm_bound: float | None = None,
                        accuracy: float = 0.0) -> HessianOperator:
    """Wrap an explicit symmetric matrix; the default bound is its true norm."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("dense operator needs a square matrix")
    if norm_bound is None:
        norm_bound = float(np.max(np.abs(np.linalg.eigvalsh(m)))) if m.size else 0.0
    return HessianOperator(apply=lambda v, _m=m: _m @ v, dim=m.shape[0],
                           norm_bound=norm_bound, accuracy=accuracy)


def densify(op: HessianOperator) -> Array:
    """The operator's d x d matrix, symmetrized, from one block apply; for a
    Gram-form or dense operator this is exactly its matrix. Halves are added,
    not the sum halved, so entries near the float maximum do not overflow;
    symmetric pairs are kept as they are, so no subnormal loses its last bit."""
    dense = op.apply(np.eye(op.dim))
    return np.where(dense == dense.T, dense, 0.5 * dense + 0.5 * dense.T)


@dataclass(frozen=True)
class OptimalityTolerances:
    """Target accuracies: gradient norm <= eps_g, lambda_min >= -eps_H."""

    eps_g: float
    eps_H: float

    def __post_init__(self) -> None:
        for name, value in (("eps_g", self.eps_g), ("eps_H", self.eps_H)):
            if not (0.0 < value < 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1), got {value}")

    def require_tr_strict(self) -> None:
        # Theory mode of the trust-region driver additionally needs
        # eps_H <= sqrt(eps_g).
        if self.eps_H > np.sqrt(self.eps_g) * (1.0 + 1e-12):
            raise ConfigurationError(
                f"strict mode needs eps_H <= sqrt(eps_g); got "
                f"eps_H={self.eps_H}, sqrt(eps_g)={np.sqrt(self.eps_g)}")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a solver trace.

    ``f_value``/``grad_norm`` are taken at the start of the iteration,
    ``radius_or_sigma`` is the value in force when the step was computed,
    and ``eps_t`` is the realized Hessian accuracy of the operator used.
    """

    t: int
    f_value: float
    grad_norm: float
    lambda_min_estimate: float
    radius_or_sigma: float
    rho: float
    accepted: bool
    sample_size: int
    step_norm: float
    eps_t: float


@dataclass(frozen=True)
class SolveResult:
    """Terminal state of a driver run plus its full iteration trace.

    ``lambda_min_final`` is the curvature-probe estimate from the last
    completed iteration (for runs stopped by the iteration cap it refers to
    the iterate before the final step); ``eps_final`` is the Hessian accuracy
    in force at that point.
    """

    x: Array
    records: tuple[IterationRecord, ...]
    converged: bool
    f_final: float
    grad_norm_final: float
    lambda_min_final: float
    eps_final: float
    message: str = ""

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def n_rejected(self) -> int:
        return sum(1 for r in self.records if not r.accepted)


def acceptance_ratio(f_old: float, f_new: float, model_decrease: float) -> float:
    """rho = (F(x) - F(x+s)) / (-m(s)); the solver must guarantee -m(s) > 0."""
    ensure_finite((f_old, f_new), "objective values passed to acceptance_ratio")
    if not np.isfinite(model_decrease) or model_decrease <= 0.0:
        raise CertificateError(
            f"model decrease must be strictly positive, got {model_decrease}")
    return (f_old - f_new) / model_decrease


def iteration_rng(base_seed: int, stream: int, t: int) -> np.random.Generator:
    """Deterministic per-(stream, iteration) generator.

    The driver loop draws iteration t's Hessian sample from stream 1. The
    stream number is part of the seed, so it stays fixed to keep those draws,
    and the traces made from them, unchanged.
    """
    return np.random.default_rng(np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF,
                                                         stream, t]))
