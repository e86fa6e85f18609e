"""Shared domain types, error classes, and the step-acceptance ratio.

Everything here is an immutable value and operator application is pure, so
all types can be shared freely across threads. A Hessian operator's matrix
is formed on first use into a cache; a race forms it twice, harmlessly.
"""

from __future__ import annotations

import math
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


# The errors that abort a solve, with its rows so far attached: exit 2.
ABORT_ERRORS = (NonFiniteError, CertificateError, OverflowError)


def ensure_finite(values: Any, context: str) -> None:
    arr = np.asarray(values, dtype=float)
    # min and max carry any NaN or infinity, with no array-sized temporary.
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NonFiniteError(f"non-finite values encountered in {context}")


class Objective(Protocol):
    """Anything that reports the exact objective value and gradient."""

    def value_grad(self, x: Array) -> tuple[float, Array]: ...


@dataclass(frozen=True)
class HessianOperator:
    """Symmetric linear map v -> Hv with a known spectral-norm bound.

    ``form`` returns H's d x d matrix, exactly symmetric and read-only, and
    ``matrix`` reads it; constructors cache it, so it is formed on first use
    and an unused operator forms nothing. ``apply`` maps a d-vector or d x k
    block V to HV. It defaults to ``matrix @ V``; the finite-sum operators
    pass one striped row pass A'(w * AV) instead, which never reads the
    matrix, so an apply costs the same whether or not the matrix was formed.
    It stays a field because perfbench/tracing.py counts matvecs through a
    ``replace(op, apply=...)`` copy, which shares its original's form and so
    its matrix. ``accuracy`` records the spectral error bound (relative to
    the exact Hessian at the point the operator was built for) that the
    construction guarantees; 0.0 means the operator is exact. ``sample_size``
    is the number of per-sample Hessians behind the operator (0 when that
    notion does not apply). ``lambda_floor`` is a certified lower bound on
    the smallest eigenvalue of both ``matrix`` and every Rayleigh quotient
    ``apply`` gives, rounding included; -inf when nothing is known.
    """

    form: Callable[[], Array]
    norm_bound: float
    accuracy: float = 0.0
    sample_size: int = 0
    apply: Callable[[Array], Array] = None  # type: ignore[assignment]
    lambda_floor: float = -math.inf

    def __post_init__(self) -> None:
        if not np.isfinite(self.norm_bound) or self.norm_bound < 0:
            raise ConfigurationError("norm_bound must be a nonnegative real")
        if self.apply is None:
            # Bound to form, not to self: a cycle through the operator would
            # keep its matrix alive until the cyclic collector runs.
            form = self.form
            object.__setattr__(self, "apply", lambda v: form() @ v)

    @property
    def matrix(self) -> Array:
        return self.form()

    def quad(self, v: Array) -> float:
        """<v, Hv> as a float."""
        return float(v @ self.apply(v))


# (x, eps, delta, rng) -> an operator at x, accurate to eps except with probability delta.
HessianSource = Callable[[Array, float, float, np.random.Generator], HessianOperator]


@dataclass(frozen=True)
class OptimalityTolerances:
    """Target accuracies: gradient norm <= eps_g, lambda_min >= -eps_H."""

    eps_g: float
    eps_H: float

    def __post_init__(self) -> None:
        for name, value in (("eps_g", self.eps_g), ("eps_H", self.eps_H)):
            if not (0.0 < value < 1.0):
                raise ConfigurationError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a solver trace.

    ``f_value``/``grad_norm`` are taken at the start of the iteration,
    ``radius_or_sigma`` is the value in force when the step was computed,
    and ``eps_t`` is the realized Hessian accuracy of the operator used.
    ``lambda_source`` says where ``lambda_min_estimate`` came from: "probe",
    the bottom eigenpair's Rayleigh quotient, or "bound", the operator's
    ``lambda_floor``, which certified that no probe was needed.
    ``model_decrease`` is -m(s), the denominator of ``rho``.
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
    lambda_source: str
    model_decrease: float


@dataclass(frozen=True)
class SolveResult:
    """Terminal state of a driver run plus its full iteration trace.

    ``lambda_min_final`` is the curvature estimate (probe or floor) from the
    last completed iteration (for runs stopped by the iteration cap it refers
    to the iterate before the final step); ``eps_final`` is the Hessian
    accuracy in force at that point.
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


def iteration_rng(base_seed: int, t: int) -> np.random.Generator:
    """Deterministic generator of iteration t's Hessian sample, seeded by
    (base_seed, 1, t). Every draw's seed holds the 1, so it stays fixed to
    keep the draws, and the traces made from them, unchanged."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF,
                                                         1, t]))
