"""Randomized Hessian sub-sampling: size prescriptions, operator construction,
the drivers' Hessian sources, and Monte-Carlo concentration checks.

Sample sizes follow the matrix-Bernstein prescriptions
    uniform      |S| >= 16 K_max^2 log(2d/delta) / eps^2
    non-uniform  |S| >=  4 K_hat^2 log(2d/delta) / eps^2
    intrinsic    |S| >= (16/3) K_hat^2 log(8t/delta) / eps^2,  eps <= 1/2
for a per-iteration failure probability delta, which each driver config
shrinks from its total budget. ``hessian_source`` gives a driver, by a
config's ``hessian`` name, the exact Hessian or samples so prescribed.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (Array, ConfigurationError, HessianOperator, HessianSource,
                   ensure_finite)
from .problems import (FiniteSumProblem, exact_sum, row_pass, weighted_gram,
                       weyl_floor)

logger = logging.getLogger(__name__)

# The config's ``hessian`` names, each with the sampling mode it draws by.
HESSIANS = {
    "exact": None,
    "uniform": "uniform_with_replacement",
    "uniform_wor": "uniform_without_replacement",
    "nonuniform": "nonuniform",
    "intrinsic": "nonuniform_intrinsic",
}
MODES = tuple(mode for mode in HESSIANS.values() if mode)
# The largest eps for which the intrinsic-dimension sizing holds.
INTRINSIC_EPS_MAX = 0.5

# verify_concentration eigensolves its draws in stacks of at most this size.
EIG_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SampleScheme:
    """Resolved sampling plan: mode, accuracy targets, and sample size."""

    mode: str
    epsilon: float
    delta: float
    resolved_size: int

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown sampling mode {self.mode!r}")
        if self.resolved_size < 1:
            raise ConfigurationError("resolved_size must be at least 1")


def _check_tolerances(epsilon: float, delta: float) -> None:
    # epsilon = 1 is admitted as the degenerate limit of the prescriptions.
    if not (0.0 < epsilon <= 1.0):
        raise ConfigurationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")


def _prescribed(numerator: float, epsilon: float) -> int:
    """ceil(numerator / epsilon^2), refused when that is not finite."""
    size = numerator / epsilon ** 2 if epsilon ** 2 else math.inf
    if not math.isfinite(size):
        raise ConfigurationError(f"epsilon={epsilon!r} prescribes an unbounded sample size")
    return math.ceil(size)


def uniform_sample_size(k_max: float, epsilon: float, delta: float, d: int) -> int:
    _check_tolerances(epsilon, delta)
    if k_max <= 0:
        raise ConfigurationError("k_max must be positive")
    return _prescribed(16.0 * k_max ** 2 * math.log(2.0 * d / delta), epsilon)


def nonuniform_sample_size(k_hat: float, epsilon: float, delta: float, d: int) -> int:
    _check_tolerances(epsilon, delta)
    if k_hat <= 0:
        raise ConfigurationError("k_hat must be positive")
    return _prescribed(4.0 * k_hat ** 2 * math.log(2.0 * d / delta), epsilon)


def intrinsic_sample_size(k_hat: float, epsilon: float, delta: float,
                          t_intrinsic: float) -> int:
    _check_tolerances(epsilon, delta)
    if epsilon > INTRINSIC_EPS_MAX:
        raise ConfigurationError(
            f"intrinsic-dimension sizing requires eps <= 1/2, got {epsilon}")
    if t_intrinsic < 1.0:
        raise ConfigurationError("intrinsic dimension is at least 1")
    if k_hat <= 0:
        raise ConfigurationError("k_hat must be positive")
    return _prescribed(16.0 * k_hat ** 2 / 3.0 * math.log(8.0 * t_intrinsic / delta),
                       epsilon)


def nonuniform_distribution(problem: FiniteSumProblem, x: Array) -> Array:
    """p_i proportional to |f''(a_i'x)| * ||a_i||^2, summing to one.

    Falls back to the uniform distribution (with a logged warning) when all
    curvatures vanish, where the prescription is undefined.
    """
    second = problem.second_derivatives(x)
    weights = np.abs(second) * problem.row_sq_norms
    total = exact_sum(weights)
    if total <= 0.0:
        logger.warning("all per-row curvatures vanish at this point; "
                       "falling back to uniform sampling weights")
        return np.full(problem.n, 1.0 / problem.n)
    p = weights / total
    return p / exact_sum(p)


def intrinsic_dimension(problem: FiniteSumProblem, x: Array) -> float:
    """trace/spectral-norm of the curvature-weighted Gram matrix A'|B|A."""
    dense = weighted_gram(problem.rows,
                          np.abs(problem.second_derivatives(x)) / problem.n)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(dense)))) if dense.size else 0.0
    if norm == 0.0:
        logger.warning("zero curvature matrix; intrinsic dimension set to 1")
        return 1.0
    t = float(np.trace(dense)) / norm
    return min(max(t, 1.0), float(problem.d))


def prescribed_size(problem: FiniteSumProblem, mode: str, epsilon: float,
                    delta: float, x: Array | None = None) -> int:
    """The sample size ``mode``'s prescription gives, which may exceed n."""
    d = problem.d
    if mode in ("uniform_with_replacement", "uniform_without_replacement"):
        return uniform_sample_size(problem.k_max, epsilon, delta, d)
    if mode == "nonuniform":
        return nonuniform_sample_size(problem.k_hat, epsilon, delta, d)
    if mode == "nonuniform_intrinsic":
        if x is None:
            raise ConfigurationError("intrinsic sizing needs the evaluation point")
        t = intrinsic_dimension(problem, x)
        return intrinsic_sample_size(problem.k_hat, epsilon, delta, t)
    raise ConfigurationError(f"unknown sampling mode {mode!r}")


def resolve_scheme(problem: FiniteSumProblem, mode: str, epsilon: float,
                   delta: float, x: Array | None = None) -> SampleScheme:
    """The sampling plan of ``prescribed_size``, capped at n rows."""
    size = prescribed_size(problem, mode, epsilon, delta, x=x)
    if size > problem.n:
        logger.info("prescribed sample size %d exceeds n=%d; capping", size, problem.n)
        size = problem.n
    return SampleScheme(mode=mode, epsilon=epsilon, delta=delta,
                        resolved_size=size)


def hessian_source(problem, hessian: str = "exact", eps_cap: float = 0.9) -> HessianSource:
    """The operators a driver asks for, by the config's ``hessian`` name.

    ``"exact"`` ignores the request and hands out the exact Hessian at x.
    Every other name draws a sample by ``resolve_scheme`` for the requested
    delta and min(eps, cap), where cap is ``eps_cap``, at most
    ``INTRINSIC_EPS_MAX`` for ``"intrinsic"``.
    """
    if hessian not in HESSIANS:
        raise ConfigurationError(f"unknown hessian mode {hessian!r}")
    mode = HESSIANS[hessian]
    if mode is None:
        return lambda x, eps, delta, rng: problem.exact_hessian_operator(x)
    if not isinstance(problem, FiniteSumProblem):
        raise ConfigurationError("sub-sampling requires a finite-sum problem")
    cap = min(eps_cap, INTRINSIC_EPS_MAX) if mode == "nonuniform_intrinsic" else eps_cap

    def source(x: Array, eps: float, delta: float,
               rng: np.random.Generator) -> HessianOperator:
        scheme = resolve_scheme(problem, mode, min(eps, cap), delta, x=x)
        return build_subsampled_hessian(problem, x, scheme, rng_seed=rng)

    return source


def _sampling_cdf(p: Array) -> Array:
    """``Generator.choice``'s CDF of p, after its checks on p."""
    ensure_finite(p, "sampling probabilities")
    cdf = p.cumsum()
    if np.any(p < 0.0) or not abs(cdf[-1] - 1.0) <= 1.5e-8:
        raise ValueError("sampling probabilities must be non-negative and sum to 1")
    cdf /= cdf[-1]
    return cdf


def _draw_indices(problem: FiniteSumProblem, scheme: SampleScheme,
                  p: Array | None, rng: np.random.Generator,
                  cdf: Array | None = None) -> tuple[Array, Array]:
    """Sorted index multiset plus the per-draw selection probabilities
    (non-uniform modes draw from ``p``, or its ``cdf`` if given; uniform modes
    ignore both), bit for bit the sorted draw of ``Generator.choice``. A draw
    of all n rows without replacement takes nothing from ``rng``."""
    n = problem.n
    size = scheme.resolved_size
    if scheme.mode == "uniform_with_replacement":
        idx = np.sort(rng.integers(0, n, size=size))
    elif scheme.mode == "uniform_without_replacement":
        if size > n:
            raise ConfigurationError(
                "sampling without replacement needs resolved_size <= n")
        idx = (np.arange(n) if size == n
               else np.sort(rng.choice(n, size=size, replace=False)))
    else:
        cdf = _sampling_cdf(p) if cdf is None else cdf
        idx = cdf.searchsorted(np.sort(rng.random(size)), side="right")
        return idx, p[idx]
    return idx, np.full(size, 1.0 / n)


def build_subsampled_hessian(problem: FiniteSumProblem, x: Array,
                             scheme: SampleScheme,
                             rng_seed: int | np.random.Generator = 0
                             ) -> HessianOperator:
    """Sub-sampled Hessian (1/(n|S|)) * sum_j (1/p_j) f''_j(a_j'x) a_j a_j'.

    Uniform weights collapse to the plain average of per-sample Hessians, so
    the spectral bound K_max holds deterministically; non-uniform weighting
    carries the bound K_hat + eps. A full sample drawn without replacement
    reproduces the exact Hessian: it is the exact operator at x, sharing its
    Gram with ``problem.dense_hessian(x)``, recorded as exact (accuracy 0)
    with the uniform bound K_max. Other samples' matrix is formed from their
    gathered rows on first use. Every sample applies by a row pass over its
    rows and carries the ``weyl_floor`` of its weights, both O(|S|) in rows.
    """
    rng = np.random.default_rng(rng_seed)
    p = (None if scheme.mode.startswith("uniform")
         else nonuniform_distribution(problem, x))
    idx, p_sel = _draw_indices(problem, scheme, p, rng)
    size = idx.shape[0]
    norm_bound = (problem.k_max if scheme.mode.startswith("uniform")
                  else problem.k_hat + scheme.epsilon)
    if scheme.mode == "uniform_without_replacement" and size == problem.n:
        return replace(problem.exact_hessian_operator(x), norm_bound=norm_bound)
    rows = problem.rows
    weights = problem.second_derivatives(x)[idx] / (problem.n * size * p_sel)
    form = functools.cache(lambda: weighted_gram(rows[idx], weights))
    floor, _ = weyl_floor(weights, problem.row_sq_norms[idx], problem.d)
    return HessianOperator(form=form, norm_bound=norm_bound,
                           accuracy=scheme.epsilon, sample_size=size,
                           apply=row_pass(rows, weights, idx), lambda_floor=floor)


def verify_concentration(problem: FiniteSumProblem, x: Array,
                         scheme: SampleScheme, trials: int,
                         rng_seed: int | np.random.Generator = 0) -> float:
    """Fraction of independent draws with ||H - grad^2 F(x)|| > eps.

    Each draw's rows are gathered into one buffer that every draw reuses (a
    fresh |S| x d copy per draw made the allocator trim and re-fault its heap
    each time), and its difference H_S - grad^2 F(x) goes into a stack of at
    most ``EIG_STACK_BYTES``, whose spectra one batched dense eigensolve
    gives; desk scale only. A full draw without replacement is the same every
    trial, so its error is measured once and counted ``trials`` times.
    """
    rng = np.random.default_rng(rng_seed)
    second = problem.second_derivatives(x)
    ensure_finite(second, "f'' at the verification point")
    exact = problem.dense_hessian(x)
    p = (None if scheme.mode.startswith("uniform")
         else nonuniform_distribution(problem, x))
    cdf = None if p is None else _sampling_cdf(p)
    full = (scheme.mode == "uniform_without_replacement"
            and scheme.resolved_size == problem.n)
    draws = 1 if full else trials
    d = problem.d
    stack = np.empty((min(draws, max(EIG_STACK_BYTES // (8 * d * d), 1)), d, d))
    gathered = np.empty((scheme.resolved_size, d))
    failures = 0
    for start in range(0, draws, stack.shape[0]):
        chunk = stack[:min(stack.shape[0], draws - start)]
        for diff in chunk:
            idx, p_sel = _draw_indices(problem, scheme, p, rng, cdf)
            weights = second[idx] / (problem.n * idx.shape[0] * p_sel)
            # idx lies in [0, n); the default mode="raise" would gather
            # through a temporary copy before filling the buffer.
            np.take(problem.rows, idx, axis=0, out=gathered, mode="clip")
            np.subtract(weighted_gram(gathered, weights), exact, out=diff)
        ensure_finite(chunk, "a sampled Hessian's difference from the exact one")
        errs = np.max(np.abs(np.linalg.eigvalsh(chunk)), axis=1)
        failures += int(np.count_nonzero(errs > scheme.epsilon))
    return failures * (trials if full else 1) / trials
