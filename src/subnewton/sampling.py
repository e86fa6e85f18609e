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
from .problems import (SYRK_MIN_DIM, FiniteSumProblem, exact_sum, gemm_product,
                       row_pass, symmetrized, weighted_gram, weyl_floor)

logger = logging.getLogger(__name__)

# The config's ``hessian`` names; every one but "exact" is a sampling mode.
HESSIANS = ("exact", "uniform", "uniform_wor", "nonuniform", "intrinsic")
# The largest eps for which the intrinsic-dimension sizing holds.
INTRINSIC_EPS_MAX = 0.5

# verify_concentration eigensolves its draws in stacks of at most this size,
# and draws their indices (8 bytes each) in batches of at most this size:
# concurrent grid points trade the GIL at every numpy call, and a batch
# sorts, and searches the CDF, once for all its draws.
EIG_STACK_BYTES = 256 * 1024


@dataclass(frozen=True)
class SampleScheme:
    """Resolved sampling plan: a ``HESSIANS`` mode other than "exact",
    accuracy targets, and sample size."""

    mode: str
    epsilon: float
    delta: float
    resolved_size: int

    def __post_init__(self) -> None:
        if self.mode not in HESSIANS[1:]:
            raise ConfigurationError(f"unknown sampling mode {self.mode!r}")
        if self.resolved_size < 1:
            raise ConfigurationError("resolved_size must be at least 1")


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
    """The sample size ``mode``'s prescription gives, which may exceed n.

    At least one row: one meets a prescription below one row, as when K^2
    underflows. ``"intrinsic"`` reads the intrinsic dimension at ``x``.
    """
    if mode not in HESSIANS[1:]:
        raise ConfigurationError(f"unknown sampling mode {mode!r}")
    # epsilon = 1 is admitted as the degenerate limit of the prescriptions;
    # the intrinsic-dimension one holds for epsilon <= 1/2 only.
    eps_max = INTRINSIC_EPS_MAX if mode == "intrinsic" else 1.0
    if not (0.0 < epsilon <= eps_max):
        raise ConfigurationError(f"{mode} sizing needs epsilon in (0, {eps_max}], "
                                 f"got {epsilon}")
    if not (0.0 < delta < 1.0):
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    name = "k_max" if mode.startswith("uniform") else "k_hat"
    k = getattr(problem, name)
    if k <= 0:
        raise ConfigurationError(f"{name} must be positive")
    if mode.startswith("uniform"):
        numerator = 16.0 * k ** 2 * math.log(2.0 * problem.d / delta)
    elif mode == "nonuniform":
        numerator = 4.0 * k ** 2 * math.log(2.0 * problem.d / delta)
    else:
        if x is None:
            raise ConfigurationError("intrinsic sizing needs the evaluation point")
        t = intrinsic_dimension(problem, x)
        numerator = 16.0 * k ** 2 / 3.0 * math.log(8.0 * t / delta)
    size = numerator / epsilon ** 2 if epsilon ** 2 else math.inf
    if not math.isfinite(size):
        raise ConfigurationError(f"epsilon={epsilon!r} prescribes an unbounded sample size")
    return max(math.ceil(size), 1)


def hessian_source(problem, hessian: str = "exact", eps_cap: float = 0.9) -> HessianSource:
    """The operators a driver asks for, by the config's ``hessian`` name.

    ``"exact"`` ignores the request and hands out the exact Hessian at x.
    Every other name draws a sample of ``prescribed_size``, capped at n
    rows, for the requested delta and min(eps, cap), where cap is
    ``eps_cap``, at most ``INTRINSIC_EPS_MAX`` for ``"intrinsic"``.
    """
    if hessian not in HESSIANS:
        raise ConfigurationError(f"unknown hessian mode {hessian!r}")
    if hessian == "exact":
        return lambda x, eps, delta, rng: problem.exact_hessian_operator(x)
    if not isinstance(problem, FiniteSumProblem):
        raise ConfigurationError("sub-sampling requires a finite-sum problem")
    cap = min(eps_cap, INTRINSIC_EPS_MAX) if hessian == "intrinsic" else eps_cap

    def source(x: Array, eps: float, delta: float,
               rng: np.random.Generator) -> HessianOperator:
        eps = min(eps, cap)
        size = prescribed_size(problem, hessian, eps, delta, x=x)
        if size > problem.n:
            logger.info("prescribed sample size %d exceeds n=%d; capping", size, problem.n)
        scheme = SampleScheme(hessian, eps, delta, min(size, problem.n))
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


def _distribution(problem: FiniteSumProblem, x: Array,
                  mode: str) -> tuple[Array | None, Array | None]:
    """A non-uniform mode's p at x and its CDF; (None, None) in the others."""
    if mode.startswith("uniform"):
        return None, None
    p = nonuniform_distribution(problem, x)
    return p, _sampling_cdf(p)


def _draw_indices(problem: FiniteSumProblem, scheme: SampleScheme,
                  cdf: Array | None, rng: np.random.Generator,
                  count: int | None = None) -> Array:
    """Sorted index multiset (non-uniform modes draw by ``cdf``; uniform
    modes ignore it), bit for bit the sorted draw of ``Generator.choice``.
    Given ``count``, a (count, |S|) array whose rows are bit for bit
    ``count`` successive single draws from ``rng``, made by one call per
    mode (one ``choice`` per row without replacement) and one sort. A draw
    of all n rows without replacement takes nothing from ``rng``."""
    n = problem.n
    size = scheme.resolved_size
    shape = (size,) if count is None else (count, size)
    if scheme.mode == "uniform":
        idx = rng.integers(0, n, size=shape)
    elif scheme.mode == "uniform_wor":
        if size > n:
            raise ConfigurationError(
                "sampling without replacement needs resolved_size <= n")
        if size == n:
            return np.broadcast_to(np.arange(n), shape)
        idx = np.empty(shape, dtype=np.int64)
        for row in idx.reshape(-1, size):
            row[...] = rng.choice(n, size=size, replace=False)
    else:
        idx = rng.random(shape)
    idx.sort(axis=-1)
    return (idx if scheme.mode.startswith("uniform")
            else cdf.searchsorted(idx, side="right"))


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
    p, cdf = _distribution(problem, x, scheme.mode)
    idx = _draw_indices(problem, scheme, cdf, rng)
    size = idx.shape[0]
    norm_bound = problem.k_max if p is None else problem.k_hat + scheme.epsilon
    if scheme.mode == "uniform_wor" and size == problem.n:
        return replace(problem.exact_hessian_operator(x), norm_bound=norm_bound)
    rows = problem.rows
    second = (problem.second_derivatives(x, idx) if p is None
              else problem.second_derivatives(x)[idx])
    p_sel = 1.0 / problem.n if p is None else p[idx]
    weights = second / (problem.n * size * p_sel)
    form = functools.cache(lambda: weighted_gram(rows[idx], weights))
    floor, _ = weyl_floor(weights, problem.row_sq_norms[idx], problem.d)
    return HessianOperator(form=form, norm_bound=norm_bound,
                           accuracy=scheme.epsilon, sample_size=size,
                           apply=row_pass(rows, weights, idx), lambda_floor=floor)


def _exceeds(stack: Array, epsilon: float) -> Array:
    """||D||_2 > epsilon for each D of a finite stack, as ``eigvalsh`` says.
    ||D||_F <= eps (1 - 1e-10) passes a draw and a column norm above
    eps (1 + 1e-10) fails it, as ||D||_2 lies between the two; the margins
    exceed the norms' and the eigensolve's rounding, a few d u each (u =
    2^-53), ``slack`` the squares' underflow. Only the rest are eigensolved."""
    with np.errstate(over="ignore"):
        squares = np.einsum("kij,kij->kj", stack, stack)
    slack = stack.shape[1] * 2.0 ** -537
    fails = np.sqrt(squares.max(axis=1)) > epsilon * (1 + 1e-10) + slack
    open_ = ~fails & (np.sqrt(squares.sum(axis=1)) > epsilon * (1 - 1e-10) - slack)
    fails[open_] = np.max(np.abs(np.linalg.eigvalsh(stack[open_])), axis=1) > epsilon
    return fails


def concentration_draws(problem: FiniteSumProblem, scheme: SampleScheme,
                        trials: int) -> int:
    """The draws ``verify_concentration`` makes for ``trials`` trials: one
    for a sample of all n rows without replacement, the same every trial."""
    full = scheme.mode == "uniform_wor" and scheme.resolved_size == problem.n
    return 1 if full else trials


def verify_concentration(problem: FiniteSumProblem, x: Array,
                         scheme: SampleScheme, trials: int,
                         rng_seed: int | np.random.Generator = 0) -> float:
    """Fraction of independent draws with ||H - grad^2 F(x)|| > eps.

    Once per grid point: f'', the exact Hessian, p and its CDF, and every
    row's weight w = f'' / (n |S| p), p = 1/n in the uniform modes; below
    ``SYRK_MIN_DIM`` also the weighted rows A diag(w), an 8 n d byte table.
    Per batch of at most ``EIG_STACK_BYTES`` of indices within a stack: the
    sorted indices of its draws from one ``_draw_indices`` call, bit for bit
    those of successive single draws. Per draw: its plain (and weighted)
    rows gathered into buffers that every draw reuses, and one Gram into a
    stack of at most ``EIG_STACK_BYTES``: the GEMM of ``gemm_product``, or from
    ``SYRK_MIN_DIM`` a ``weighted_gram`` of the gathered rows. Per stack:
    the GEMM products ``symmetrized``, H_S - grad^2 F(x) and ``_exceeds``,
    which decides by norms and one batched dense eigensolve; desk scale
    only. Every difference is bit for bit that of ``weighted_gram(rows[idx],
    w[idx])``. A full draw without replacement is the same every trial, so
    its error is measured once and counted ``trials`` times.
    """
    rng = np.random.default_rng(rng_seed)
    second = problem.second_derivatives(x)
    ensure_finite(second, "f'' at the verification point")
    exact = problem.dense_hessian(x)
    p, cdf = _distribution(problem, x, scheme.mode)
    draws = concentration_draws(problem, scheme, trials)
    n, d, size = problem.n, problem.d, scheme.resolved_size
    gemm, rows = d < SYRK_MIN_DIM, problem.rows
    # A row of p = 0 is never drawn; a non-finite weight that a draw reads
    # reaches the stack's finiteness check.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weights = second / (n * size * (1.0 / n if p is None else p))
        weighted_rows = rows * weights[:, None] if gemm else None
    depth = min(draws, max(EIG_STACK_BYTES // (8 * d * d), 1))
    stack = np.empty((depth, d, d))
    grams = np.empty_like(stack) if gemm else stack
    gathered = np.empty((size, d))
    weighted = np.empty((size, d)) if gemm else None
    batch = max(EIG_STACK_BYTES // (8 * size), 1)
    failures = 0
    for start in range(0, draws, depth):
        count = min(depth, draws - start)
        for first in range(0, count, batch):
            drawn = _draw_indices(problem, scheme, cdf, rng,
                                  count=min(batch, count - first))
            for idx, gram in zip(drawn, grams[first:]):
                # idx lies in [0, n); the default mode="raise" would gather
                # through a temporary copy before filling the buffer.
                rows.take(idx, axis=0, out=gathered, mode="clip")
                if gemm:
                    weighted_rows.take(idx, axis=0, out=weighted, mode="clip")
                    gemm_product(weighted, gathered, out=gram)
                else:
                    gram[...] = weighted_gram(gathered, weights[idx])
        chunk = stack[:count]
        if gemm:
            symmetrized(grams[:count], out=chunk)
        chunk -= exact
        ensure_finite(chunk, "a sampled Hessian's difference from the exact one")
        failures += int(np.count_nonzero(_exceeds(chunk, scheme.epsilon)))
    return failures * (trials // draws) / trials
