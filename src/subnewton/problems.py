"""Finite-sum objective instances with analytic derivatives and curvature bounds.

Problems have the generalized-linear form F(x) = (1/n) * sum_i f(a_i'x; b_i)
for a scalar loss f, which gives closed-form gradients, Hessians, and per-row
Hessian norm bounds K_i = sup|f''| * ||a_i||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import expit

from .core import (Array, ConfigurationError, HessianOperator, ensure_finite,
                   operator_from_dense)


def biweight_scalar(z: Array, b: Array) -> tuple[Array, Array, Array]:
    """Smooth bi-weight loss r^2/(1+r^2) of the residual r = z - b.

    Bounded, non-convex, with f''(r) = 2(1-3r^2)/(1+r^2)^3 in [-1/2, 2].
    """
    r = np.asarray(z, dtype=float) - np.asarray(b, dtype=float)
    t = 1.0 + r * r
    value = r * r / t
    first = 2.0 * r / (t * t)
    second = 2.0 * (1.0 - 3.0 * r * r) / (t * t * t)
    return value, first, second


def nls_logistic_scalar(z: Array, b: Array) -> tuple[Array, Array, Array]:
    """Least-squares loss (sigmoid(z) - b)^2 with the exact second derivative.

    second = 2*s'^2 + 2*(s-b)*s'' where s', s'' are the sigmoid derivatives;
    the sigmoid is evaluated overflow-safely.
    """
    s = expit(np.asarray(z, dtype=float))
    b = np.asarray(b, dtype=float)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    diff = s - b
    value = diff * diff
    first = 2.0 * diff * sp
    second = 2.0 * sp * sp + 2.0 * diff * spp
    return value, first, second


@dataclass(frozen=True)
class ScalarLoss:
    """Scalar loss with derivative oracle and validated curvature bounds.

    ``curvature_bound`` is sup_z |f''(z; b)| over admissible targets, so
    K_i = curvature_bound * ||a_i||^2. ``third_bound`` upper-bounds |f'''|
    and yields the Hessian-Lipschitz estimate used by the cubic solver.
    Custom losses must supply valid bounds themselves; they are not checked.
    """

    name: str
    evaluate: Callable[[Array, Array], tuple[Array, Array, Array]]
    curvature_bound: float
    third_bound: float


# sup|f''| = 2 at r = 0 for the bi-weight; sup|f'''| = 4.66854 at r^2 = 1-2/sqrt(5).
BIWEIGHT = ScalarLoss("biweight", biweight_scalar, 2.0, 4.6686)
# For (sigmoid-b)^2 the exact sup|f''| is below 0.32, but 2||a||^2 is kept as
# the per-row bound; |f'''| <= 6*sup|s's''| + 2*sup|s'''| < 0.4.
NLS_LOGISTIC = ScalarLoss("nls_logistic", nls_logistic_scalar, 2.0, 0.4)

LOSSES = {loss.name: loss for loss in (BIWEIGHT, NLS_LOGISTIC)}


# Extraction levels before the residuals go to math.fsum; loss vectors need
# two or three, and any count is exact.
_EXTRACTIONS = 3


def exact_sum(x: Array) -> float:
    """Correctly rounded sum of the entries of x, bit for bit ``math.fsum``,
    without building a Python list (error-free extraction, Rump, Ogita and
    Oishi, "Accurate floating-point summation, Part I", SISC 2008).

    Each level takes 2^m >= n + 2 and sigma = 2^k > 2^m * max|r_i| (so that
    |r_i| < 2^-m sigma), sets q_i = (sigma + r_i) - sigma and r_i -= q_i, and
    sums q with ``np.sum``. With u = 2^-53 and -1021 <= k <= 1022:

    1. Every float of magnitude >= sigma/2 is normal with ulp >= u*sigma, so
       it is a multiple of u*sigma. Every multiple j*u*sigma with |j| <= 2^53
       is a float, since u*sigma >= 2^-1074 and sigma <= 2^1022.
    2. s_i = fl(sigma + r_i) lies in [sigma/2, 2 sigma], so s_i - sigma is
       exact (Sterbenz): q_i is a multiple of u*sigma. Rounding is monotone
       and sigma +- 2^-m sigma are floats (m <= 52), so |q_i| <= 2^-m sigma.
    3. r_i - q_i = (sigma + r_i) - s_i is the rounding error of one addition,
       itself a float, so r_i = q_i + r'_i exactly, with |r'_i| <= u*sigma.
    4. The sum of any subset of the q_i is a multiple of u*sigma of magnitude
       at most n 2^-m sigma < sigma, a float by (1). ``np.sum`` adds sums of
       disjoint subsets in some tree order; each addition has a float as its
       exact result, hence is exact, whatever order or blocking is used.

    So the level sums plus the final residuals add up exactly to the sum of
    x, and ``math.fsum`` of them returns its correct rounding, which is what
    ``math.fsum(x)`` returns. Neither call overflows: sum|x_i| is below the
    first sigma, each level's sum is below its sigma, which is at most half
    the previous one (m <= 51, as any array in memory has n < 2^50), and the
    last residuals add up to less than the last sigma; with sigma <= 2^1022
    all of these stay below 2^1023. No level sum is -0.0 (q_i = +0.0 when
    s_i equals sigma) and zero residuals are dropped, so an exact zero sum is
    +0.0, as fsum gives when some input is nonzero. Non-finite input, an
    all-zero input and a first sigma outside [2^-1021, 2^1022] go to
    ``math.fsum`` itself, which keeps its NaN result, its OverflowError and
    its ValueError.
    """
    x = np.asarray(x, dtype=float).ravel()
    m = (x.size + 1).bit_length()
    r, q = x, np.empty_like(x)
    sums: list[float] = []
    for level in range(_EXTRACTIONS):
        hi, lo = (float(r.max()), float(r.min())) if r.size else (0.0, 0.0)
        k = math.frexp(max(hi, -lo))[1] + m
        if not (math.isfinite(hi) and math.isfinite(lo) and (hi or lo)
                and -1021 <= k <= 1022):
            if level == 0:
                return math.fsum(x.tolist())
            break
        sigma = math.ldexp(1.0, k)
        np.add(r, sigma, out=q)
        q -= sigma
        sums.append(float(np.sum(q)))
        # The first level writes a new array, so the caller's x is untouched.
        r = np.subtract(r, q, out=None if level == 0 else r)
    return math.fsum(sums + r[r != 0].tolist())


# The d from which weighted_gram uses SYRK updates (a measured crossover,
# see its docstring), and the rows scaled per update: a block that stays in
# cache yet is long enough for BLAS to run at speed.
SYRK_MIN_DIM = 64
SYRK_BLOCK_ROWS = 1024


def weighted_gram(rows: Array, w: Array) -> Array:
    """sum_i w_i a_i a_i' over the n x d rows, exactly symmetric.

    Below ``SYRK_MIN_DIM`` columns: one GEMM of the weighted rows with the
    rows, 2 n d^2 flops, symmetrized. From there on: symmetric rank-k
    updates (BLAS ``dsyrk``), which form one triangle, of the rows scaled by
    sqrt|w_i|, using sum_i w_i a_i a_i' = sum_i |w_i| a_i a_i'
    - 2 sum_{w_i < 0} |w_i| a_i a_i'. Each block of ``SYRK_BLOCK_ROWS`` rows
    is scaled into one reused buffer, then updated with alpha = -2 over its
    negative-weight rows and alpha = +1 over all of them. That is
    (n + n_neg) d^2 flops with no n x d copy; the upper triangle is then
    mirrored. With BLAS at one thread on a 2-vCPU host and a quarter of the
    weights negative, the SYRK/GEMM time ratio was 0.82 at d = 64 and 0.69
    at d = 200 for n = 20,000, and 1.07 and 0.86 for n = 2,000.
    """
    n, d = rows.shape
    if d < SYRK_MIN_DIM:
        m = (rows * w[:, None]).T @ rows
        return 0.5 * (m + m.T)
    root = np.sqrt(np.abs(w))[:, None]
    negative = w < 0
    buffer = np.empty((min(n, SYRK_BLOCK_ROWS), d))
    upper = np.zeros((d, d), order="F")
    for lo in range(0, n, SYRK_BLOCK_ROWS):
        hi = min(n, lo + SYRK_BLOCK_ROWS)
        scaled = np.multiply(rows[lo:hi], root[lo:hi], out=buffer[:hi - lo])
        # scaled.T is the Fortran-order d x k matrix, so BLAS copies nothing.
        if negative[lo:hi].any():
            upper = dsyrk(-2.0, scaled[negative[lo:hi]].T, beta=1.0, c=upper,
                          overwrite_c=1)
        upper = dsyrk(1.0, scaled.T, beta=1.0, c=upper, overwrite_c=1)
    return np.triu(upper) + np.triu(upper, 1).T


def gram_operator(rows: Array, idx: Array | None, weights: Array,
                  slot: list | None = None, **fields) -> HessianOperator:
    """Operator of ``weighted_gram(rows[idx], weights)`` (idx None: all rows),
    formed on the first apply into the write-once list ``slot`` (a new one by
    default) and kept there, read-only: a matvec then costs d^2 flops, and an
    unapplied operator only its construction. Threads racing on the first
    apply each form the same matrix, which is harmless."""
    slot = [] if slot is None else slot

    def apply(v: Array) -> Array:
        return _formed(slot, rows, idx, weights) @ v

    return HessianOperator(apply=apply, dim=rows.shape[1], **fields)


def _formed(slot: list, rows: Array, idx: Array | None, weights: Array) -> Array:
    """The matrix in ``slot``, read-only; an empty slot first receives
    ``weighted_gram(rows[idx], weights)`` (idx None: all rows)."""
    if not slot:
        gram = weighted_gram(rows if idx is None else rows[idx], weights)
        gram.flags.writeable = False
        slot.append(gram)
    return slot[0]


@dataclass(eq=False)
class FiniteSumProblem:
    """Rows, targets, and a scalar loss, with precomputed curvature bounds.

    F, grad F and f'' share one pass over the rows per point, and the exact
    Hessian at a point is formed at most once: the last two points are kept
    (a driver's current point and its last trial), keyed on the bytes of x,
    so ``rows`` and ``targets`` must not be mutated after construction.
    """

    rows: Array
    targets: Array
    loss: ScalarLoss
    k_i: Array = field(init=False)
    k_max: float = field(init=False)
    k_hat: float = field(init=False)
    row_sq_norms: Array = field(init=False)
    # Up to two (key of x, (F, grad F, f'', Hessian slot)) entries, most
    # recent first; the tuple is replaced whole so threads can share it. The
    # slot is a write-once list for grad^2 F(x) (``gram_operator``).
    _last: tuple = field(init=False, default=(), repr=False)

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=float)
        self.targets = np.ascontiguousarray(self.targets, dtype=float)
        if self.rows.ndim != 2:
            raise ConfigurationError("rows must be an n x d matrix")
        if self.targets.shape != (self.rows.shape[0],):
            raise ConfigurationError(
                f"targets has shape {self.targets.shape}, expected ({self.rows.shape[0]},)")
        ensure_finite(self.rows, "problem rows")
        ensure_finite(self.targets, "problem targets")
        self.row_sq_norms = np.einsum("ij,ij->i", self.rows, self.rows)
        self.k_i = self.loss.curvature_bound * self.row_sq_norms
        self.k_max = float(np.max(self.k_i)) if self.k_i.size else 0.0
        self.k_hat = float(np.mean(self.k_i)) if self.k_i.size else 0.0

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def predictions(self, x: Array) -> Array:
        return self.rows @ x

    def _evaluate(self, x: Array) -> tuple[float, Array, Array, list]:
        """(F, grad F, f'', Hessian slot) at x, F exactly rounded, arrays
        read-only."""
        x = np.asarray(x)
        key = (x.dtype.str, x.shape, x.tobytes())
        last = self._last
        for i, (entry_key, evaluated) in enumerate(last):
            if entry_key == key:
                if i:
                    self._last = (last[i], last[0])
                return evaluated
        values, first, second = self.loss.evaluate(self.predictions(x), self.targets)
        f = exact_sum(values) / self.n
        grad = self.rows.T @ (first / self.n)
        grad.flags.writeable = False
        second.flags.writeable = False
        evaluated = (f, grad, second, [])
        self._last = ((key, evaluated),) + last[:1]
        return evaluated

    def value_grad(self, x: Array) -> tuple[float, Array]:
        """Exact F and grad F."""
        f, grad, _, _ = self._evaluate(x)
        return f, grad

    def second_derivatives(self, x: Array) -> Array:
        return self._evaluate(x)[2]

    def exact_hessian_operator(self, x: Array) -> HessianOperator:
        """grad^2 F, formed on first apply into x's record slot, or read from
        it; bound tightened to the value at x."""
        _, _, second, slot = self._evaluate(x)
        weights = second / self.n
        bound_at_x = float(np.sum(np.abs(weights) * self.row_sq_norms))
        return gram_operator(self.rows, None, weights, slot=slot,
                             sample_size=self.n,
                             norm_bound=min(self.k_max, bound_at_x))

    def dense_hessian(self, x: Array) -> Array:
        """Materialized grad^2 F(x), read-only: one ``weighted_gram`` over
        all rows, unless an exact operator at x already formed it."""
        _, _, second, slot = self._evaluate(x)
        return _formed(slot, self.rows, None, second / self.n)

    def hessian_lipschitz_bound(self) -> float:
        """Global (hence path) Lipschitz bound for grad^2 F from sup|f'''|."""
        row_cubes = self.row_sq_norms ** 1.5
        return self.loss.third_bound * float(np.mean(row_cubes))


class QuarticSaddle:
    """F(x, y) = x^4/4 - x^2/2 + y^2/2: strict saddle at the origin,
    minima at (+-1, 0) with F = -1/4."""

    d = 2

    def value_grad(self, x: Array) -> tuple[float, Array]:
        a, b = float(x[0]), float(x[1])
        value = a ** 4 / 4.0 - a ** 2 / 2.0 + b ** 2 / 2.0
        grad = np.array([a ** 3 - a, b])
        return value, grad

    def dense_hessian(self, x: Array) -> Array:
        return np.diag([3.0 * float(x[0]) ** 2 - 1.0, 1.0])

    def exact_hessian_operator(self, x: Array) -> HessianOperator:
        h = self.dense_hessian(x)
        bound = float(np.max(np.abs(np.diag(h))))
        return operator_from_dense(h, norm_bound=bound)

    def hessian_lipschitz_bound(self, box_radius: float) -> float:
        # |d/dx (3x^2 - 1)| = 6|x| on the box |x| <= box_radius.
        return 6.0 * box_radius


def generate_synthetic(loss: ScalarLoss | str, n: int, d: int, rng_seed: int = 0,
                       skew: float = 1.0, k_max: float | None = None,
                       noise: float = 0.1) -> FiniteSumProblem:
    """Gaussian rows with optional per-row scaling to control the K_i spread.

    ``skew`` >= 1 stretches a tail of rows by up to that factor, widening the
    K_max / K_hat gap; ``k_max`` rescales all rows so the largest per-row
    bound lands exactly there. Targets come from a planted model plus noise
    (bi-weight) or Bernoulli draws through the link (classification).
    """
    if isinstance(loss, str):
        loss = LOSSES[loss]
    if n < 1 or d < 1:
        raise ConfigurationError(f"invalid problem size n={n}, d={d}")
    if skew < 1.0:
        raise ConfigurationError("skew must be >= 1")
    rng = np.random.default_rng(rng_seed)
    rows = rng.standard_normal((n, d)) / math.sqrt(d)
    if skew > 1.0:
        scales = skew ** (rng.random(n) ** 4)
        rows *= scales[:, None]
    if k_max is not None:
        current = loss.curvature_bound * float(np.max(np.einsum("ij,ij->i", rows, rows)))
        rows *= math.sqrt(k_max / current)
    planted = rng.standard_normal(d)
    z = rows @ planted
    if loss.name == "nls_logistic":
        targets = (rng.random(n) < expit(z)).astype(float)
    else:
        targets = z + noise * rng.standard_normal(n)
    return FiniteSumProblem(rows=rows, targets=targets, loss=loss)


class DatasetError(ValueError):
    """Malformed dataset file; the message names the offending line."""


def load_dataset(path: str | Path, fmt: str = "csv",
                 loss: ScalarLoss | str = BIWEIGHT,
                 d: int | None = None) -> FiniteSumProblem:
    """Read rows/targets from disk.

    csv: one sample per line, d feature columns then the target column;
    a header line is skipped when its first field is not numeric.
    svmlight: ``target idx:val idx:val ...`` with 1-based indices; the
    dimension is max index seen unless ``d`` is given.
    """
    if isinstance(loss, str):
        loss = LOSSES[loss]
    if fmt not in ("csv", "svmlight"):
        raise ConfigurationError(f"unknown dataset format {fmt!r}")
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from None
    rows, targets = (_read_csv(path, text) if fmt == "csv"
                     else _read_svmlight(path, text, d))
    return FiniteSumProblem(rows=rows, targets=targets, loss=loss)


def _read_csv(path: Path, text: str) -> tuple[Array, Array]:
    rows: list[list[float]] = []
    targets: list[float] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if lineno == 1 and not _is_number(fields[0]):
            continue  # header
        try:
            values = [float(f) for f in fields]
        except ValueError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from None
        if len(values) < 2:
            raise DatasetError(f"{path}: line {lineno}: need features plus target")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DatasetError(
                f"{path}: line {lineno}: expected {width} fields, got {len(values)}")
        rows.append(values[:-1])
        targets.append(values[-1])
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return np.asarray(rows), np.asarray(targets)


def _read_svmlight(path: Path, text: str, d: int | None) -> tuple[Array, Array]:
    parsed: list[tuple[float, dict[int, float]]] = []
    max_idx = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        try:
            target = float(fields[0])
            feats: dict[int, float] = {}
            for token in fields[1:]:
                idx_str, val_str = token.split(":")
                idx = int(idx_str)
                if idx < 1:
                    raise ValueError(f"index {idx} is not 1-based")
                feats[idx] = float(val_str)
                max_idx = max(max_idx, idx)
        except (ValueError, IndexError) as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from None
        parsed.append((target, feats))
    if not parsed:
        raise DatasetError(f"{path}: no data rows")
    dim = d if d is not None else max_idx
    if max_idx > dim:
        raise DatasetError(f"{path}: feature index {max_idx} exceeds d={dim}")
    rows = np.zeros((len(parsed), dim))
    targets = np.zeros(len(parsed))
    for i, (target, feats) in enumerate(parsed):
        targets[i] = target
        for idx, val in feats.items():
            rows[i, idx - 1] = val
    return rows, targets


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
