"""Finite-sum objective instances with analytic derivatives and curvature bounds.

Problems have the generalized-linear form F(x) = (1/n) * sum_i f(a_i'x; b_i)
for a scalar loss f, which gives closed-form gradients, Hessians, and per-row
Hessian norm bounds K_i = sup|f''| * ||a_i||^2.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (Array, ConfigurationError, HessianOperator, NonFiniteError,
                   ensure_finite)


# Above this |r| the bi-weight is evaluated in q = 1/r. Below it every power
# of r in its formulas is finite: (1 + r^2)^3 overflows only from |r| = 2^170.
_BIWEIGHT_FAR = 2.0 ** 128


def _far(r: Array, out: Array | None = None) -> Array | None:
    """Where |r| > 2^128, or None when nowhere, as one reduction of |r| (into
    ``out``) finds. fmax passes over NaN, so a NaN residual hides no far one."""
    size = np.abs(r, out=out)
    if np.fmax.reduce(size, axis=None, initial=0.0) > _BIWEIGHT_FAR:
        return size > _BIWEIGHT_FAR
    return None


def _biweight_far(r: Array) -> tuple[Array, Array, Array]:
    """f, f' and f'' of the bi-weight at |r| > 2^128 in q = 1/r, where no power
    overflows: 1/(1+q^2), 2q^3/(1+q^2)^2 and 2q^4(q^2-3)/(1+q^2)^3. r = +-inf
    gives q = +-0 and the limits 1, 0 and 0."""
    q = 1.0 / r
    q2 = q * q
    t = 1.0 + q2
    return 1.0 / t, 2.0 * q2 * q / (t * t), 2.0 * q2 * q2 * (q2 - 3.0) / (t * t * t)


def biweight_step(z: Array, b: Array, n: int, value: Array, first: Array,
                  work: Array) -> None:
    """Bi-weight loss r^2/(1+r^2), r = z - b (bounded, non-convex), into
    ``value``, f' = 2r/(1+r^2)^2 over n into ``first``, in the formulas' order,
    and by ``_biweight_far``'s forms where |r| > 2^128."""
    r = np.subtract(z, b, out=first)
    far = _far(r, out=work)
    if far is not None:
        f, f1, _ = _biweight_far(r[far])
        biweight_step(np.where(far, 0.0, r), 0.0, n, value, first, work)
        value[far], first[far] = f, f1 / n
        return
    t = np.add(1.0, np.multiply(r, r, out=value), out=work)
    np.divide(value, t, out=value)
    np.divide(np.multiply(2.0, r, out=r), np.multiply(t, t, out=t), out=r)
    np.divide(r, n, out=r)


def biweight_second(z: Array, b: Array) -> Array:
    """f''(r) = 2(1-3r^2)/(1+r^2)^3 of the bi-weight, in [-1/2, 2], and by
    ``_biweight_far``'s form where |r| > 2^128."""
    r = np.asarray(z, dtype=float) - np.asarray(b, dtype=float)
    far = _far(r)
    if far is not None:
        return np.where(far, _biweight_far(np.where(far, r, np.inf))[2],
                        biweight_second(np.where(far, 0.0, r), 0.0))
    t = 1.0 + r * r
    return 2.0 * (1.0 - 3.0 * r * r) / (t * t * t)


def sigmoid(z: Array) -> Array:
    """1/(1 + e^-z) without overflow: with e = e^-|z| <= 1, it is 1/(1 + e)
    for z >= 0 and e/(1 + e) below, each within a few ulp of the true value."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def nls_logistic_step(z: Array, b: Array, n: int, value: Array, first: Array,
                      work: Array) -> None:
    """Least-squares loss (s - b)^2 of s = ``sigmoid(z)`` into ``value``,
    f' = 2(s - b)s' over n into ``first``, in ``sigmoid``'s and the formulas' order."""
    e = np.exp(np.negative(np.abs(z, out=value), out=value), out=value)
    np.add(1.0, e, out=work)
    np.copyto(e, 1.0, where=z >= 0)
    s = np.divide(e, work, out=value)
    sp = np.multiply(s, np.subtract(1.0, s, out=work), out=work)
    diff = np.subtract(s, b, out=value)
    np.divide(np.multiply(np.multiply(2.0, diff, out=first), sp, out=first), n, out=first)
    np.multiply(diff, diff, out=value)


def nls_logistic_second(z: Array, b: Array) -> Array:
    """f'' = 2s'^2 + 2(s - b)s'' of (s - b)^2, s = sigmoid(z)."""
    s = sigmoid(z)
    sp = s * (1.0 - s)
    return 2.0 * sp * sp + 2.0 * (s - np.asarray(b, dtype=float)) * (sp * (1.0 - 2.0 * s))


@dataclass(frozen=True)
class ScalarLoss:
    """Scalar loss with its pass step, its f'' and validated curvature bounds.

    ``step(z, b, n, value, first, work)`` writes f(z; b) into ``value`` and
    f'(z; b) / n into ``first``, ``work`` scratch, all of z's length, and
    ``second(z, b)`` is f''(z; b); both elementwise and thread-safe, as the
    pass steps each row block on its stripe. ``curvature_bound`` is sup_z
    |f''(z; b)| over admissible targets, so K_i = curvature_bound * ||a_i||^2;
    ``third_bound`` bounds |f'''| for the cubic solver's Hessian-Lipschitz
    estimate. Custom losses must supply valid bounds; they are not checked.
    ``second`` is finite wherever ``step``'s value is, and a bounded loss's
    value is finite for every finite z and b, so no finite input hands the
    curvature probe a NaN."""

    name: str
    step: Callable[[Array, Array, int, Array, Array, Array], None]
    second: Callable[[Array, Array], Array]
    curvature_bound: float
    third_bound: float


# sup|f''| = 2 at r = 0 for the bi-weight; sup|f'''| = 4.66854 at r^2 = 1-2/sqrt(5).
BIWEIGHT = ScalarLoss("biweight", biweight_step, biweight_second, 2.0, 4.6686)
# For (sigmoid-b)^2 the exact sup|f''| is below 0.32, but 2||a||^2 is kept as
# the per-row bound; |f'''| <= 6*sup|s's''| + 2*sup|s'''| < 0.4.
NLS_LOGISTIC = ScalarLoss("nls_logistic", nls_logistic_step, nls_logistic_second, 2.0, 0.4)

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


# Row blocks are dealt into this many stripes whatever the CPU count, and
# stripe results are added in stripe order: no result depends on the workers.
STRIPES = 4
# Bytes of rows per block of a pass: 2,048 rows at d = 100, 1,024 at d = 200.
# A block and its products stay in a core's 2 MiB L2 yet let BLAS run at speed.
BLOCK_BYTES = 1_638_400
_pool: tuple = ()  # (pid that made it, the helper pool or None, its helper count)
_pool_lock = threading.Lock()


def _executor() -> tuple:
    """(pool, helpers): the process's pool of min(STRIPES, CPUs) - 1 helper
    threads, made on first use and again after a fork; (None, 0) on one CPU."""
    global _pool
    with _pool_lock:
        if not _pool or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            helpers = min(STRIPES, cpus) - 1
            _pool = (os.getpid(), ThreadPoolExecutor(helpers) if helpers else None,
                     helpers)
        return _pool[1:]


def run_claimed(tasks: Sequence[Callable[[], object]],
                order: Iterable[int] | None = None) -> list:
    """[task() for task in tasks], the tasks claimed in ``order`` (by
    default task order) from one queue by the calling thread and up to
    min(len(tasks) - 1, helpers) of ``_executor``'s helpers.

    Once the queue is empty the caller cancels each helper not yet started
    and waits for the rest to finish the task they hold: a helper slow to
    wake leaves the caller more tasks, never a run slower than inline, and
    a task may call ``run_claimed`` itself. Every task runs, and the first
    exception in task order reaches the caller. One task, or one CPU,
    starts no thread.
    """
    results, failures = [None] * len(tasks), [None] * len(tasks)
    unclaimed = collections.deque(range(len(tasks)) if order is None else order)

    def work() -> None:
        while True:
            try:
                k = unclaimed.popleft()  # thread-safe
            except IndexError:  # every task is claimed
                return
            try:
                results[k] = tasks[k]()
            except BaseException as exc:  # recorded; raised on the caller below
                failures[k] = exc

    pool, helpers = _executor() if len(tasks) > 1 else (None, 0)
    futures = [pool.submit(work) for _ in range(min(helpers, len(tasks) - 1))]
    work()
    for future in futures:
        if not future.cancel():  # its helper has started: wait for its task
            future.result()
    for failure in filter(None, failures):
        raise failure
    return results


def _map_stripes(task: Callable[[int, int, int], Array], n: int, d: int) -> Array:
    """The stripe-order sum of task(lo, hi, step) over the non-empty stripes
    lo:hi of n rows of d doubles; step = max(1, BLOCK_BYTES // 8d) rows a block.

    The ceil(n / step) row blocks are dealt into ``STRIPES`` contiguous
    stripes, run by ``run_claimed``: the calling thread and up to
    len(stripes) - 1 helpers claim them from one queue, and the first
    exception in stripe order reaches the caller. One stripe runs inline
    without building the claim queue.
    """
    step = max(1, BLOCK_BYTES // (8 * d))
    blocks = -(-n // step)
    cuts = [min(n, k * blocks // STRIPES * step) for k in range(STRIPES + 1)]
    spans = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi] or [(0, n)]
    if len(spans) == 1:
        return task(*spans[0], step)
    return functools.reduce(np.add, run_claimed(
        [functools.partial(task, lo, hi, step) for lo, hi in spans]))


# The d from which weighted_gram uses SYRK updates.
SYRK_MIN_DIM = 64


def gemm_product(weighted: Array, rows: Array, out: Array | None = None) -> Array:
    """(A diag(w))' A from the weighted rows A diag(w): ``weighted_gram``'s
    one GEMM below ``SYRK_MIN_DIM``, before ``symmetrized``. ``out`` must be
    C-contiguous. ``np.dot`` releases the GIL for its GEMM, where
    ``np.matmul`` of a d x d product at d = 20 holds it, so concurrent draws
    overlap; both call the same GEMM, so the bits are the same."""
    return np.dot(weighted.T, rows, out=out)


def symmetrized(m: Array, out: Array | None = None) -> Array:
    """0.5 (M + M') of a square matrix or of each matrix of a stack;
    ``out`` must not overlap ``m``."""
    out = np.add(m, np.swapaxes(m, -1, -2), out=out)
    out *= 0.5
    return out


def weighted_gram(rows: Array, w: Array) -> Array:
    """sum_i w_i a_i a_i' over the n x d rows, exactly symmetric and read-only.

    Below ``SYRK_MIN_DIM`` columns: one GEMM of the weighted rows with the
    rows, 2 n d^2 flops, symmetrized. From there on, (n + n_neg) d^2 flops
    with no n x d copy: sum_i w_i a_i a_i' = sum_i |w_i| a_i a_i' -
    2 sum_{w_i < 0} |w_i| a_i a_i'. Each stripe of ``_map_stripes`` keeps a
    d x d sum and a block-sized buffer. Per block it compresses
    the negative-weight rows into the buffer, scales them by sqrt|w_i| and
    subtracts twice their b'b, then scales all the rows into the buffer and
    adds their b'b. numpy's ``b.T @ b`` is a SYRK that mirrors its triangle
    and releases the GIL (scipy's ``dsyrk`` holds it), so every term is
    exactly symmetric and the stripes run in parallel. On a 2-vCPU host with
    BLAS at one thread and a quarter of the weights negative, the SYRK/GEMM
    time ratio at n = 20,000 was about 0.65 at d = 64 and 0.47 at d = 200.
    """
    n, d = rows.shape
    if d < SYRK_MIN_DIM:
        gram = symmetrized(gemm_product(rows * w[:, None], rows))
        gram.flags.writeable = False
        return gram
    root = np.sqrt(np.abs(w))[:, None]
    negative = w < 0

    def stripe(lo: int, hi: int, step: int) -> Array:
        total, term = np.zeros((d, d)), np.empty((d, d))
        buffer = np.empty((min(hi - lo, step), d))
        for start in range(lo, hi, step):
            end = min(hi, start + step)
            neg = negative[start:end]
            if neg.any():
                b = np.compress(neg, rows[start:end], axis=0,
                                out=buffer[:np.count_nonzero(neg)])
                b *= root[start:end][neg]
                total -= 2.0 * np.matmul(b.T, b, out=term)
            b = np.multiply(rows[start:end], root[start:end],
                            out=buffer[:end - start])
            total += np.matmul(b.T, b, out=term)
        return total

    gram = _map_stripes(stripe, n, d)
    gram.flags.writeable = False
    return gram


def row_pass(rows: Array, weights: Array,
             index: Array | None = None) -> Callable[[Array], Array]:
    """The apply V -> sum_i w_i a_i (a_i' V) = A'(w * AV) over the rows, or
    over rows[index] with weights[j] for row index[j], as one pass of
    ``BLOCK_BYTES`` blocks on the stripes of ``_map_stripes``: never the
    d x d matrix, and bit-identical at any worker count. A sample's rows are
    gathered one block at a time inside its stripe, so no |S| x d copy is
    held. Each stripe ignores overflow, as the oracle's pass does: an inf or
    NaN reaches the callers' finiteness checks.
    """

    def apply(v: Array) -> Array:
        v = np.asarray(v, dtype=float)
        w = weights if v.ndim == 1 else weights[:, None]

        def stripe(lo: int, hi: int, step: int) -> Array:
            with np.errstate(over="ignore", invalid="ignore"):
                total = None
                for start in range(lo, hi, step):
                    end = min(hi, start + step)
                    block = rows[start:end] if index is None else rows[index[start:end]]
                    part = block.T @ ((block @ v) * w[start:end])
                    total = part if total is None else total + part
            return total

        return _map_stripes(stripe, len(weights), rows.shape[1])

    return apply


# The floor's rounding allowance, in units of (m + d^2) times u * sum_i
# |w_i| ||a_i||^2 plus d smallest subnormals, with m the rows summed.
FLOOR_ROUNDING = 8.0


def weyl_floor(weights: Array, sq_norms: Array, d: int) -> tuple[float, float]:
    """(floor, T): a certified lower bound on the smallest eigenvalue of
    H = sum_i w_i a_i a_i', and T = sum_i |w_i| ||a_i||^2, in O(m).

    With N = sum_{w_i < 0} |w_i| a_i a_i' (PSD), H + N is PSD, so Weyl's
    inequality gives lambda_min(H) >= -lambda_max(N) >= -tr N =
    -sum_{w_i < 0} |w_i| ||a_i||^2. The floor subtracts a rounding margin
    ``FLOOR_ROUNDING`` * (m + d^2) * (u T + d * 2^-1074), u = 2^-53: it
    covers the sum itself, the Gram's backward error (at most 3 (m + 2) u T
    in norm on either of ``weighted_gram``'s paths), the eigensolve's
    (a modest multiple of d u ||H||, ||H|| <= T), the row pass's Rayleigh
    quotient (about (m + 2d) u T) and underflow, so the floor stays below
    both the formed matrix's computed bottom eigenvalue and the probe's
    Rayleigh quotient. A floor that is not finite is -inf, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(weights) * sq_norms
        total = float(np.sum(terms))
        negative = float(np.sum(terms[weights < 0]))
        count = weights.shape[0] + d * d
        floor = -(negative + FLOOR_ROUNDING * count
                  * (2.0 ** -53 * total + d * 2.0 ** -1074))
    return (floor if math.isfinite(floor) else -math.inf), total


def _second(loss: ScalarLoss, z: Array, b: Array) -> Array:
    """loss.second(z, b), read-only, any overflow left as inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        second = loss.second(z, b)
    second.flags.writeable = False
    return second


@dataclass(eq=False)
class FiniteSumProblem:
    """Rows, targets, and a scalar loss, with precomputed curvature bounds.

    F and grad F share one pass over the rows per point, which keeps z = Ax
    for f'' on the rows a Hessian reads; f'' of all rows and the exact Hessian
    are formed at most once a point: the last two points are kept (a driver's
    current point and its last trial), keyed on the bytes of x, so ``rows``
    and ``targets`` must not be mutated after construction.
    """

    rows: Array
    targets: Array
    loss: ScalarLoss
    k_max: float = field(init=False)
    k_hat: float = field(init=False)
    row_sq_norms: Array = field(init=False)
    # Up to two (key of x, (F, grad F, z, cached f'', cached grad^2 F)) entries,
    # most recent first; the tuple is replaced whole so threads can share it.
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
        with np.errstate(over="ignore"):
            self.row_sq_norms = np.einsum("ij,ij->i", self.rows, self.rows)
            k_i = self.loss.curvature_bound * self.row_sq_norms
            self.k_max = float(np.max(k_i)) if k_i.size else 0.0
            self.k_hat = float(np.mean(k_i)) if k_i.size else 0.0
        if not math.isfinite(self.k_hat):
            raise ConfigurationError(f"the curvature bounds sup|f''| * ||a_i||^2 overflow "
                                     f"(the largest at row {int(np.argmax(k_i))})")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def predictions(self, x: Array) -> Array:
        return self.rows @ x

    def _evaluate(self, x: Array) -> tuple[float, Array, Array, Callable, Callable]:
        """(F, grad F, z = Ax, the cached f'' of all rows, the cached form of
        grad^2 F) at x, F exactly rounded, arrays read-only."""
        x = np.asarray(x)
        key = (x.dtype.str, x.shape, x.tobytes())
        last = self._last
        for i, (entry_key, evaluated) in enumerate(last):
            if entry_key == key:
                if i:
                    self._last = (last[i], last[0])
                return evaluated
        # Closed over arrays, not self: a cycle through the record would keep
        # every formed Hessian alive until the cyclic collector runs.
        rows, targets, loss, n = self.rows, self.targets, self.loss, self.n
        values, z = np.empty(n), np.empty(n)

        def stripe(lo: int, hi: int, step: int) -> Array:
            first, work = np.empty((2, min(hi - lo, step)))
            # numpy's error state is per thread, so the pass sets its own: an
            # overflow leaves inf or NaN for the callers' finiteness checks.
            with np.errstate(over="ignore", invalid="ignore"):
                grad = None
                for start in range(lo, hi, step):
                    end = min(hi, start + step)
                    block = rows[start:end]
                    loss.step(np.matmul(block, x, out=z[start:end]), targets[start:end],
                              n, values[start:end], first[:end - start], work[:end - start])
                    part = block.T @ first[:end - start]
                    grad = part if grad is None else grad + part
            return grad

        grad = _map_stripes(stripe, n, self.d)
        f = exact_sum(values) / n
        grad.flags.writeable = z.flags.writeable = False
        second = functools.cache(lambda: _second(loss, z, targets))
        hessian = functools.cache(lambda: weighted_gram(rows, second() / n))
        evaluated = (f, grad, z, second, hessian)
        self._last = ((key, evaluated),) + last[:1]
        return evaluated

    def value_grad(self, x: Array) -> tuple[float, Array]:
        """Exact F and grad F."""
        return self._evaluate(x)[:2]

    def second_derivatives(self, x: Array, index: Array | None = None) -> Array:
        """f'' at x of every row, cached on x's record entry, or of the rows
        ``index`` lists only, evaluated there from the entry's z."""
        _, _, z, second, _ = self._evaluate(x)
        return second() if index is None else _second(self.loss, z[index], self.targets[index])

    def exact_hessian_operator(self, x: Array) -> HessianOperator:
        """grad^2 F with the form in x's record entry, shared with
        ``dense_hessian(x)``, applied by a row pass over all n rows; bound
        tightened to the value at x, and floored by ``weyl_floor``."""
        _, _, _, second, hessian = self._evaluate(x)
        weights = second() / self.n
        floor, bound_at_x = weyl_floor(weights, self.row_sq_norms, self.d)
        return HessianOperator(form=hessian, sample_size=self.n,
                               norm_bound=min(self.k_max, bound_at_x),
                               apply=row_pass(self.rows, weights),
                               lambda_floor=floor)

    def dense_hessian(self, x: Array) -> Array:
        """Materialized grad^2 F(x), read-only: one ``weighted_gram`` over
        all rows, unless an exact operator at x already formed it."""
        return self._evaluate(x)[4]()

    def hessian_lipschitz_bound(self) -> float:
        """Global (hence path) Lipschitz bound for grad^2 F from sup|f'''|."""
        with np.errstate(over="ignore"):
            bound = self.loss.third_bound * float(np.mean(self.row_sq_norms ** 1.5))
        if not math.isfinite(bound):
            raise ConfigurationError(
                "the Hessian-Lipschitz bound sup|f'''| * mean ||a_i||^3 overflows")
        return bound


class QuarticSaddle:
    """F(x, y) = x^4/4 - x^2/2 + y^2/2: strict saddle at the origin,
    minima at (+-1, 0) with F = -1/4."""

    d = 2

    def value_grad(self, x: Array) -> tuple[float, Array]:
        a, b = float(x[0]), float(x[1])
        try:
            value = a ** 4 / 4.0 - a ** 2 / 2.0 + b ** 2 / 2.0
            grad = np.array([a ** 3 - a, b])
        except OverflowError:
            raise OverflowError(f"the quartic objective overflows at "
                                f"x=({a!r}, {b!r})") from None
        return value, grad

    def dense_hessian(self, x: Array) -> Array:
        return np.diag([3.0 * float(x[0]) ** 2 - 1.0, 1.0])

    def exact_hessian_operator(self, x: Array) -> HessianOperator:
        h = self.dense_hessian(x)
        h.flags.writeable = False
        return HessianOperator(form=lambda: h,
                               norm_bound=float(np.max(np.abs(np.diag(h)))))

    def hessian_lipschitz_bound(self) -> float:
        # |d/dx (3x^2 - 1)| = 6|x| on the box |x| <= 4. Iterates with
        # F <= F(0,0) stay inside |x| <= sqrt(2); the box is padded for
        # trial points.
        return 24.0


def _check_allocatable(n: int, d: int) -> None:
    """Refuse, before any is drawn or read, n x d rows or a d x d Hessian
    that cannot be allocated."""
    try:  # the larger of the two
        np.empty((max(n, d), d))
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise ConfigurationError(f"n={n}, d={d} makes the rows or the Hessian "
                                 f"too large to allocate") from None


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
    if not (1.0 <= skew < math.inf):
        raise ConfigurationError(f"skew must be finite and >= 1, got {skew}")
    if k_max is not None and not (0.0 < k_max < math.inf):
        raise ConfigurationError(f"k_max must be positive and finite, got {k_max}")
    if not (0.0 <= noise < math.inf):
        raise ConfigurationError(f"noise must be nonnegative and finite, got {noise}")
    _check_allocatable(n, d)
    rng = np.random.default_rng(rng_seed)
    # An overflow leaves inf or NaN, refused below with the settings.
    with np.errstate(over="ignore", invalid="ignore"):
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
            targets = (rng.random(n) < sigmoid(z)).astype(float)
        else:
            targets = z + noise * rng.standard_normal(n)
    try:
        return FiniteSumProblem(rows=rows, targets=targets, loss=loss)
    except NonFiniteError as exc:
        raise ConfigurationError(f"{exc}: the synthetic data overflow at skew={skew}, "
                                 f"k_max={k_max}, noise={noise}") from None


class DatasetError(ValueError):
    """Malformed dataset file; the message names the offending line."""


def load_dataset(path: str | Path, fmt: str = "csv",
                 loss: ScalarLoss | str = BIWEIGHT) -> FiniteSumProblem:
    """Read rows/targets from disk.

    csv: one sample per line, d feature columns then the target column;
    a header line is skipped when its first field is not numeric.
    svmlight: ``target idx:val idx:val ...`` with 1-based indices; the
    dimension is the largest index seen, refused (with its line) when the
    n x d rows or the d x d Hessian cannot be allocated.
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
    csv = fmt == "csv"
    targets: list[float] = []
    features: list[dict[int, float]] = []
    d = d_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split(",") if csv else line.split()
        if not line.strip() or (csv and lineno == 1 and not _is_number(fields[0])):
            continue  # a blank line, or the csv header
        try:
            target, row = _csv_row(fields, features) if csv else _svmlight_row(fields)
        except ValueError as exc:
            raise DatasetError(f"{path}: line {lineno}: {exc}") from None
        targets.append(target)
        features.append(row)
        if max(row, default=0) > d:
            d, d_line = max(row), lineno
    if not d:
        raise DatasetError(f"{path}: no {'features' if targets else 'data rows'}")
    try:
        _check_allocatable(len(features), d)
    except ConfigurationError:
        raise DatasetError(f"{path}: line {d_line}: index {d} makes the rows or "
                           f"the Hessian too large to allocate") from None
    rows = np.zeros((len(features), d))
    for i, row in enumerate(features):
        rows[i, [idx - 1 for idx in row]] = list(row.values())
    try:
        return FiniteSumProblem(rows=rows, targets=np.asarray(targets), loss=loss)
    except ConfigurationError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _csv_row(fields: list[str], earlier: list[dict[int, float]]
             ) -> tuple[float, dict[int, float]]:
    values = [_finite_number(f) for f in fields]
    if len(values) < 2:
        raise ValueError("need features plus target")
    if earlier and len(values) != len(earlier[0]) + 1:
        raise ValueError(f"expected {len(earlier[0]) + 1} fields, got {len(values)}")
    return values[-1], dict(enumerate(values[:-1], start=1))


def _svmlight_row(fields: list[str]) -> tuple[float, dict[int, float]]:
    target = _finite_number(fields[0])
    row: dict[int, float] = {}
    for token in fields[1:]:
        idx_str, val_str = token.split(":")
        idx = int(idx_str)
        if idx < 1:
            raise ValueError(f"index {idx} is not 1-based")
        if idx in row:
            raise ValueError(f"index {idx} repeated")
        row[idx] = _finite_number(val_str)
    return target, row


def _finite_number(token: str) -> float:
    """The value of a dataset field; NaN, infinities and overflow refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token.strip()!r}")
    return value


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
