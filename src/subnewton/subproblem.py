"""Sub-problem solvers with machine-checkable descent certificates.

Two models: the trust-region quadratic restricted to a ball, and the
cubic-regularized quadratic on all of R^d. Each owns its decrease bounds and
Eigen step length, reads as a cubic model on a ball (sigma None, or radius
inf) and computes ||g||, Hg, <g,Hg> and its Cauchy step and bound once. So one
Cauchy point (the exact 1-D minimizer along -g), one Eigen point (along a
certified negative-curvature direction), one ``subspace_solve`` and one
``certificates`` serve both, and one ``model_step`` is the step of both
drivers: ``subspace_solve`` seeded with the Cauchy and Eigen points, which
solves exactly on their span plus Hg or, given zeta, grows a Krylov space
until the model-gradient inexactness test holds. Each basis vector carries
its H-image, built from its seed's when held (the Cauchy point's -alpha*Hg,
the Eigen point's a*H(uhat)), so a step's m(s) and model gradient read
Hs = (HU)v.
``certificates`` recomputes a solution's certificates from (model, step) plus
the recorded seed curvature alone; the Eigen certificates are stated with the
realized curvature nu_hat = -<u,Hu>/||u||^2, which is assertable exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Array, CertificateError, HessianOperator, NonFiniteError

logger = logging.getLogger(__name__)

# Inequalities count as met with this much slack allowance, relative to the
# magnitude of the required decrease.
CERT_RTOL = 1e-9
# Relative threshold below which a basis vector is dropped as dependent.
BASIS_DROP_TOL = 1e-12
# A held image gives its basis vector's image by differences that lose about
# log10(||raw|| / ||w||) digits; below this ratio H is applied instead.
HELD_IMAGE_MIN_RESIDUAL = 1e-4
# Secular iterations on the reduced problems run to this tolerance, relative
# to the target step norm, and raise after this many steps; the reduced
# dimension is tiny, so robustness beats speed.
SECULAR_TOL = 1e-10
SECULAR_MAX_ITERS = 400


@dataclass(frozen=True)
class _Model:
    """The gradient g and Hessian H both models share, with the quantities
    of g that the seeds and certificates read, each computed once."""

    grad: Array
    hessian: HessianOperator

    def value(self, s: Array, hs: Array) -> float:
        """m(s), given the product hs = Hs the caller already holds."""
        return float(self.grad @ s + 0.5 * (s @ hs))

    @cached_property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.grad))

    @cached_property
    def hg(self) -> Array:
        return self.hessian.apply(self.grad)

    @cached_property
    def ghg(self) -> float:
        return float(self.grad @ self.hg)


@dataclass(frozen=True)
class TRModel(_Model):
    """Quadratic model <s,g> + 0.5*<s,Hs> trusted on the ball ||s|| <= radius,
    with Algorithm 1's decrease bounds and Eigen step."""

    radius: float

    sigma = None  # no cubic term

    def __post_init__(self) -> None:
        _check_model(self.grad, "trust radius", self.radius)

    @cached_property
    def cauchy_alpha(self) -> float:
        """tau*radius/||g||: -alpha*g minimizes the model along -g within the
        ball, at tau = 1 unless <g,Hg> > 0 puts the minimizer inside."""
        gn, ghg = self.grad_norm, self.ghg
        tau = 1.0 if ghg <= 0.0 else min(gn ** 3 / (self.radius * ghg), 1.0)
        return tau * self.radius / gn

    @cached_property
    def cauchy_required(self) -> float:
        """Sufficient decrease demanded of the Cauchy point, with ||H|| relaxed
        to its upper bound K_H (the inequality chain only loosens)."""
        gn = self.grad_norm
        return 0.5 * gn * min(gn / (1.0 + self.hessian.norm_bound), self.radius)

    def eigen_required(self, nu_hat: float, eigen_norm: float) -> float:
        return 0.5 * nu_hat * self.radius ** 2

    def eigen_length(self, b: float, c: float) -> float:
        """The radius, signed so that <grad, s> <= 0."""
        return -self.radius if b > 0.0 else self.radius


@dataclass(frozen=True)
class CubicModel(_Model):
    """Cubic model <s,g> + 0.5*<s,Hs> + (sigma/3)*||s||^3 on all of R^d,
    with Algorithm 2's decrease bounds and Eigen step."""

    sigma: float

    radius = math.inf  # no trust region

    def __post_init__(self) -> None:
        _check_model(self.grad, "sigma", self.sigma)

    def value(self, s: Array, hs: Array) -> float:
        return super().value(s, hs) + self.sigma / 3.0 * float(np.linalg.norm(s)) ** 3

    def gradient(self, s: Array, hs: Array | None = None) -> Array:
        """grad m(s) = g + Hs + sigma*||s||*s, given Hs when already held."""
        hs = self.hessian.apply(s) if hs is None else hs
        return self.grad + hs + self.sigma * float(np.linalg.norm(s)) * s

    @cached_property
    def cauchy_alpha(self) -> float:
        """Nonnegative root of sigma*||g||^3*a^2 + <g,Hg>*a - ||g||^2 = 0, the
        Cauchy step size; the conjugate form when <g,Hg> > 0 avoids cancellation."""
        gn, ghg = self.grad_norm, self.ghg
        disc = math.sqrt(ghg * ghg + 4.0 * self.sigma * gn ** 5)
        if ghg > 0.0:
            return 2.0 * gn * gn / (ghg + disc)
        return (-ghg + disc) / (2.0 * self.sigma * gn ** 3)

    @cached_property
    def cauchy_required(self) -> float:
        """Larger of the two Cauchy decrease bounds; the step-norm-dependent one
        is evaluated at the Cauchy point itself (its norm is model-derivable)."""
        gn = self.grad_norm
        if gn == 0.0:
            return 0.0
        k = self.hessian.norm_bound
        sc_norm = self.cauchy_alpha * gn
        surd = _sqrt_shift(k, 4.0 * self.sigma * gn)
        try:
            bound_norm = sc_norm ** 2 / 12.0 * surd
        except OverflowError:
            raise OverflowError(f"the ARC Cauchy decrease bound overflows: "
                                f"||s_c||={sc_norm!r}, sigma={self.sigma!r}") from None
        lin = gn / k if k > 0.0 else math.inf
        bound_grad = gn / (2.0 * math.sqrt(3.0)) * min(lin, math.sqrt(gn / self.sigma))
        return max(bound_norm, bound_grad)

    def eigen_required(self, nu_hat: float, eigen_norm: float) -> float:
        try:
            return nu_hat / 6.0 * max(eigen_norm ** 2, nu_hat ** 2 / self.sigma ** 2)
        except OverflowError:
            raise OverflowError(f"the ARC Eigen decrease bound overflows: "
                                f"||s_e||={eigen_norm!r}, sigma={self.sigma!r}") from None

    def eigen_length(self, b: float, c: float) -> float:
        """Global minimizer of b*a + (c/2)*a^2 + (sigma/3)*|a|^3 for c < 0, on
        the half-line opposite b (a > 0 at the tie b = 0), at |a| =
        (sqrt(c^2 + 4*sigma*|b|) - c) / (2*sigma) (Cartis, Gould and Toint 2011)."""
        q = 0.5 * (math.sqrt(c * c + 4.0 * self.sigma * abs(b)) - c)
        return q / self.sigma if b <= 0.0 else q / -self.sigma


def _check_model(grad: Array, name: str, value: float) -> None:
    if not (value > 0.0 and np.isfinite(value)):
        raise CertificateError(f"{name} must be positive, got {value}")
    if not np.all(np.isfinite(grad)):
        raise CertificateError("model gradient must be finite")


def _sqrt_shift(k: float, x: float) -> float:
    """sqrt(k^2 + x) - k without cancellation for k >= 0, x >= 0."""
    return x / (math.sqrt(k * k + x) + k) if x > 0.0 else 0.0


@dataclass(frozen=True)
class Certificates:
    """Flags plus numeric slack (achieved - required) for each inequality.

    ``nu_hat`` is the realized curvature of the negative-curvature seed and
    ``eigen_norm`` the seed step length; both are recorded so the Eigen
    inequality can be recomputed verbatim by an external checker.
    """

    cauchy_met: bool | None = None
    cauchy_slack: float | None = None
    eigen_met: bool | None = None
    eigen_slack: float | None = None
    cond5_met: bool | None = None
    cond5_slack: float | None = None
    nu_hat: float | None = None
    eigen_norm: float | None = None


@dataclass(frozen=True)
class SubproblemSolution:
    step: Array
    model_value: float
    certificates: Certificates
    hs: Array | None = None  # H step, which m(s) read

    def __post_init__(self) -> None:
        _check_finite(self.model_value, self.step)
        if not self.model_value < 0.0:
            raise CertificateError(
                f"sub-problem solutions must strictly decrease the model, "
                f"got m(s)={self.model_value}")


def _check_finite(value: float, step: Array) -> None:
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(step))
    if not (math.isfinite(value) and math.isfinite(norm)):
        raise NonFiniteError(f"non-finite sub-problem solution: m(s)={value}, ||s||={norm}")


def _solution(model: TRModel | CubicModel, step: Array, hs: Array,
              **seed) -> SubproblemSolution:
    """The step with its model value and certificates, from the step's Hs;
    an overflowing m(s) or ||s|| raises ``NonFiniteError`` first, not a
    RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = model.value(step, hs)
    _check_finite(value, step)
    return SubproblemSolution(step, value,
                              _certificates(model, step, value, hs, **seed), hs)


def certificates(model: TRModel | CubicModel, step: Array,
                 nu_hat: float | None = None, eigen_norm: float | None = None,
                 zeta: float | None = None) -> Certificates:
    """Recompute the descent certificates of an arbitrary step: the model's
    Cauchy decrease; its Eigen decrease, given the seed's curvature and step
    length; and, given zeta, the cubic model-gradient test (cond5)."""
    hs = model.hessian.apply(step)
    return _certificates(model, step, model.value(step, hs), hs, nu_hat,
                         eigen_norm, zeta)


def _certificates(model: TRModel | CubicModel, step: Array, value: float,
                  hs: Array, nu_hat=None, eigen_norm=None,
                  zeta=None) -> Certificates:
    """``certificates``, given the step's model value m(s) and its Hs."""
    if float(np.linalg.norm(step)) > model.radius * (1.0 + 1e-12):
        raise CertificateError("trust-region step exceeds the radius")
    achieved = -value
    cauchy_met, cauchy_slack = _met(achieved, model.cauchy_required)
    eigen_met = eigen_slack = None
    if nu_hat is not None:
        eigen_met, eigen_slack = _met(achieved, model.eigen_required(nu_hat, eigen_norm))
    cond5_met = cond5_slack = None
    if zeta is not None:
        grad_norm = float(np.linalg.norm(model.gradient(step, hs)))
        sn = float(np.linalg.norm(step))
        bound = zeta * max(sn ** 2, min(1.0, sn) * model.grad_norm)
        cond5_slack = bound - grad_norm
        cond5_met = cond5_slack >= -CERT_RTOL * max(1.0, bound)
    return Certificates(cauchy_met=cauchy_met, cauchy_slack=cauchy_slack,
                        eigen_met=eigen_met, eigen_slack=eigen_slack,
                        cond5_met=cond5_met, cond5_slack=cond5_slack,
                        nu_hat=nu_hat, eigen_norm=eigen_norm)


def _met(achieved: float, required: float) -> tuple[bool, float]:
    slack = achieved - required
    return slack >= -CERT_RTOL * max(1.0, abs(required)), slack


def cauchy_point(model: TRModel | CubicModel) -> SubproblemSolution:
    """Exact minimizer of the model along -grad: within the ball, or along
    the whole ray for the cubic model."""
    if model.grad_norm == 0.0:
        raise ValueError("Cauchy point undefined for zero gradient; the driver "
                         "must test first-order optimality first")
    alpha = model.cauchy_alpha
    with np.errstate(over="ignore", invalid="ignore"):
        step, hs = -alpha * model.grad, -alpha * model.hg
    return _solution(model, step, hs)


def eigen_point(model: TRModel | CubicModel, u: Array) -> SubproblemSolution:
    """The step a * uhat along a nonzero u of negative curvature, uhat =
    u/||u||, with c = <uhat, H uhat> = -nu_hat (one apply), b = <grad, uhat>
    and a = model.eigen_length(b, c): the radius for the trust-region model,
    the 1-D cubic's global minimizer for the cubic one, signed so
    <grad, s> <= 0. Its m(s) reads Hs = a * H uhat, and the certificate uses
    the realized curvature."""
    un = float(np.linalg.norm(u))
    if un == 0.0:
        raise CertificateError("eigen direction must be nonzero")
    uhat = u / un
    hu = model.hessian.apply(uhat)
    c = float(uhat @ hu)
    if c >= 0.0:
        raise CertificateError(
            f"eigen direction must carry negative curvature, got <u,Hu>={c}")
    a = model.eigen_length(float(model.grad @ uhat), c)
    step = a * uhat
    with np.errstate(over="ignore", invalid="ignore"):
        eigen_norm = float(np.linalg.norm(step))
        hs = a * hu
    return _solution(model, step, hs, nu_hat=-c, eigen_norm=eigen_norm)


def model_step(model: TRModel | CubicModel, direction: Array | None = None,
               zeta: float | None = None) -> SubproblemSolution:
    """The step of Algorithms 1 and 2: one ``subspace_solve`` seeded with the
    Cauchy point and, given a negative-curvature ``direction``, the Eigen
    point, each with its Hs, so the step dominates both in model value. The
    Eigen seed joins whenever it exists (ties between the seed points
    resolve toward it, escaping saddles), and its curvature and step length
    enter the Eigen certificate. Without zeta, Hg is appended as a seed with
    no held image; given zeta, the span grows until cond5 holds."""
    points = [cauchy_point(model)] if model.grad_norm > 0.0 else []
    seed = {}
    if direction is not None:
        eigen = eigen_point(model, direction)
        points.append(eigen)
        seed = dict(nu_hat=eigen.certificates.nu_hat,
                    eigen_norm=eigen.certificates.eigen_norm)
    seeds, images = [p.step for p in points], [p.hs for p in points]
    if model.grad_norm > 0.0 and zeta is None:
        seeds.append(model.hg)
        images.append(None)
    return subspace_solve(model, seeds, images, zeta=zeta, **seed)


def subspace_solve(model: TRModel | CubicModel, seeds: Sequence[Array],
                   images: Sequence[Array | None] | None = None,
                   nu_hat: float | None = None, eigen_norm: float | None = None,
                   zeta: float | None = None) -> SubproblemSolution:
    """Exact solve of the model on the span of ``seeds``, where ``images[i]``
    is H seeds[i], or None when it is not held (all None by default).

    The seeds are orthonormalized (near-dependent directions dropped at
    relative tolerance 1e-12), each basis vector's H-image is built from
    its seed's (``_extend_basis``), and the reduced problem is solved through
    the secular equation on its eigendecomposition (``_reduced_exact``), hard
    case included. Because minimization runs over a superset of the seed
    directions, the solution dominates every seed in model value.

    Given ``zeta``, the span grows and is re-solved until the
    model-gradient test

        ||grad m(s)|| <= zeta * max(||s||^2, min(1, ||s||) * ||grad||)

    holds, or the dimension cap min(d, 50) is reached; then the solution on
    the last span, which contains every earlier one, is returned flagged
    cond5_met=False, and a warning is logged. The span grows first by Hg,
    then by the image of its newest column, one one-column apply each: the
    Krylov space {g, Hg, H^2 g, ...} over seeds along g or along
    eigenvectors of H, as the Cauchy and Eigen seeds are.
    """
    if zeta is not None and not (0.0 < zeta < 1.0):
        raise CertificateError(f"zeta must lie in (0, 1), got {zeta}")
    cols: list[Array] = []
    hcols: list[Array] = []
    for raw, image in zip(seeds, images or [None] * len(seeds), strict=True):
        _extend_basis(model, cols, hcols, raw, image)
    krylov = None  # what the span grows by next
    if zeta is not None and model.grad_norm > 0.0:
        _extend_basis(model, cols, hcols, model.grad, model.hg)
        krylov = model.hg
    if not cols:
        raise CertificateError("basis is empty after dropping dependent directions")
    while True:
        # Reduce by U and HU, solve, and lift s = Uv back, with Hs = (HU)v.
        u_mat, hu = np.column_stack(cols), np.column_stack(hcols)
        reduced_h = u_mat.T @ hu
        v = _reduced_exact(u_mat.T @ model.grad, 0.5 * (reduced_h + reduced_h.T),
                           model.radius, model.sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            step, hs = u_mat @ v, hu @ v
        sol = _solution(model, step, hs, nu_hat=nu_hat, eigen_norm=eigen_norm, zeta=zeta)
        if zeta is None or sol.certificates.cond5_met:
            return sol
        if krylov is None or len(cols) >= min(model.grad.shape[0], 50):
            break
        if not _extend_basis(model, cols, hcols, krylov, None):
            break  # Krylov chain saturated; the span cannot grow further.
        krylov = hcols[-1]
    logger.warning("model-gradient test (cond5) unmet on a %d-dimensional search "
                   "space; returning its best step, m(s) = %r",
                   len(cols), sol.model_value)
    return sol


# The per-model names perfbench/tracing.py wraps.
tr_cauchy_point = arc_cauchy_point = cauchy_point
tr_eigen_point = arc_eigen_point = eigen_point
tr_subspace_solve = arc_subspace_solve = arc_progressive_solve = subspace_solve


# ---------------------------------------------------------------------------
# Exact solve on a subspace
# ---------------------------------------------------------------------------

def _extend_basis(model: TRModel | CubicModel, cols: list[Array],
                  hcols: list[Array], raw: Array, image: Array | None) -> bool:
    """Append the unit part q of ``raw`` orthogonal to ``cols`` (modified
    Gram-Schmidt, two passes) to ``cols``, and Hq to ``hcols``, unless raw
    is dependent at relative tolerance ``BASIS_DROP_TOL``; return whether it
    was appended. Given ``image`` = H raw, Hq is formed from it and
    ``hcols`` by the same steps, unless raw's residual is below
    ``HELD_IMAGE_MIN_RESIDUAL`` of its norm; otherwise it is one apply."""
    dim = model.grad.shape[0]
    b = np.asarray(raw, dtype=float)
    if b.shape != (dim,):
        raise CertificateError(f"basis vector of shape {b.shape}, expected ({dim},)")
    norm0 = float(np.linalg.norm(b))
    if norm0 == 0.0:
        return False
    w = b.copy()
    hw = None if image is None else np.array(image, dtype=float)
    for _ in range(2):
        for q, hq in zip(cols, hcols):
            c = q @ w
            w -= c * q
            if hw is not None:
                hw -= c * hq
    wn = float(np.linalg.norm(w))
    if wn <= BASIS_DROP_TOL * norm0:
        return False
    cols.append(w / wn)
    held = hw is not None and wn >= HELD_IMAGE_MIN_RESIDUAL * norm0
    hcols.append(hw / wn if held else model.hessian.apply(cols[-1]))
    return True


def _reduced_exact(g: Array, h: Array, radius: float,
                   sigma: float | None) -> Array:
    """Global minimizer of <g,v> + 0.5*<v,Hv> on ||v|| <= radius, or of
    <g,v> + 0.5*<v,Hv> + (sigma/3)*||v||^3 (radius inf), for a small dense H.

    Both are v = -(H + lam*I)^+ g with H + lam*I psd; only the norm relation
    differs: lam*(||v|| - radius) = 0 (More-Sorensen 1983) or lam = sigma*||v||
    (Cartis-Gould-Toint 2011). The secular search runs over the shift
    d = lam - lo past the pole lo = max(0, -lam_min), so each denominator is
    (lam_i + lo) + d and the bottom one is exactly d. If the root lies within
    eps of the pole (the hard case, g orthogonal or nearly orthogonal to the
    bottom eigenspace), the step is the off-bottom part plus a fill along the
    bottom eigenspace up to the target norm, signed against g.
    """
    lam, q = np.linalg.eigh(h)
    gq = q.T @ g
    gn = float(np.linalg.norm(gq))
    # target(lam) is the step norm the relation asks for; at d = hi the step
    # norm is at most gn / hi, half the target or less, so hi brackets.
    if sigma is None:
        target, hi = (lambda m: radius), 2.0 * gn / radius
    else:
        target, hi = (lambda m: m / sigma), 2.0 * math.sqrt(sigma * gn)
    lo = max(0.0, -lam[0])
    base = lam + lo  # >= 0, and exactly 0 at the bottom when lam[0] <= 0
    scale = max(1.0, float(np.max(np.abs(lam))))

    def gap(d: float) -> float:
        return float(np.linalg.norm(gq / (base + d))) - target(lo + d)

    # With H positive definite, d = 0 (lam = 0) is admissible; otherwise the
    # search starts eps past the pole.
    a = 0.0 if lam[0] > 0.0 else 1e-14 * scale
    pinned = gap(a) <= 0.0
    d = a if pinned else _secular_root(
        gap, a, hi, lambda x: SECULAR_TOL * target(lo + x))
    v = -gq / (base + d)
    if pinned and lam[0] <= 0.0:
        bottom = base <= 1e-12 * scale
        v[bottom] = 0.0
        # sqrt(t^2 - ||v||^2) as t * sqrt(1 - r^2), r = ||v||/t: t^2 itself
        # overflows for t near 1e300, and r <= 1 up to rounding when pinned.
        t = target(lo + d)
        r = min(float(np.linalg.norm(v)) / t, 1.0)
        fill = t * math.sqrt(1.0 - r * r)
        gb = gq[bottom]
        gbn = float(np.linalg.norm(gb))
        if gbn > 0.0:
            v[bottom] = -fill * (gb / gbn)
        else:
            v[0] = fill
    with np.errstate(over="ignore"):
        vn = float(np.linalg.norm(v))
    if radius < vn < math.inf:
        # The secular iteration stops within its tolerance, possibly a hair
        # outside the ball; project back so feasibility is unconditional. A
        # norm that overflows is left for the solution's finiteness check.
        v *= radius / vn
    return q @ v


def _secular_root(f, a: float, b: float, tol) -> float:
    """Root of a decreasing secular function with f(a) > 0 >= f(b).

    Regula falsi, accepted only well inside the bracket and only after a step
    that halved it; otherwise bisection, so the bracket at least halves every
    second step. Stops once |f(x)| <= tol(x) or no float is left inside the
    bracket; raises ``CertificateError`` at the iteration cap.
    """
    fa, fb = f(a), f(b)
    halved = True
    for _ in range(SECULAR_MAX_ITERS):
        width = b - a
        mid = 0.5 * (a + b)
        if halved:
            sec = (a * fb - b * fa) / (fb - fa)
            if a + 0.05 * width < sec < b - 0.05 * width:
                mid = sec
        if not a < mid < b:
            return b
        fm = f(mid)
        if abs(fm) <= tol(mid):
            return mid
        if fm > 0.0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        halved = b - a <= 0.5 * width
    raise CertificateError(
        f"secular iteration hit its cap of {SECULAR_MAX_ITERS} steps "
        f"with bracket [{a!r}, {b!r}]")
