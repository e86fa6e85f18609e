"""Sub-problem solvers with machine-checkable descent certificates.

Two model families: the trust-region quadratic restricted to a ball, and the
cubic-regularized quadratic on all of R^d. For each we provide the exact 1-D
minimizer along the negative gradient (Cauchy point), the exact 1-D minimizer
along a certified negative-curvature direction (Eigen point), an exact solver
on a small orthonormalized subspace, and (cubic only) a progressive Krylov
solver that stops once the model-gradient inexactness test holds.

Every returned solution carries certificates whose inequalities can be
recomputed from (model, step) plus the recorded seed curvature alone; the
Eigen certificates are stated with the realized curvature
nu_hat = -<u,Hu>/||u||^2, which is assertable exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Array, CertificateError, HessianOperator, NonFiniteError

logger = logging.getLogger(__name__)

# Inequalities count as met with this much slack allowance, relative to the
# magnitude of the required decrease.
CERT_RTOL = 1e-9
# Relative threshold below which a basis vector is dropped as dependent.
BASIS_DROP_TOL = 1e-12
# Secular iterations on the reduced problems run to this tolerance, relative
# to the target step norm, and raise after this many steps; the reduced
# dimension is tiny, so robustness beats speed.
SECULAR_TOL = 1e-10
SECULAR_MAX_ITERS = 400


@dataclass(frozen=True)
class TRModel:
    """Quadratic model <s,g> + 0.5*<s,Hs> trusted on the ball ||s|| <= radius."""

    grad: Array
    hessian: HessianOperator
    radius: float

    def __post_init__(self) -> None:
        _check_model(self.grad, "trust radius", self.radius)

    def value(self, s: Array) -> float:
        return float(self.grad @ s + 0.5 * (s @ self.hessian.apply(s)))

    def _solution(self, step: Array, **seed) -> SubproblemSolution:
        """The step with its model value and recomputed certificates."""
        return SubproblemSolution(step=step, model_value=self.value(step),
                                  model_grad_norm=None,
                                  certificates=tr_certificates(self, step, **seed))


@dataclass(frozen=True)
class CubicModel:
    """Cubic model <s,g> + 0.5*<s,Hs> + (sigma/3)*||s||^3."""

    grad: Array
    hessian: HessianOperator
    sigma: float

    def __post_init__(self) -> None:
        _check_model(self.grad, "sigma", self.sigma)

    def value(self, s: Array) -> float:
        sn = float(np.linalg.norm(s))
        return float(self.grad @ s + 0.5 * (s @ self.hessian.apply(s))
                     + self.sigma / 3.0 * sn ** 3)

    def gradient(self, s: Array) -> Array:
        return self.grad + self.hessian.apply(s) + self.sigma * float(np.linalg.norm(s)) * s

    def _solution(self, step: Array, **seed) -> SubproblemSolution:
        """The step with its model value, model-gradient norm and recomputed
        certificates."""
        return SubproblemSolution(
            step=step, model_value=self.value(step),
            model_grad_norm=float(np.linalg.norm(self.gradient(step))),
            certificates=arc_certificates(self, step, **seed))


def _check_model(grad: Array, name: str, value: float) -> None:
    if not (value > 0.0 and np.isfinite(value)):
        raise CertificateError(f"{name} must be positive, got {value}")
    if not np.all(np.isfinite(grad)):
        raise CertificateError("model gradient must be finite")


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
    model_grad_norm: float | None
    certificates: Certificates

    def __post_init__(self) -> None:
        if not (np.isfinite(self.model_value) and np.all(np.isfinite(self.step))):
            raise NonFiniteError(
                f"non-finite sub-problem solution: m(s)={self.model_value}, "
                f"||s||={np.linalg.norm(self.step)}")
        if not self.model_value < 0.0:
            raise CertificateError(
                f"sub-problem solutions must strictly decrease the model, "
                f"got m(s)={self.model_value}")


def _met(achieved: float, required: float) -> tuple[bool, float]:
    slack = achieved - required
    return slack >= -CERT_RTOL * max(1.0, abs(required)), slack


# ---------------------------------------------------------------------------
# Trust-region family
# ---------------------------------------------------------------------------

def tr_cauchy_required(model: TRModel) -> float:
    """Sufficient decrease demanded of the Cauchy point, with ||H|| relaxed
    to its upper bound K_H (the inequality chain only loosens)."""
    gn = float(np.linalg.norm(model.grad))
    return 0.5 * gn * min(gn / (1.0 + model.hessian.norm_bound), model.radius)


def tr_certificates(model: TRModel, step: Array, nu_hat: float | None = None,
                    eigen_norm: float | None = None) -> Certificates:
    """Recompute the trust-region descent certificates for an arbitrary step."""
    if float(np.linalg.norm(step)) > model.radius * (1.0 + 1e-12):
        raise CertificateError("trust-region step exceeds the radius")
    achieved = -model.value(step)
    cauchy_met, cauchy_slack = _met(achieved, tr_cauchy_required(model))
    eigen_met = eigen_slack = None
    if nu_hat is not None:
        required = 0.5 * nu_hat * model.radius ** 2
        eigen_met, eigen_slack = _met(achieved, required)
    return Certificates(cauchy_met=cauchy_met, cauchy_slack=cauchy_slack,
                        eigen_met=eigen_met, eigen_slack=eigen_slack,
                        nu_hat=nu_hat, eigen_norm=eigen_norm)


def tr_cauchy_point(model: TRModel) -> SubproblemSolution:
    """Exact minimizer of the quadratic model along -grad within the ball."""
    gn = float(np.linalg.norm(model.grad))
    if gn == 0.0:
        raise ValueError("Cauchy point undefined for zero gradient; the driver "
                         "must test first-order optimality first")
    ghg = model.hessian.quad(model.grad)
    if ghg <= 0.0:
        tau = 1.0
    else:
        tau = min(gn ** 3 / (model.radius * ghg), 1.0)
    return model._solution((-tau * model.radius / gn) * model.grad)


def tr_eigen_point(model: TRModel, u: Array) -> SubproblemSolution:
    """Step of length radius along a certified negative-curvature direction.

    The sign is chosen so <grad, s> <= 0; the certificate uses the realized
    curvature.
    """
    un = float(np.linalg.norm(u))
    if un == 0.0:
        raise CertificateError("eigen direction must be nonzero")
    uhat = u / un
    curv = model.hessian.quad(uhat)
    if curv >= 0.0:
        raise CertificateError(
            f"eigen direction must carry negative curvature, got <u,Hu>={curv}")
    sign = -1.0 if float(model.grad @ uhat) > 0.0 else 1.0
    step = sign * model.radius * uhat
    return model._solution(step, nu_hat=-curv, eigen_norm=float(np.linalg.norm(step)))


def tr_subspace_solve(model: TRModel, basis: Sequence[Array],
                      nu_hat: float | None = None,
                      eigen_norm: float | None = None) -> SubproblemSolution:
    """Exact trust-region solve on the span of ``basis``.

    The basis is orthonormalized (near-dependent directions dropped at
    relative tolerance 1e-12) and the reduced problem is solved through the
    secular equation on its eigendecomposition (``_reduced_exact``), hard
    case included. Because minimization runs over a superset of the seed
    directions, the solution dominates every seed in model value.
    """
    return _subspace_solve(model, _orthonormalize(basis, model.grad.shape[0]),
                           nu_hat=nu_hat, eigen_norm=eigen_norm)


# ---------------------------------------------------------------------------
# Cubic-regularization family
# ---------------------------------------------------------------------------

def arc_cauchy_alpha(model: CubicModel) -> float:
    """Nonnegative root of sigma*||g||^3*a^2 + <g,Hg>*a - ||g||^2 = 0.

    Uses the conjugate form when <g,Hg> > 0 to avoid cancellation.
    """
    gn = float(np.linalg.norm(model.grad))
    ghg = model.hessian.quad(model.grad)
    disc = math.sqrt(ghg * ghg + 4.0 * model.sigma * gn ** 5)
    if ghg > 0.0:
        return 2.0 * gn * gn / (ghg + disc)
    return (-ghg + disc) / (2.0 * model.sigma * gn ** 3)


def arc_cauchy_required(model: CubicModel) -> float:
    """Larger of the two Cauchy decrease bounds; the step-norm-dependent one
    is evaluated at the Cauchy point itself (its norm is model-derivable)."""
    gn = float(np.linalg.norm(model.grad))
    if gn == 0.0:
        return 0.0
    k = model.hessian.norm_bound
    alpha = arc_cauchy_alpha(model)
    sc_norm = alpha * gn
    surd = _sqrt_shift(k, 4.0 * model.sigma * gn)
    bound_norm = sc_norm ** 2 / 12.0 * surd
    lin = gn / k if k > 0.0 else math.inf
    bound_grad = gn / (2.0 * math.sqrt(3.0)) * min(lin, math.sqrt(gn / model.sigma))
    return max(bound_norm, bound_grad)


def _sqrt_shift(k: float, x: float) -> float:
    """sqrt(k^2 + x) - k without cancellation for k >= 0, x >= 0."""
    return x / (math.sqrt(k * k + x) + k)


def arc_certificates(model: CubicModel, step: Array, nu_hat: float | None = None,
                     eigen_norm: float | None = None,
                     zeta: float | None = None) -> Certificates:
    """Recompute the cubic-model certificates for an arbitrary step."""
    achieved = -model.value(step)
    cauchy_met, cauchy_slack = _met(achieved, arc_cauchy_required(model))
    eigen_met = eigen_slack = None
    if nu_hat is not None and eigen_norm is not None:
        required = nu_hat / 6.0 * max(eigen_norm ** 2,
                                      nu_hat ** 2 / model.sigma ** 2)
        eigen_met, eigen_slack = _met(achieved, required)
    cond5_met = cond5_slack = None
    if zeta is not None:
        grad_norm = float(np.linalg.norm(model.gradient(step)))
        sn = float(np.linalg.norm(step))
        theta = min(1.0, sn)
        bound = zeta * max(sn ** 2, theta * float(np.linalg.norm(model.grad)))
        cond5_slack = bound - grad_norm
        cond5_met = cond5_slack >= -CERT_RTOL * max(1.0, bound)
    return Certificates(cauchy_met=cauchy_met, cauchy_slack=cauchy_slack,
                        eigen_met=eigen_met, eigen_slack=eigen_slack,
                        cond5_met=cond5_met, cond5_slack=cond5_slack,
                        nu_hat=nu_hat, eigen_norm=eigen_norm)


def arc_cauchy_point(model: CubicModel) -> SubproblemSolution:
    """Exact minimizer of the cubic model along the negative gradient ray."""
    gn = float(np.linalg.norm(model.grad))
    if gn == 0.0:
        raise ValueError("Cauchy point undefined for zero gradient")
    return model._solution(-arc_cauchy_alpha(model) * model.grad)


def arc_eigen_point(model: CubicModel, u: Array) -> SubproblemSolution:
    """Global minimizer of the 1-D cubic along a negative-curvature direction.

    On each half-line the model is a cubic polynomial with closed-form
    stationary points; the lower of the two branch minima wins, with ties
    broken toward <grad, s> <= 0.
    """
    un = float(np.linalg.norm(u))
    if un == 0.0:
        raise CertificateError("eigen direction must be nonzero")
    uhat = u / un
    b = float(model.grad @ uhat)
    c = model.hessian.quad(uhat)
    if c >= 0.0:
        raise CertificateError(
            f"eigen direction must carry negative curvature, got <u,Hu>={c}")
    sigma = model.sigma

    def phi(a: float) -> float:
        return b * a + 0.5 * c * a * a + sigma / 3.0 * abs(a) ** 3

    candidates: list[float] = []
    # alpha >= 0 branch: b + c*a + sigma*a^2 = 0
    for root in _quad_roots(sigma, c, b):
        if root >= 0.0:
            candidates.append(root)
    # alpha <= 0 branch: b + c*a - sigma*a^2 = 0
    for root in _quad_roots(-sigma, c, b):
        if root <= 0.0:
            candidates.append(root)
    if not candidates:
        raise CertificateError("no stationary point found for the 1-D cubic")
    best = min(candidates, key=lambda a: (phi(a), float(b * a)))
    step = best * uhat
    return model._solution(step, nu_hat=-c, eigen_norm=float(np.linalg.norm(step)))


def _quad_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a2*x^2 + a1*x + a0, stably."""
    if a2 == 0.0:
        return [-a0 / a1] if a1 != 0.0 else []
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (a1 + math.copysign(sq, a1)) if a1 != 0.0 else 0.5 * sq
    roots = []
    if q != 0.0:
        roots.append(q / a2)
        roots.append(a0 / q)
    else:
        roots.extend([0.0, -a1 / a2])
    return roots


def arc_subspace_solve(model: CubicModel, basis: Sequence[Array],
                       nu_hat: float | None = None,
                       eigen_norm: float | None = None,
                       zeta: float | None = None) -> SubproblemSolution:
    """Exact cubic-model solve on the span of ``basis``, as
    ``tr_subspace_solve`` does for the trust-region model."""
    return _subspace_solve(model, _orthonormalize(basis, model.grad.shape[0]),
                           nu_hat=nu_hat, eigen_norm=eigen_norm, zeta=zeta)


def arc_progressive_solve(model: CubicModel, seeds: Sequence[Array],
                          zeta: float, nu_hat: float | None = None,
                          eigen_norm: float | None = None) -> SubproblemSolution:
    """Grow a Krylov space {g, Hg, H^2 g, ...} over the seed directions and
    re-solve until the model-gradient test

        ||grad m(s)|| <= zeta * max(||s||^2, min(1, ||s||) * ||grad||)

    holds, or the dimension cap min(d, 50) is reached (best solution so far
    is then returned flagged cond5_met=False, and a warning is logged). Seeds
    sit inside every search space, so the Cauchy/Eigen decrease certificates
    hold throughout. Each Krylov vector is orthonormalized once, against the
    basis built so far.
    """
    if not (0.0 < zeta < 1.0):
        raise CertificateError(f"zeta must lie in (0, 1), got {zeta}")
    d = model.grad.shape[0]
    krylov = model.grad
    cols = _orthonormalize([*seeds, krylov], d)
    best: SubproblemSolution | None = None
    while True:
        sol = _subspace_solve(model, cols, nu_hat=nu_hat, eigen_norm=eigen_norm,
                              zeta=zeta)
        if best is None or sol.model_value < best.model_value:
            best = sol
        if sol.certificates.cond5_met:
            return sol
        if len(cols) >= min(d, 50):
            break
        krylov = model.hessian.apply(krylov)
        kn = float(np.linalg.norm(krylov))
        if kn == 0.0:
            break
        krylov = krylov / kn
        if not _extend_basis(cols, krylov, d):
            break  # Krylov chain saturated; the span cannot grow further.
    logger.warning("model-gradient test (cond5) unmet on a %d-dimensional search "
                   "space; returning its best step, m(s) = %r",
                   len(cols), best.model_value)
    return best


# ---------------------------------------------------------------------------
# Exact solve on a subspace
# ---------------------------------------------------------------------------

def _extend_basis(cols: list[Array], raw: Array, dim: int) -> bool:
    """Append the unit part of ``raw`` orthogonal to ``cols`` (modified
    Gram-Schmidt, two passes) unless it is dependent at relative tolerance
    ``BASIS_DROP_TOL``; return whether it was appended."""
    b = np.asarray(raw, dtype=float)
    if b.shape != (dim,):
        raise CertificateError(f"basis vector of shape {b.shape}, expected ({dim},)")
    norm0 = float(np.linalg.norm(b))
    if norm0 == 0.0:
        return False
    w = b.copy()
    for _ in range(2):
        for q in cols:
            w -= (q @ w) * q
    wn = float(np.linalg.norm(w))
    if wn <= BASIS_DROP_TOL * norm0:
        return False
    cols.append(w / wn)
    return True


def _orthonormalize(basis: Sequence[Array], dim: int) -> list[Array]:
    cols: list[Array] = []
    for raw in basis:
        _extend_basis(cols, raw, dim)
    if not cols:
        raise CertificateError("basis is empty after dropping dependent directions")
    return cols


def _subspace_solve(model: TRModel | CubicModel, cols: list[Array],
                    **seed) -> SubproblemSolution:
    """Exact solve of ``model`` on the span of the orthonormal ``cols``:
    reduce to the span, solve the reduced problem, lift the step back."""
    u_mat = np.column_stack(cols)
    reduced_h = u_mat.T @ model.hessian.apply(u_mat)
    relation = ({"radius": model.radius} if isinstance(model, TRModel)
                else {"sigma": model.sigma})
    v = _reduced_exact(u_mat.T @ model.grad, 0.5 * (reduced_h + reduced_h.T),
                       **relation)
    return model._solution(u_mat @ v, **seed)


def _reduced_exact(g: Array, h: Array, radius: float | None = None,
                   sigma: float | None = None) -> Array:
    """Global minimizer of <g,v> + 0.5*<v,Hv> on ||v|| <= radius, or of
    <g,v> + 0.5*<v,Hv> + (sigma/3)*||v||^3, for a small dense H.

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
        fill = math.sqrt(max(target(lo + d) ** 2 - float(v @ v), 0.0))
        gb = gq[bottom]
        gbn = float(np.linalg.norm(gb))
        if gbn > 0.0:
            v[bottom] = -fill * (gb / gbn)
        else:
            v[0] = fill
    vn = float(np.linalg.norm(v))
    if sigma is None and vn > radius:
        # The secular iteration stops within its tolerance, possibly a hair
        # outside the ball; project back so feasibility is unconditional.
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
