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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Array, CertificateError, HessianOperator, NonFiniteError

# Inequalities count as met with this much slack allowance, relative to the
# magnitude of the required decrease.
CERT_RTOL = 1e-9
# Relative threshold below which a basis vector is dropped as dependent.
BASIS_DROP_TOL = 1e-12
# Secular iterations on the reduced problems run to this tolerance; the
# reduced dimension is tiny, so robustness beats speed.
SECULAR_TOL = 1e-10


@dataclass(frozen=True)
class TRModel:
    """Quadratic model <s,g> + 0.5*<s,Hs> trusted on the ball ||s|| <= radius."""

    grad: Array
    hessian: HessianOperator
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise CertificateError(f"trust radius must be positive, got {self.radius}")
        if not np.all(np.isfinite(self.grad)):
            raise CertificateError("model gradient must be finite")

    def value(self, s: Array) -> float:
        return float(self.grad @ s + 0.5 * (s @ self.hessian.apply(s)))


@dataclass(frozen=True)
class CubicModel:
    """Cubic model <s,g> + 0.5*<s,Hs> + (sigma/3)*||s||^3."""

    grad: Array
    hessian: HessianOperator
    sigma: float

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise CertificateError(f"sigma must be positive, got {self.sigma}")
        if not np.all(np.isfinite(self.grad)):
            raise CertificateError("model gradient must be finite")

    def value(self, s: Array) -> float:
        sn = float(np.linalg.norm(s))
        return float(self.grad @ s + 0.5 * (s @ self.hessian.apply(s))
                     + self.sigma / 3.0 * sn ** 3)

    def gradient(self, s: Array) -> Array:
        return self.grad + self.hessian.apply(s) + self.sigma * float(np.linalg.norm(s)) * s


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
    step = (-tau * model.radius / gn) * model.grad
    value = model.value(step)
    certs = tr_certificates(model, step)
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=None, certificates=certs)


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
    value = model.value(step)
    certs = tr_certificates(model, step, nu_hat=-curv,
                            eigen_norm=float(np.linalg.norm(step)))
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=None, certificates=certs)


def tr_subspace_solve(model: TRModel, basis: Sequence[Array],
                      nu_hat: float | None = None,
                      eigen_norm: float | None = None) -> SubproblemSolution:
    """Exact trust-region solve on the span of ``basis``.

    The basis is orthonormalized (near-dependent directions dropped at
    relative tolerance 1e-12) and the reduced problem is solved through the
    secular equation on its eigendecomposition, hard case included. Because
    minimization runs over a superset of the seed directions, the solution
    dominates every seed in model value.
    """
    u_mat = _orthonormalize(basis, model.grad.shape[0])
    reduced_h, reduced_g = _reduce(model.grad, model.hessian, u_mat)
    v = _tr_reduced_exact(reduced_g, reduced_h, model.radius)
    step = u_mat @ v
    value = model.value(step)
    certs = tr_certificates(model, step, nu_hat=nu_hat, eigen_norm=eigen_norm)
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=None, certificates=certs)


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
    step = -arc_cauchy_alpha(model) * model.grad
    value = model.value(step)
    certs = arc_certificates(model, step)
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=float(np.linalg.norm(model.gradient(step))),
                              certificates=certs)


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
    value = model.value(step)
    certs = arc_certificates(model, step, nu_hat=-c,
                             eigen_norm=float(np.linalg.norm(step)))
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=float(np.linalg.norm(model.gradient(step))),
                              certificates=certs)


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
    """Exact cubic-model solve on the span of ``basis`` via the secular
    equation on the reduced eigendecomposition, hard case included."""
    u_mat = _orthonormalize(basis, model.grad.shape[0])
    reduced_h, reduced_g = _reduce(model.grad, model.hessian, u_mat)
    v = _arc_reduced_exact(reduced_g, reduced_h, model.sigma)
    step = u_mat @ v
    value = model.value(step)
    certs = arc_certificates(model, step, nu_hat=nu_hat, eigen_norm=eigen_norm,
                             zeta=zeta)
    return SubproblemSolution(step=step, model_value=value,
                              model_grad_norm=float(np.linalg.norm(model.gradient(step))),
                              certificates=certs)


def arc_progressive_solve(model: CubicModel, seeds: Sequence[Array],
                          zeta: float, nu_hat: float | None = None,
                          eigen_norm: float | None = None) -> SubproblemSolution:
    """Grow a Krylov space {g, Hg, H^2 g, ...} over the seed directions and
    re-solve until the model-gradient test

        ||grad m(s)|| <= zeta * max(||s||^2, min(1, ||s||) * ||grad||)

    holds, or the dimension cap min(d, 50) is reached (best solution so far
    is then returned flagged cond5_met=False). Seeds sit inside every search
    space, so the Cauchy/Eigen decrease certificates hold throughout.
    """
    if not (0.0 < zeta < 1.0):
        raise CertificateError(f"zeta must lie in (0, 1), got {zeta}")
    d = model.grad.shape[0]
    max_dim = min(d, 50)
    directions: list[Array] = [np.asarray(s, dtype=float) for s in seeds]
    gn = float(np.linalg.norm(model.grad))
    krylov = model.grad.copy() if gn > 0.0 else None
    if krylov is not None:
        directions.append(krylov)

    best: SubproblemSolution | None = None
    while True:
        sol = arc_subspace_solve(model, directions, nu_hat=nu_hat,
                                 eigen_norm=eigen_norm, zeta=zeta)
        if best is None or sol.model_value < best.model_value:
            best = sol
        if sol.certificates.cond5_met:
            return sol
        span_dim = _orthonormalize(directions, d).shape[1]
        if span_dim >= max_dim:
            break
        if krylov is None:
            break
        krylov = model.hessian.apply(krylov)
        kn = float(np.linalg.norm(krylov))
        if kn == 0.0:
            break
        krylov = krylov / kn
        directions.append(krylov)
        if _orthonormalize(directions, d).shape[1] == span_dim:
            break  # Krylov chain saturated; the span cannot grow further.
    return best


# ---------------------------------------------------------------------------
# Reduced exact solvers
# ---------------------------------------------------------------------------

def _orthonormalize(basis: Sequence[Array], dim: int) -> Array:
    """Modified Gram-Schmidt with a relative drop tolerance for dependents."""
    cols: list[Array] = []
    for raw in basis:
        b = np.asarray(raw, dtype=float)
        if b.shape != (dim,):
            raise CertificateError(f"basis vector of shape {b.shape}, expected ({dim},)")
        norm0 = float(np.linalg.norm(b))
        if norm0 == 0.0:
            continue
        w = b.copy()
        for _ in range(2):
            for q in cols:
                w -= (q @ w) * q
        wn = float(np.linalg.norm(w))
        if wn <= BASIS_DROP_TOL * norm0:
            continue
        cols.append(w / wn)
    if not cols:
        raise CertificateError("basis is empty after dropping dependent directions")
    return np.column_stack(cols)


def _reduce(grad: Array, hessian: HessianOperator, u_mat: Array) -> tuple[Array, Array]:
    hu = hessian.apply(u_mat)
    reduced_h = u_mat.T @ hu
    reduced_h = 0.5 * (reduced_h + reduced_h.T)
    return reduced_h, u_mat.T @ grad


def _tr_reduced_exact(g: Array, h: Array, radius: float) -> Array:
    """min <g,v> + 0.5*<v,Hv> s.t. ||v|| <= radius, solved exactly."""
    lam, q = np.linalg.eigh(h)
    gq = q.T @ g
    if lam[0] > 0.0:
        v = q @ (-gq / lam)
        if float(np.linalg.norm(v)) <= radius * (1.0 + 1e-14):
            return v

    mu_lo = max(0.0, -lam[0])
    scale = max(1.0, float(np.max(np.abs(lam))))
    bottom = lam <= lam[0] + 1e-12 * scale

    def norm_at(mu: float) -> float:
        denom = lam + mu
        good = denom > 0.0
        if not np.any(good):
            return 0.0
        return float(np.linalg.norm(gq[good] / denom[good]))

    # Potential hard case: gradient orthogonal to the bottom eigenspace.
    if mu_lo > 0.0 and float(np.linalg.norm(gq[bottom])) <= 1e-12 * max(1.0, float(np.linalg.norm(gq))):
        denom = lam + mu_lo
        v = np.zeros_like(gq)
        outside = ~bottom
        v[outside] = -gq[outside] / denom[outside]
        w = float(np.linalg.norm(v))
        if w <= radius:
            tau = math.sqrt(max(radius ** 2 - w ** 2, 0.0))
            v[np.argmax(bottom)] += tau
            return q @ v

    # norm_at(mu) <= ||gq|| / (lam[0] + mu), so this hi always brackets.
    hi = mu_lo + float(np.linalg.norm(gq)) / radius + 1e-3 * scale
    mu = _secular_root(lambda m: norm_at(m) - radius, mu_lo, hi, radius, scale)
    denom = lam + mu
    v = np.where(np.abs(denom) > 0.0, -gq / np.where(denom == 0.0, 1.0, denom), 0.0)
    vn = float(np.linalg.norm(v))
    if vn > radius:
        # The secular iteration stops within its tolerance, possibly a hair
        # outside the ball; project back so feasibility is unconditional.
        v *= radius / vn
    return q @ v


def _arc_reduced_exact(g: Array, h: Array, sigma: float) -> Array:
    """Global minimizer of <g,v> + 0.5*<v,Hv> + (sigma/3)||v||^3, exactly."""
    lam, q = np.linalg.eigh(h)
    gq = q.T @ g
    r_lo = max(0.0, -lam[0] / sigma)
    scale = max(1.0, float(np.max(np.abs(lam))) / sigma, r_lo)
    bottom = lam <= lam[0] + 1e-12 * max(1.0, float(np.max(np.abs(lam))))

    if float(np.linalg.norm(gq)) == 0.0 and lam[0] >= 0.0:
        return np.zeros_like(gq)

    def norm_at(r: float) -> float:
        denom = lam + sigma * r
        good = denom > 0.0
        if not np.any(good):
            return 0.0
        return float(np.linalg.norm(gq[good] / denom[good]))

    # Hard case: bottom eigenvalue negative and gradient orthogonal to its
    # eigenspace, with the restricted solution inside the ball of radius r_lo.
    if r_lo > 0.0 and float(np.linalg.norm(gq[bottom])) <= 1e-12 * max(1.0, float(np.linalg.norm(gq))):
        denom = lam + sigma * r_lo
        v = np.zeros_like(gq)
        outside = ~bottom
        v[outside] = -gq[outside] / denom[outside]
        w = float(np.linalg.norm(v))
        if w <= r_lo:
            tau = math.sqrt(max(r_lo ** 2 - w ** 2, 0.0))
            idx = int(np.argmax(bottom))
            v_plus = v.copy()
            v_plus[idx] += tau
            v_minus = v.copy()
            v_minus[idx] -= tau
            val_plus = float(gq @ v_plus)
            val_minus = float(gq @ v_minus)
            return q @ (v_plus if val_plus <= val_minus else v_minus)

    # ||v(r)|| <= ||gq|| / (sigma (r - r_lo)), so this hi always brackets.
    hi = r_lo + math.sqrt(float(np.linalg.norm(gq)) / sigma) + 1e-3 * scale
    r = _secular_root(lambda m: norm_at(m) - m, r_lo, hi, None, scale)
    denom = lam + sigma * r
    v = np.where(np.abs(denom) > 0.0, -gq / np.where(denom == 0.0, 1.0, denom), 0.0)
    return q @ v


def _secular_root(f, lo: float, hi: float, radius: float | None,
                  scale: float) -> float:
    """Safeguarded root search on a strictly decreasing secular function.

    For the trust-region case f(mu) = ||v(mu)|| - radius on (lo, inf); for the
    cubic case f(r) = ||v(r)|| - r. Either way f decreases and has exactly one
    sign change right of lo. The left endpoint can sit next to a pole, so
    regula-falsi steps are only accepted well inside the bracket and the
    method falls back to bisection otherwise.
    """
    eps = 1e-14 * max(1.0, scale)
    a = lo + eps
    fa = f(a)
    if fa <= 0.0:
        # Root is pinned (numerically) at the left endpoint.
        return a
    b, fb = hi, f(hi)
    grow = 0
    while fb > 0.0 and grow < 300:
        b = 2.0 * b + 1.0
        fb = f(b)
        grow += 1
    if fb > 0.0:
        raise CertificateError("secular bracketing failed to find a sign change")
    best, best_val = b, abs(fb)
    for _ in range(400):
        mid = 0.5 * (a + b)
        if fb != fa:
            sec = (a * fb - b * fa) / (fb - fa)
            if a + 0.05 * (b - a) < sec < b - 0.05 * (b - a):
                mid = sec
        fm = f(mid)
        if abs(fm) < best_val:
            best, best_val = mid, abs(fm)
        # Tolerance relative to the boundary norm being matched.
        tol_target = SECULAR_TOL * (radius if radius is not None
                                    else max(abs(mid), 1e-30))
        if abs(fm) <= tol_target or (b - a) <= 1e-15 * max(1.0, abs(b)):
            return mid
        if fm > 0.0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return best
