import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton import subproblem
from subnewton.core import CertificateError, NonFiniteError
from subnewton.subproblem import (Certificates, CubicModel, SubproblemSolution,
                                  TRModel, cauchy_point, certificates,
                                  eigen_point, subspace_solve)

from conftest import (operator_from_dense, random_symmetric,
                      reference_arc_eigen_alpha)


def tr_model(g, h, radius, norm_bound=None):
    return TRModel(grad=np.asarray(g, dtype=float),
                   hessian=operator_from_dense(h, norm_bound=norm_bound),
                   radius=radius)


def cubic_model(g, h, sigma, norm_bound=None):
    return CubicModel(grad=np.asarray(g, dtype=float),
                      hessian=operator_from_dense(h, norm_bound=norm_bound),
                      sigma=sigma)


@pytest.fixture(params=["tr", "arc"])
def make_model(request):
    """A TR model of radius p, or a cubic model of sigma p, on (g, h, p)."""
    return tr_model if request.param == "tr" else cubic_model


def scan_ray(model, u, lo, hi, points=10**6):
    """Best alpha in [lo, hi] for m(alpha * u) on a uniform grid, with its
    m: sigma = 0 for TR, and the radius (inf for ARC) cuts the interval."""
    sigma, un = model.sigma or 0.0, float(np.linalg.norm(u))
    alphas = np.linspace(max(lo, -model.radius / un), min(hi, model.radius / un), points)
    vals = (alphas * float(model.grad @ u) + 0.5 * alphas**2 * model.hessian.quad(u)
            + sigma / 3.0 * (np.abs(alphas) * un) ** 3)
    k = int(np.argmin(vals))
    return alphas[k], vals[k]


def grid_min(model, points=1500):
    """The smallest m(s) of a 2-D model on a points x points grid over the
    square around the disk that holds every global minimizer: ||s|| <= radius
    for TR, and sigma*||s||^2 = ||g + Hs|| <= ||g|| + ||H||*||s|| for ARC."""
    sigma, g, h = model.sigma or 0.0, model.grad, model.hessian.matrix
    half = model.radius
    if sigma:
        k = model.hessian.norm_bound
        half = (k + math.sqrt(k * k + 4.0 * sigma * float(np.linalg.norm(g)))) / (2.0 * sigma)
    x, y = np.meshgrid(*2 * [np.linspace(-half, half, points)])
    norms = np.hypot(x, y)
    vals = (g[0] * x + g[1] * y + 0.5 * (h[0, 0] * x * x + 2.0 * h[0, 1] * x * y
                                         + h[1, 1] * y * y) + sigma / 3.0 * norms**3)
    return float(vals[norms <= model.radius].min())


class TestBothModels:
    """What the Cauchy point, the Eigen point and the sub-problem solve
    promise under either model, checked on both against the one ray scan or
    grid search."""

    def test_cauchy_point_matches_ray_scan(self, rng, make_model):
        for _ in range(10):
            model = make_model(rng.standard_normal(5), random_symmetric(rng, 5),
                               float(rng.uniform(0.05, 5.0)))
            sol = cauchy_point(model)
            alpha_star = np.linalg.norm(sol.step) / np.linalg.norm(model.grad)
            # 1e6 points over at most a unit-width window: spacing < 1e-6 in alpha.
            lo = max(0.0, alpha_star - 0.5)
            alpha_grid, val_grid = scan_ray(model, -model.grad, lo, lo + 1.0)
            assert abs(alpha_star - alpha_grid) <= 1e-6 * max(1.0, alpha_star)
            assert sol.model_value <= val_grid + 1e-9

    def test_eigen_point_matches_ray_scan(self, rng, make_model):
        for _ in range(8):
            h = random_symmetric(rng, 4)
            lam, q = np.linalg.eigh(h)
            if lam[0] >= 0:
                continue
            model = make_model(rng.standard_normal(4), h, float(rng.uniform(0.2, 3.0)))
            sol = eigen_point(model, q[:, 0])
            span = 3.0 * np.linalg.norm(sol.step) + 1.0
            assert sol.model_value <= scan_ray(model, q[:, 0], -span, span)[1] + 1e-8

    def test_gradient_span_solve_is_the_cauchy_point(self, rng, make_model):
        h = random_symmetric(rng, 4)
        model = make_model(rng.standard_normal(4), h @ h.T + 0.1 * np.eye(4), 0.7)
        sub = subspace_solve(model, [model.grad])
        assert sub.model_value == pytest.approx(cauchy_point(model).model_value, abs=1e-10)

    def test_2d_solve_matches_grid(self, rng, make_model):
        for _ in range(6):
            model = make_model(rng.standard_normal(2), random_symmetric(rng, 2),
                               float(rng.uniform(0.3, 2.0)))
            sol = subspace_solve(model, list(np.eye(2)))
            assert sol.model_value <= grid_min(model) + 1e-4
            assert np.linalg.norm(sol.step) <= model.radius * (1 + 1e-12)

    def test_solve_dominates_both_seeds(self, rng, make_model):
        for _ in range(20):
            h = random_symmetric(rng, 5)
            model = make_model(rng.standard_normal(5), h, float(rng.uniform(0.2, 2.0)))
            cauchy = cauchy_point(model)
            basis = [cauchy.step, model.grad, model.hessian.apply(model.grad)]
            seeds = [cauchy.model_value]
            lam, q = np.linalg.eigh(h)
            if lam[0] < 0:
                eigen = eigen_point(model, q[:, 0])
                basis.append(eigen.step)
                seeds.append(eigen.model_value)
            assert subspace_solve(model, basis).model_value <= min(seeds) + 1e-9

    @pytest.mark.parametrize("make, lam, g, param", [
        (tr_model, [-2.0, 1.0], [0.0, 0.5], 1.0),
        # g nearly orthogonal to the bottom eigenvector: the secular root
        # lies within 1e-14 * scale of the pole.
        (tr_model, [-200.0, 1.0], [5e-12, 1.0], 5.0),
        # The root sits 2.4e-11 past a pole at 134.4: regula falsi alone
        # crawls there, and a search in lam itself resolves the shift only
        # to ulp(134.4).
        (tr_model, [-134.44235086, -132.87361116, -33.52718713, 75.72305914],
         [3.95259918e-11, -0.231003614, -0.779978675, -0.0508674597], 1.6768),
        (cubic_model, [-1.5, 2.0], [0.0, 1.0], 0.5),
        # ||s|| = 400.
        (cubic_model, [-200.0, 1.0], [5e-12, 1.0], 0.5),
    ], ids=["tr_orthogonal", "tr_near_orthogonal", "tr_near_pole",
            "arc_orthogonal", "arc_near_orthogonal"])
    def test_hard_case(self, make, lam, g, param):
        # g (nearly) orthogonal to the bottom eigenspace: the minimizer's
        # multiplier is -lambda_min, which puts TR's step on the boundary and
        # gives ARC's sigma*||s|| = -lambda_min, with an added eigenvector
        # component. The step beats the Eigen point and meets its certificate.
        h, g = np.diag(lam), np.array(g)
        model = make(g, h, param)
        eigen = eigen_point(model, np.eye(len(g))[:, 0])
        sol = subspace_solve(model, list(np.eye(len(g))),
                             nu_hat=eigen.certificates.nu_hat,
                             eigen_norm=eigen.certificates.eigen_norm)
        reach = model.radius if model.sigma is None else -lam[0] / model.sigma
        assert np.linalg.norm(sol.step) == pytest.approx(reach, rel=1e-9)
        assert sol.model_value <= eigen.model_value + 1e-9 * abs(eigen.model_value)
        assert sol.certificates.eigen_met
        if len(g) == 2:
            assert sol.model_value <= grid_min(model) + 1e-4

    def test_dependent_seeds_dropped(self, rng, make_model):
        g = rng.standard_normal(3)
        model = make_model(g, random_symmetric(rng, 3), 1.0)
        sol_a = subspace_solve(model, [g, 2.0 * g, g + 1e-15 * np.ones(3)])
        sol_b = subspace_solve(model, [g])
        assert sol_a.model_value == pytest.approx(sol_b.model_value, abs=1e-10)


class TestTRCauchyPoint:
    def test_unconstrained_quadratic_minimum(self):
        sol = cauchy_point(tr_model([1.0, 0.0], np.eye(2), 10.0))
        assert np.allclose(sol.step, [-1.0, 0.0], atol=1e-12)
        assert sol.model_value == pytest.approx(-0.5)
        assert sol.certificates.cauchy_met

    def test_negative_curvature_pushes_to_boundary(self):
        sol = cauchy_point(tr_model([1.0, 0.0], -np.eye(2), 2.0))
        assert np.allclose(sol.step, [-2.0, 0.0], atol=1e-12)
        assert sol.model_value == pytest.approx(-4.0)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            cauchy_point(tr_model([0.0, 0.0], np.eye(2), 1.0))


class TestTREigenPoint:
    def test_orthogonal_gradient_sign_free(self):
        model = tr_model([1.0, 0.0], np.diag([1.0, -2.0]), 1.0)
        sol = eigen_point(model, np.array([0.0, 1.0]))
        assert abs(sol.step[1]) == pytest.approx(1.0)
        assert sol.model_value == pytest.approx(-1.0)

    def test_sign_follows_negative_gradient(self):
        model = tr_model([0.0, 1.0], np.diag([1.0, -2.0]), 2.0)
        sol = eigen_point(model, np.array([0.0, 1.0]))
        assert np.allclose(sol.step, [0.0, -2.0])
        assert sol.model_value == pytest.approx(-6.0)

    def test_nonnegative_curvature_rejected(self):
        model = tr_model([1.0, 0.0], np.eye(2), 1.0)
        with pytest.raises(CertificateError):
            eigen_point(model, np.array([0.0, 1.0]))

    def test_realized_curvature_certificate(self, rng):
        for _ in range(20):
            h = random_symmetric(rng, 6)
            lam, q = np.linalg.eigh(h)
            if lam[0] >= 0:
                continue
            model = tr_model(rng.standard_normal(6), h, float(rng.uniform(0.2, 3.0)))
            sol = eigen_point(model, q[:, 0])
            nu_hat = sol.certificates.nu_hat
            assert -sol.model_value >= 0.5 * nu_hat * model.radius**2 - 1e-9
            assert sol.certificates.eigen_met


class TestARCCauchyPoint:
    def test_zero_hessian_analytic_root(self):
        sol = cauchy_point(cubic_model([1.0, 0.0], np.zeros((2, 2)), 1.0,
                                       norm_bound=0.0))
        assert np.allclose(sol.step, [-1.0, 0.0], atol=1e-12)
        assert sol.model_value == pytest.approx(-2.0 / 3.0)

    def test_identity_hessian_golden_root(self):
        sol = cauchy_point(cubic_model([1.0, 0.0], np.eye(2), 1.0))
        alpha = (np.sqrt(5.0) - 1.0) / 2.0
        assert np.linalg.norm(sol.step) == pytest.approx(alpha, abs=1e-12)
        assert -sol.model_value >= 1.0 / (2.0 * np.sqrt(3.0)) - 1e-12
        assert sol.certificates.cauchy_met

    def test_step_norm_lower_bound(self, rng):
        # ||s_C|| >= (sqrt(K^2 + 4 sigma ||g||) - K) / (2 sigma)
        for _ in range(20):
            model = cubic_model(rng.standard_normal(4), random_symmetric(rng, 4),
                                float(rng.uniform(0.1, 4.0)))
            sol = cauchy_point(model)
            k = model.hessian.norm_bound
            gn = float(np.linalg.norm(model.grad))
            lower = (np.sqrt(k * k + 4 * model.sigma * gn) - k) / (2 * model.sigma)
            assert np.linalg.norm(sol.step) >= lower * (1 - 1e-12)


class TestARCEigenPoint:
    def test_near_zero_gradient_analytic(self):
        model = cubic_model([1e-16, 0.0], np.diag([1.0, -2.0]), 1.0)
        sol = eigen_point(model, np.array([0.0, 1.0]))
        assert np.linalg.norm(sol.step) == pytest.approx(2.0, abs=1e-9)
        assert sol.model_value == pytest.approx(-4.0 / 3.0, abs=1e-9)

    def test_sign_choice_by_gradient(self):
        model = cubic_model([0.0, 1.0], np.diag([1.0, -2.0]), 1.0)
        sol = eigen_point(model, np.array([0.0, 1.0]))
        assert sol.step[1] < 0
        assert sol.model_value <= scan_ray(model, np.array([0.0, 1.0]), -4.0, 4.0)[1] + 1e-9

    def test_sigma_step_inequality(self, rng):
        # sigma * ||s_E|| >= nu_hat always.
        for _ in range(20):
            h = random_symmetric(rng, 5)
            lam, q = np.linalg.eigh(h)
            if lam[0] >= 0:
                continue
            model = cubic_model(rng.standard_normal(5), h,
                                float(rng.uniform(0.1, 5.0)))
            sol = eigen_point(model, q[:, 0])
            nu_hat = sol.certificates.nu_hat
            assert model.sigma * np.linalg.norm(sol.step) >= nu_hat * (1 - 1e-12)
            assert sol.certificates.eigen_met

    def test_closed_form_matches_candidate_search(self):
        # The closed form is the candidate search's root, bit for bit,
        # wherever the search picks the half-line opposite b and no
        # intermediate is subnormal or infinite. Every finite nonzero step it
        # gives lies on the half-line opposite b, so b*a <= 0.
        def normal(x):
            return sys.float_info.min <= abs(x) <= sys.float_info.max

        mags = [0.0, 5e-324, 1e-300, 1e-16, 1.0, 1e150, 1e300]
        grid = [(sb * m, -mc, s) for m in mags for sb in (1.0, -1.0)
                for mc in mags[1:] for s in mags[1:]]
        rng = np.random.default_rng(13)
        count = 10**5
        exps = rng.uniform(-50.0, 50.0, size=(count, 3))
        signs = rng.choice([-1.0, 1.0], size=count)
        randoms = [(float(sb * 10.0 ** eb), float(-(10.0 ** ec)), float(10.0 ** es))
                   for sb, (eb, ec, es) in zip(signs, exps)]
        compared = 0
        model = cubic_model([1.0], [[-1.0]], 1.0)
        for b, c, sigma in grid + randoms:
            a = replace(model, sigma=sigma).eigen_length(b, c)
            if math.isfinite(a) and a != 0.0:
                # On the half-line opposite b, or along +u at b = 0.
                assert (a > 0.0) == (b <= 0.0), (b, c, sigma, a)
            try:
                ref = reference_arc_eigen_alpha(b, c, sigma)
            except OverflowError:  # |a|**3 in the search's model value
                continue
            if ((ref > 0.0) == (b < 0.0) and normal(c * c)
                    and normal(4.0 * sigma * abs(b)) and normal(ref)):
                assert a == ref, (b, c, sigma, a, ref)
                compared += 1
        assert compared >= 0.99 * count

    def test_near_tie_steps_against_the_gradient(self):
        # |b|*sigma/c^2 ~ 5e-17: both half-lines give the same rounded model
        # value, and a search by model value could pick <g, s> > 0.
        b, c, sigma = -1.4520197206217343e-15, -1.693791227817804, 0.09514594829923427
        model = cubic_model([b, 1.0], np.diag([c, 1.0]), sigma)
        sol = eigen_point(model, np.array([1.0, 0.0]))
        assert float(model.grad @ sol.step) < 0.0
        assert sol.certificates.eigen_met


class TestSubspaceOptimality:
    """Solved over the whole space, both relations give the global minimizer:
    (H + lam*I) s = -g with H + lam*I psd, and lam*(||s|| - radius) = 0 with
    ||s|| <= radius (TR) or lam = sigma*||s|| (ARC)."""

    @pytest.mark.parametrize("g_bottom", [0.0, 1e-11, 1e-9])
    @pytest.mark.parametrize("relation", ["tr", "arc"])
    def test_optimality_conditions(self, relation, g_bottom):
        rng = np.random.default_rng(8117)
        d = 5
        for trial in range(60):
            # Bottom eigenvalue of multiplicity 1-3, negative in most trials;
            # g's component in its eigenspace has norm g_bottom.
            mult = 1 + trial % 3
            scale = 10.0 ** rng.uniform(0.0, 3.0)
            bottom = rng.uniform(-3.0, 1.0)
            lam = scale * np.concatenate(
                [np.full(mult, bottom), bottom + rng.uniform(0.2, 4.0, d - mult)])
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            h = (q * lam) @ q.T
            h = 0.5 * (h + h.T)
            gq = rng.standard_normal(d)
            gq[:mult] *= g_bottom / np.linalg.norm(gq[:mult])
            g = q @ gq
            basis = list(np.eye(d))
            if relation == "tr":
                radius = float(rng.uniform(0.3, 3.0))
                s = subspace_solve(tr_model(g, h, radius), basis).step
                sn = float(np.linalg.norm(s))
                assert sn <= radius * (1 + 1e-12)
                # On the boundary lam follows from s'(H + lam*I)s = -g's;
                # inside it, complementarity demands lam = 0.
                on_boundary = sn >= radius * (1 - 1e-8)
                mult_lam = -float(g @ s + s @ h @ s) / sn**2 if on_boundary else 0.0
                assert mult_lam >= -1e-10 * scale
            else:
                sigma = float(rng.uniform(0.1, 3.0))
                s = subspace_solve(cubic_model(g, h, sigma), basis).step
                sn = float(np.linalg.norm(s))
                mult_lam = sigma * sn
            residual = np.linalg.norm(h @ s + mult_lam * s + g)
            size = np.linalg.norm(g) + (scale * 4.0 + abs(mult_lam)) * sn
            assert residual <= 1e-9 * size, (trial, residual, size)
            # Both hold to the secular tolerance, 1e-10 of ||s||.
            assert np.linalg.eigvalsh(h)[0] + mult_lam >= -1e-9 * size / sn, trial


class TestARCProgressive:
    def test_exact_at_full_dimension(self, rng, caplog):
        for _ in range(5):
            h = random_symmetric(rng, 2)
            g = rng.standard_normal(2)
            model = cubic_model(g, h, 1.0)
            cauchy = cauchy_point(model)
            with caplog.at_level("DEBUG", logger="subnewton.subproblem"):
                sol = subspace_solve(model, [cauchy.step], zeta=1e-9)
            assert sol.certificates.cond5_met
            assert np.linalg.norm(model.gradient(sol.step)) <= 1e-8
        assert caplog.records == []  # a met test logs nothing

    def test_terminates_early_on_quadratic_dominant(self, rng):
        d = 30
        h = random_symmetric(rng, d)
        h = h @ h.T + np.eye(d)  # PD, sigma tiny: essentially Newton
        g = rng.standard_normal(d)
        model = cubic_model(g, h, 1e-6)
        cauchy = cauchy_point(model)
        sol = subspace_solve(model, [cauchy.step], zeta=0.4)
        assert sol.certificates.cond5_met
        # Certificate inequality re-derived from scratch.
        fresh = certificates(model, sol.step, zeta=0.4)
        assert fresh.cond5_met == sol.certificates.cond5_met

    def test_unmet_test_is_logged(self, caplog):
        # g = e2 is in the null space of H, so the Krylov chain stops at once;
        # the hard-case step along e1 leaves a model gradient along H e1 = e3
        # outside the span, and the returned best step misses cond5.
        h = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        model = cubic_model([0.0, 1.0, 0.0], h, 0.5)
        eigen = eigen_point(model, np.array([1.0, 0.0, 0.0]))
        with caplog.at_level("WARNING", logger="subnewton.subproblem"):
            sol = subspace_solve(model, [eigen.step], zeta=0.1)
        assert not sol.certificates.cond5_met
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "cond5" in record.getMessage()
        assert repr(sol.model_value) in record.getMessage()

    def test_long_step_branch_arithmetic(self, rng):
        # For ||s|| >= 1 the bound reduces to zeta * ||s||^2.
        h = np.diag([-2.0, 1.0])
        g = np.array([1e-12, 0.0])
        model = cubic_model(g, h, 0.4)  # eigen step length 2/0.4 = 5 >= 1
        lam, q = np.linalg.eigh(h)
        eigen = eigen_point(model, q[:, 0])
        sol = subspace_solve(model, [eigen.step], zeta=0.3)
        sn = float(np.linalg.norm(sol.step))
        assert sn >= 1.0
        bound = 0.3 * max(sn**2, min(1.0, sn) * float(np.linalg.norm(g)))
        assert bound == pytest.approx(0.3 * sn**2)
        assert np.linalg.norm(model.gradient(sol.step)) <= bound * (1 + 1e-9)


class TestBasisImages:
    """The solver builds each basis vector's H-image from its seed's, so HU
    is built, not applied: H is applied once to each kept seed with no held
    image and once to each Krylov vector, and never to a dependent seed."""

    @pytest.fixture
    def bases(self, monkeypatch):
        """The basis and image lists of every ``_extend_basis`` call; after a
        solve, the last entry holds its final U and HU."""
        bases = []
        extend = subproblem._extend_basis

        def capture(model, cols, hcols, raw, image):
            bases.append((cols, hcols))
            return extend(model, cols, hcols, raw, image)

        monkeypatch.setattr(subproblem, "_extend_basis", capture)
        return bases

    @staticmethod
    def counting(h):
        """An operator on ``h``, and the shapes of the blocks it is applied to."""
        applies = []
        op = operator_from_dense(h)
        return replace(op, apply=lambda v: applies.append(np.shape(v)) or op.apply(v)), applies

    @pytest.mark.parametrize("relation", ["tr", "arc"])
    def test_built_images_match_applies(self, rng, bases, relation):
        for trial in range(40):
            d = int(rng.integers(1, 9))
            h = random_symmetric(rng, d)
            op, applies = self.counting(h)
            g = rng.standard_normal(d)
            model = (TRModel(grad=g, hessian=op, radius=1.0) if relation == "tr"
                     else CubicModel(grad=g, hessian=op, sigma=1.0))
            model.hg  # the cubic model's Cauchy bound reads Hg
            del applies[:]
            k = int(rng.integers(1, d + 1))
            seeds = list(rng.standard_normal((k, d)))
            held = rng.random(k) < 0.5
            images = [h @ s if hold else None for s, hold in zip(seeds, held)]
            # Dependent seeds, with and without an image, cost no apply.
            dependent = seeds[0] - 2.0 * seeds[-1]
            seeds += [dependent, dependent, np.zeros(d)]
            images += [h @ dependent, None, None]
            sol = subspace_solve(model, seeds, images)
            u, hu = (np.column_stack(b) for b in bases[-1])
            assert u.shape == (d, k)
            assert np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-12
            assert np.max(np.abs(hu - op.form() @ u)) <= 1e-12 * np.linalg.norm(h, 2), trial
            assert len(applies) == k - int(held.sum())
            assert all(shape == (d,) for shape in applies)
            assert np.allclose(sol.hs, h @ sol.step, rtol=0.0,
                               atol=1e-12 * np.linalg.norm(h, 2) * np.linalg.norm(sol.step))

    def test_nearly_dependent_held_seed_is_applied(self, rng, bases):
        # u lies 1e-10 off the span of g: built from its held image, its
        # basis vector's image would keep only about six digits.
        d = 8
        h = random_symmetric(rng, d)
        op, applies = self.counting(h)
        g = rng.standard_normal(d)
        u = g / np.linalg.norm(g) + 1e-10 * rng.standard_normal(d)
        subspace_solve(TRModel(grad=g, hessian=op, radius=1.0), [g, u], [h @ g, h @ u])
        u_mat, hu = (np.column_stack(b) for b in bases[-1])
        assert u_mat.shape == (d, 2)
        assert applies == [(d,)]
        assert np.max(np.abs(hu - h @ u_mat)) <= 1e-12 * np.linalg.norm(h, 2)

    def test_krylov_vector_costs_one_apply(self, rng, bases):
        for _ in range(10):
            d = 8
            h = random_symmetric(rng, d)
            op, applies = self.counting(h)
            model = CubicModel(grad=rng.standard_normal(d), hessian=op, sigma=1.0)
            cauchy = cauchy_point(model)  # applies H to g
            del applies[:]
            subspace_solve(model, [cauchy.step], [cauchy.hs], zeta=1e-9)
            # The Cauchy seed's column costs nothing, g is dropped and Hg is
            # held, so each Krylov column costs one one-column apply.
            u, hu = (np.column_stack(b) for b in bases[-1])
            assert u.shape[1] > 1
            assert applies == [(d,)] * (u.shape[1] - 1)
            assert np.max(np.abs(hu - h @ u)) <= 1e-12 * np.linalg.norm(h, 2)


class TestCertificateChecker:
    def test_stored_flags_rederivable(self, rng, make_model):
        for _ in range(20):
            model = make_model(rng.standard_normal(5), random_symmetric(rng, 5),
                               float(rng.uniform(0.1, 2.0)))
            sol = cauchy_point(model)
            fresh = certificates(model, sol.step)
            assert fresh.cauchy_met == sol.certificates.cauchy_met
            assert fresh.cauchy_slack == pytest.approx(sol.certificates.cauchy_slack,
                                                       abs=1e-12)

    def test_cauchy_bound_overflow_names_its_quantity(self):
        # sigma = 1e-300 along negative curvature puts the Cauchy point at
        # ||s_c|| = 1e300, whose square overflows; the step checked is small.
        model = cubic_model([1.0, 0.0], -np.eye(2), 1e-300)
        with pytest.raises(OverflowError, match=r"decrease bound overflows: \|\|s_c\|\|="):
            certificates(model, np.array([-1.0, 0.0]))

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_cauchy_certificate_scales(self, scale):
        model = cubic_model([scale, 0.0], np.eye(2), 1.0)
        sol = cauchy_point(model)
        assert sol.certificates.cauchy_met


class TestSubproblemSolution:
    @pytest.mark.parametrize("step, value", [
        ([1.0, 0.0], float("nan")),
        ([1.0, 0.0], -float("inf")),
        ([np.inf, 0.0], -1.0),
        ([np.nan, 0.0], float("nan")),
    ], ids=["nan_value", "inf_value", "inf_step", "nan_both"])
    def test_non_finite_solution_raises_non_finite(self, step, value):
        with pytest.raises(NonFiniteError, match="non-finite") as info:
            SubproblemSolution(step=np.array(step), model_value=value,
                               certificates=Certificates())
        assert f"m(s)={value}" in str(info.value)

    def test_finite_non_decrease_still_a_certificate_error(self):
        with pytest.raises(CertificateError):
            SubproblemSolution(step=np.array([1.0, 0.0]), model_value=0.0,
                               certificates=Certificates())
