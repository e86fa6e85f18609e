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


def scan_tr_ray(model, points=10**6):
    """Best tau in [0, 1] for m(-tau * Delta * g/||g||) on a uniform grid."""
    g = model.grad
    gn = np.linalg.norm(g)
    ghg = float(g @ (model.hessian.apply(g))) / gn**2
    taus = np.linspace(0.0, 1.0, points)
    vals = -taus * model.radius * gn + 0.5 * (taus * model.radius) ** 2 * ghg
    k = int(np.argmin(vals))
    return taus[k], vals[k]


def scan_arc_ray(model, alpha_lo, alpha_hi, points=10**6):
    """Best alpha in [alpha_lo, alpha_hi] for m(-alpha * g) on a uniform grid."""
    g = model.grad
    gn = float(np.linalg.norm(g))
    ghg = float(g @ model.hessian.apply(g))
    alphas = np.linspace(alpha_lo, alpha_hi, points)
    vals = (-alphas * gn**2 + 0.5 * alphas**2 * ghg
            + model.sigma / 3.0 * (alphas * gn) ** 3)
    k = int(np.argmin(vals))
    return alphas[k], vals[k]


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

    def test_matches_grid_scan(self, rng):
        for _ in range(10):
            model = tr_model(rng.standard_normal(5), random_symmetric(rng, 5), 1.0)
            sol = cauchy_point(model)
            tau_star = np.linalg.norm(sol.step) / model.radius
            tau_grid, val_grid = scan_tr_ray(model)
            assert abs(tau_star - tau_grid) < 1e-6
            assert sol.model_value <= val_grid + 1e-9


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


class TestTRSubspace:
    def test_single_direction_reduces_to_cauchy(self, rng):
        h = random_symmetric(rng, 4)
        h = h @ h.T + 0.1 * np.eye(4)  # PSD
        g = rng.standard_normal(4)
        model = tr_model(g, h, 0.7)
        cauchy = cauchy_point(model)
        sub = subspace_solve(model, [g])
        assert sub.model_value == pytest.approx(cauchy.model_value, abs=1e-10)

    def test_full_2d_matches_brute_force(self, rng):
        for _ in range(8):
            h = random_symmetric(rng, 2)
            g = rng.standard_normal(2)
            radius = float(rng.uniform(0.3, 2.0))
            model = tr_model(g, h, radius)
            sol = subspace_solve(model, [np.eye(2)[:, 0], np.eye(2)[:, 1]])
            # Dense brute force over the disk.
            grid = np.linspace(-radius, radius, 1500)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            pts = pts[np.linalg.norm(pts, axis=1) <= radius]
            vals = pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
            assert sol.model_value <= float(vals.min()) + 1e-4
            assert np.linalg.norm(sol.step) <= radius * (1 + 1e-12)

    def test_dominates_both_seeds(self, rng):
        for _ in range(20):
            d = 6
            h = random_symmetric(rng, d)
            g = rng.standard_normal(d)
            radius = float(rng.uniform(0.2, 2.0))
            model = tr_model(g, h, radius)
            cauchy = cauchy_point(model)
            basis = [g, model.hessian.apply(g)]
            seeds = [cauchy.model_value]
            lam, q = np.linalg.eigh(h)
            if lam[0] < 0:
                eigen = eigen_point(model, q[:, 0])
                basis.append(q[:, 0])
                seeds.append(eigen.model_value)
            sol = subspace_solve(model, basis)
            assert sol.model_value <= min(seeds) + 1e-9

    @pytest.mark.parametrize("lam, g, radius", [
        ([-2.0, 1.0], [0.0, 0.5], 1.0),
        # g nearly orthogonal to the bottom eigenvector: the secular root
        # lies within 1e-14 * scale of the pole.
        ([-200.0, 1.0], [5e-12, 1.0], 5.0),
        # The root sits 2.4e-11 past a pole at 134.4: regula falsi alone
        # crawls there, and a search in lam itself resolves the shift only
        # to ulp(134.4).
        ([-134.44235086, -132.87361116, -33.52718713, 75.72305914],
         [3.95259918e-11, -0.231003614, -0.779978675, -0.0508674597], 1.6768),
    ], ids=["orthogonal", "near_orthogonal", "near_pole"])
    def test_hard_case(self, lam, g, radius):
        # Gradient (nearly) orthogonal to the bottom eigenspace forces the
        # boundary solution with an added eigenvector component, which beats
        # the Eigen point and meets its certificate.
        h, g = np.diag(lam), np.array(g)
        model = tr_model(g, h, radius)
        eigen = eigen_point(model, np.eye(len(g))[:, 0])
        sol = subspace_solve(model, list(np.eye(len(g))),
                             nu_hat=eigen.certificates.nu_hat,
                             eigen_norm=eigen.certificates.eigen_norm)
        assert np.linalg.norm(sol.step) == pytest.approx(radius, rel=1e-9)
        assert sol.model_value <= eigen.model_value + 1e-9 * abs(eigen.model_value)
        assert sol.certificates.eigen_met
        if len(g) == 2:
            grid = np.linspace(-radius, radius, 2001)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            pts = pts[np.linalg.norm(pts, axis=1) <= radius]
            vals = pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
            assert sol.model_value <= float(vals.min()) + 1e-4

    def test_rank_deficient_basis_dropped(self, rng):
        h = random_symmetric(rng, 3)
        g = rng.standard_normal(3)
        model = tr_model(g, h, 1.0)
        sol_a = subspace_solve(model, [g, 2.0 * g, g + 1e-15 * np.ones(3)])
        sol_b = subspace_solve(model, [g])
        assert sol_a.model_value == pytest.approx(sol_b.model_value, abs=1e-10)


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

    def test_grid_scan_global_minimality(self, rng):
        for _ in range(10):
            model = cubic_model(rng.standard_normal(5), random_symmetric(rng, 5),
                                float(rng.uniform(0.05, 5.0)))
            sol = cauchy_point(model)
            gn = float(np.linalg.norm(model.grad))
            alpha_star = np.linalg.norm(sol.step) / gn
            # 1e6 points over a unit-width window: spacing < 1e-6 in alpha.
            lo = max(0.0, alpha_star - 0.5)
            alpha_grid, val_grid = scan_arc_ray(model, lo, lo + 1.0)
            assert abs(alpha_star - alpha_grid) <= 1e-6 * max(1.0, alpha_star)
            assert sol.model_value <= val_grid + 1e-9

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
        # 1-D grid cross-check.
        alphas = np.linspace(-4, 4, 10**6)
        vals = alphas + 0.5 * (-2.0) * alphas**2 + (1.0 / 3.0) * np.abs(alphas) ** 3
        assert sol.model_value <= float(vals.min()) + 1e-9

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

    def test_grid_cross_check(self, rng):
        for _ in range(8):
            h = random_symmetric(rng, 4)
            lam, q = np.linalg.eigh(h)
            if lam[0] >= 0:
                continue
            model = cubic_model(rng.standard_normal(4), h, 1.0)
            sol = eigen_point(model, q[:, 0])
            span = 3.0 * np.linalg.norm(sol.step) + 1.0
            alphas = np.linspace(-span, span, 10**6)
            b = float(model.grad @ q[:, 0])
            vals = (b * alphas + 0.5 * lam[0] * alphas**2
                    + model.sigma / 3.0 * np.abs(alphas) ** 3)
            assert sol.model_value <= float(vals.min()) + 1e-8

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


class TestARCSubspace:
    def test_gradient_span_with_psd_matches_cauchy(self, rng):
        h = random_symmetric(rng, 4)
        h = h @ h.T + 0.05 * np.eye(4)
        g = rng.standard_normal(4)
        model = cubic_model(g, h, 0.8)
        cauchy = cauchy_point(model)
        sub = subspace_solve(model, [g])
        assert sub.model_value == pytest.approx(cauchy.model_value, abs=1e-10)

    def test_full_2d_matches_grid(self, rng):
        for _ in range(6):
            h = random_symmetric(rng, 2)
            g = rng.standard_normal(2)
            model = cubic_model(g, h, float(rng.uniform(0.3, 2.0)))
            sol = subspace_solve(model, [np.eye(2)[:, 0], np.eye(2)[:, 1]])
            grid = np.linspace(-3.0, 3.0, 1500)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            norms = np.linalg.norm(pts, axis=1)
            vals = (pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
                    + model.sigma / 3.0 * norms**3)
            assert sol.model_value <= float(vals.min()) + 1e-4

    def test_dominates_seeds(self, rng):
        for _ in range(20):
            d = 5
            h = random_symmetric(rng, d)
            g = rng.standard_normal(d)
            model = cubic_model(g, h, float(rng.uniform(0.1, 3.0)))
            cauchy = cauchy_point(model)
            basis = [cauchy.step, g, model.hessian.apply(g)]
            seeds = [cauchy.model_value]
            lam, q = np.linalg.eigh(h)
            if lam[0] < 0:
                eigen = eigen_point(model, q[:, 0])
                basis.append(eigen.step)
                seeds.append(eigen.model_value)
            sol = subspace_solve(model, basis)
            assert sol.model_value <= min(seeds) + 1e-9

    @pytest.mark.parametrize("lam, g, sigma", [
        ([-1.5, 2.0], [0.0, 1.0], 0.5),
        # g nearly orthogonal to the bottom eigenvector: ||v|| = 400.
        ([-200.0, 1.0], [5e-12, 1.0], 0.5),
    ], ids=["orthogonal", "near_orthogonal"])
    def test_hard_case_zero_gradient_component(self, lam, g, sigma):
        # Pure negative-curvature reduced problem: g = 0 (or nearly so)
        # along the bottom eigenvector; the exact solve lands at
        # ||v|| = |lambda|/sigma, beats the Eigen point and meets its
        # certificate.
        h, g = np.diag(lam), np.array(g)
        model = cubic_model(g, h, sigma)
        eigen = eigen_point(model, np.eye(2)[:, 0])
        sol = subspace_solve(model, [np.eye(2)[:, 0], np.eye(2)[:, 1]],
                             nu_hat=eigen.certificates.nu_hat,
                             eigen_norm=eigen.certificates.eigen_norm)
        assert sol.model_value <= eigen.model_value + 1e-9 * abs(eigen.model_value)
        assert sol.certificates.eigen_met
        if abs(lam[0]) / sigma < 5.0:
            grid = np.linspace(-5.0, 5.0, 3000)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            norms = np.linalg.norm(pts, axis=1)
            vals = (pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
                    + model.sigma / 3.0 * norms**3)
            assert sol.model_value <= float(vals.min()) + 1e-3


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
    def test_stored_flags_rederivable(self, rng):
        for _ in range(20):
            d = 5
            h = random_symmetric(rng, d)
            g = rng.standard_normal(d)
            tr = tr_model(g, h, float(rng.uniform(0.2, 2.0)))
            sol = cauchy_point(tr)
            fresh = certificates(tr, sol.step)
            assert fresh.cauchy_met == sol.certificates.cauchy_met
            assert fresh.cauchy_slack == pytest.approx(sol.certificates.cauchy_slack,
                                                       abs=1e-12)
            arc = cubic_model(g, h, float(rng.uniform(0.1, 2.0)))
            sol2 = cauchy_point(arc)
            fresh2 = certificates(arc, sol2.step)
            assert fresh2.cauchy_met == sol2.certificates.cauchy_met

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
