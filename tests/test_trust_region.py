from dataclasses import replace

import numpy as np
import pytest

from subnewton import trust_region
from subnewton.core import ConfigurationError, NonFiniteError, OptimalityTolerances
from subnewton.cubic_reg import ARCConfig, run_arc
from subnewton.problems import QuarticSaddle, generate_synthetic
from subnewton.sampling import build_subsampled_hessian, resolve_scheme
from subnewton.trust_region import (TRConfig, exact_hessian_source, run_tr,
                                    tr_tolerance)

from conftest import CountingSource, operator_from_dense


class TrackedOracle:
    """Wraps an oracle and records every query point (for path bounds)."""

    def __init__(self, inner):
        self.inner = inner
        self.max_abs_coord = 0.0
        self.calls = 0

    def value_grad(self, x):
        self.calls += 1
        self.max_abs_coord = max(self.max_abs_coord, float(np.max(np.abs(x))))
        return self.inner.value_grad(x)


def replay_radius_identity(records, delta0, gamma):
    """Expected radius sequence from the multiplicative update, exactly."""
    expected = delta0
    succ = fail = 0
    for rec in records:
        assert rec.radius_or_sigma == expected
        closed_form = delta0 * gamma ** (succ - fail)
        assert rec.radius_or_sigma == pytest.approx(closed_form, rel=1e-12)
        if rec.accepted:
            expected *= gamma
            succ += 1
        else:
            expected /= gamma
            fail += 1


QUAD_TOL = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)


class StrongConvexQuadratic:
    """F(x) = 0.5 ||x||^2."""

    def __init__(self, d):
        self.d = d

    def value_grad(self, x):
        return 0.5 * float(x @ x), x.copy()

    def exact_hessian_operator(self, x):
        return operator_from_dense(np.eye(self.d), norm_bound=1.0)

    def dense_hessian(self, x):
        return np.eye(self.d)


class TestTRTolerance:
    def make_config(self, **kw):
        defaults = dict(tol=OptimalityTolerances(eps_g=0.01, eps_H=0.1),
                        eta=0.5, alpha=0.5, nu=1.0 - 1e-12)
        defaults.update(kw)
        return TRConfig(**defaults)

    def test_radius_branch_dominates(self):
        config = self.make_config()
        assert tr_tolerance(config, 10.0) == 10.0

    def test_floor_branch(self):
        config = self.make_config()
        # alpha*(1-eta)*nu*eps_H = 0.5*0.5*1*0.1 = 0.025
        assert tr_tolerance(config, 1e-6) == pytest.approx(0.025)

    def test_monotone_in_radius(self):
        config = self.make_config()
        values = [tr_tolerance(config, d) for d in (1e-8, 1e-3, 0.1, 1.0, 50.0)]
        assert values == sorted(values)

    def test_needs_resolved_nu(self):
        config = TRConfig(tol=OptimalityTolerances(eps_g=0.01, eps_H=0.1))
        with pytest.raises(ConfigurationError):
            tr_tolerance(config, 1.0)


class TestRunTRQuadratic:
    def test_converges_and_decreases_monotonically(self):
        problem = StrongConvexQuadratic(6)
        config = TRConfig(tol=QUAD_TOL, delta0=1.0, max_iters=100)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.full(6, 10.0), rng_seed=0)
        assert result.converged
        assert result.grad_norm_final <= 1e-6
        accepted_f = [r.f_value for r in result.records if r.accepted]
        assert all(b < a for a, b in zip(accepted_f, accepted_f[1:]))

    def test_one_debug_line_per_iteration(self, caplog):
        problem = StrongConvexQuadratic(4)
        config = TRConfig(tol=QUAD_TOL, delta0=0.5, max_iters=100)
        with caplog.at_level("DEBUG", logger="subnewton.trust_region"):
            result = run_tr(problem, exact_hessian_source(problem), config,
                            x0=np.full(4, 3.0), rng_seed=1)
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "subnewton.trust_region"]
        assert len(result.records) > 1
        assert lines == [f"tr_optimal: {rec!r}" for rec in result.records]
        assert all(r.levelname == "DEBUG" for r in caplog.records)

    def test_radius_identity(self):
        problem = StrongConvexQuadratic(4)
        config = TRConfig(tol=QUAD_TOL, delta0=0.5, max_iters=100)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.full(4, 3.0), rng_seed=1)
        replay_radius_identity(result.records, 0.5, 2.0)

    def test_accepted_steps_decrease_by_eta_times_model(self):
        problem = StrongConvexQuadratic(5)
        config = TRConfig(tol=QUAD_TOL, delta0=2.0, eta=0.2, max_iters=100)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.full(5, 4.0), rng_seed=2)
        recs = result.records
        for i, rec in enumerate(recs):
            if not rec.accepted:
                continue
            f_next = recs[i + 1].f_value if i + 1 < len(recs) else result.f_final
            decrease = rec.f_value - f_next
            model_dec = decrease / rec.rho
            assert rec.rho >= config.eta
            assert decrease >= config.eta * model_dec * (1 - 1e-12)


class TestRunTRSaddle:
    def test_escapes_strict_saddle(self):
        problem = QuarticSaddle()
        config = TRConfig(tol=QUAD_TOL, delta0=1.0, max_iters=100)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.zeros(2), rng_seed=3)
        assert result.converged
        assert result.f_final <= -0.25 + 1e-6
        assert abs(abs(result.x[0]) - 1.0) < 1e-3
        # Certified against the dense exact Hessian.
        lam = np.linalg.eigvalsh(problem.dense_hessian(result.x))
        assert result.grad_norm_final <= 1e-6
        assert lam[0] >= -1e-3

    def test_tiny_nu_escapes_without_overflow(self):
        # K_H/kappa with kappa = nu/2 overflows for nu = 1e-308; the probe
        # no longer computes a budget from it.
        problem = QuarticSaddle()
        config = TRConfig(tol=QUAD_TOL, nu=1e-308, max_iters=100)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.zeros(2), rng_seed=3)
        assert result.converged
        assert result.f_final <= -0.25 + 1e-6

    def test_radius_floor_from_tracked_path(self):
        # kappa_Delta from the radius-floor analysis, computed with verified
        # path quantities (L and K_H from the largest coordinate queried).
        problem = TrackedOracle(QuarticSaddle())
        tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
        nu = 0.99
        config = TRConfig(tol=tol, delta0=1.0, eta=0.2, alpha=0.5, nu=nu,
                          max_iters=200, strict=True)
        result = run_tr(problem, exact_hessian_source(problem.inner), config,
                        x0=np.array([1e-3, 0.5]), rng_seed=4)
        assert result.converged
        box = problem.max_abs_coord
        lipschitz = 6.0 * box
        k_h = max(3.0 * box * box - 1.0, 1.0)
        eta, alpha, gamma = config.eta, config.alpha, config.gamma
        kappa1 = (1 - alpha) * (1 - eta) * nu / (lipschitz + 1)
        kappa2 = alpha * (1 - eta) * nu
        kappa3 = 1.0 / (1.0 + k_h)
        kappa4 = ((np.sqrt((alpha * (1 - eta) * nu) ** 2 + 4 * lipschitz * (1 - eta))
                   - alpha * (1 - eta) * nu) / (2 * lipschitz))
        kappa_delta = min(kappa1, kappa2, kappa3, kappa4) / gamma
        floor = kappa_delta * min(tol.eps_g, tol.eps_H)
        for rec in result.records:
            assert rec.radius_or_sigma >= floor * (1 - 1e-12)


class TestRunTRFiniteSum:
    def test_biweight_reaches_certified_optimality(self):
        problem = generate_synthetic("biweight", n=1000, d=50, rng_seed=7,
                                     k_max=1.0)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        config = TRConfig(tol=tol, delta0=1.0, max_iters=500, strict=True)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.zeros(50), rng_seed=8)
        assert result.converged
        assert result.grad_norm_final <= 1e-4
        lam_min = float(np.linalg.eigvalsh(problem.dense_hessian(result.x))[0])
        assert lam_min >= -(result.eps_final + 1e-2)

    def test_subsampled_run_converges(self):
        problem = generate_synthetic("biweight", n=600, d=20, rng_seed=9, k_max=1.0)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)

        def source(x, eps, delta, rng):
            scheme = resolve_scheme(problem, "uniform_without_replacement",
                                    min(eps, 0.9), delta)
            return build_subsampled_hessian(problem, x, scheme, rng_seed=rng)

        config = TRConfig(tol=tol, delta0=1.0, max_iters=500)
        result = run_tr(problem, source, config, x0=np.zeros(20), rng_seed=10)
        assert result.converged
        assert result.grad_norm_final <= 1e-4
        lam_min = float(np.linalg.eigvalsh(problem.dense_hessian(result.x))[0])
        assert lam_min >= -(result.eps_final + 1e-2)

    def test_operator_reused_on_rejection_with_exact_source(self):
        problem = generate_synthetic("biweight", n=200, d=10, rng_seed=11)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        source = CountingSource(exact_hessian_source(problem))
        # Tiny eta=?: keep default; large delta0 forces early rejections.
        config = TRConfig(tol=tol, delta0=64.0, max_iters=300)
        result = run_tr(problem, source, config, x0=np.zeros(10), rng_seed=12)
        assert result.converged
        rejected = result.n_rejected
        assert rejected > 0
        # Exact operators (accuracy 0) are reused across every rejection:
        # one build per accepted step plus the terminal check, at most.
        assert source.builds <= len(result.records) + 1 - rejected


class TestRunTRGuards:
    def test_non_finite_objective_aborts(self):
        class Bad:
            def value_grad(self, x):
                return float("nan"), x

        problem = StrongConvexQuadratic(3)
        config = TRConfig(tol=QUAD_TOL, max_iters=10)
        with pytest.raises(NonFiniteError):
            run_tr(Bad(), exact_hessian_source(problem), config,
                   x0=np.ones(3), rng_seed=0)

    def test_max_iters_flagged_not_converged(self):
        problem = StrongConvexQuadratic(8)
        config = TRConfig(tol=QUAD_TOL, delta0=1e-8, max_iters=3)
        result = run_tr(problem, exact_hessian_source(problem), config,
                        x0=np.full(8, 50.0), rng_seed=13)
        assert not result.converged
        assert len(result.records) == 3

    def test_strict_mode_validates_coupling(self):
        with pytest.raises(ConfigurationError):
            TRConfig(tol=OptimalityTolerances(eps_g=1e-6, eps_H=0.5), strict=True)


class TestHessianApplies:
    """Each model quantity is computed once, and each step's Hs comes from a
    product already made: the Cauchy point's from Hg, a subspace step's from
    the reduced block's HU. So an iteration makes 2 applies (Hg and the
    reduced block), plus 1 when it probes (<u,Hu>) and 1 per Eigen seed
    (H uhat); the terminating check adds 1 when it probes. A floor that
    certifies the curvature skips the probe: on the biweight cases every
    row reads "bound"; the quartic operator has no floor."""

    @staticmethod
    def counting_source(problem):
        calls = []
        exact = exact_hessian_source(problem)

        def source(x, eps, delta, rng):
            op = exact(x, eps, delta, rng)

            def apply(v, original=op.apply):
                calls.append(v.shape)
                return original(v)

            return replace(op, apply=apply)

        return source, calls

    @pytest.mark.parametrize("solver, case, applies, iterations", [
        ("tr", "biweight", 8, 4),
        ("arc", "biweight", 18, 9),
        ("tr", "saddle", 11, 3),
        ("arc", "saddle", 14, 4),
    ])
    def test_applies_per_iteration(self, monkeypatch, solver, case, applies,
                                   iterations):
        tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
        if case == "biweight":
            problem = generate_synthetic("biweight", 500, 10, rng_seed=3, k_max=1.0)
            x0, nu = np.zeros(10), None
        else:  # starts next to the saddle, where the probe finds an Eigen seed
            problem = QuarticSaddle()
            x0, nu = np.array([0.01, 0.2]), 0.5
        if solver == "tr":
            config, run = TRConfig(tol=tol, nu=nu), run_tr
        else:
            config, run = ARCConfig(tol=tol, nu=nu,
                                    l_estimate=problem.hessian_lipschitz_bound()), run_arc
        probes = []
        probe = trust_region.probe_extreme
        monkeypatch.setattr(trust_region, "probe_extreme",
                            lambda op: probes.append(op) or probe(op))
        source, calls = self.counting_source(problem)
        result = run(problem, source, config, x0=x0, rng_seed=0)
        assert result.converged
        assert len(result.records) == iterations
        probed = [rec for rec in result.records if rec.lambda_source == "probe"]
        assert len(probed) == (iterations if case == "saddle" else 0)
        eigen_seeds = sum(rec.lambda_min_estimate <= -0.5 * tol.eps_H for rec in probed)
        assert eigen_seeds == (case == "saddle")
        terminal = len(probes) - len(probed)
        assert terminal == (case == "saddle")
        assert len(calls) == applies
        assert applies == 2 * iterations + len(probed) + eigen_seeds + terminal


class TestCurvatureFloor:
    """A floor above -nu*eps_H skips the probe and changes no decision."""

    @pytest.mark.parametrize("solver", ["tr", "arc"])
    @pytest.mark.parametrize("hessian", ["exact", "uniform_wor", "nonuniform"])
    def test_floor_changes_no_decision(self, solver, hessian):
        from subnewton.harness import build_hessian_source, build_problem, parse_config_text
        config = parse_config_text(f"problem = biweight\nsolver = {solver}\n"
                                   f"hessian = {hessian}\nn = 600\nd = 12\n"
                                   f"k_max_target = 1.0\n")
        problem = build_problem(config)
        tol = OptimalityTolerances(eps_g=config.eps_g, eps_H=config.eps_h)
        if solver == "tr":
            loop, run = TRConfig(tol=tol), run_tr
        else:
            loop, run = ARCConfig(tol=tol, l_estimate=problem.hessian_lipschitz_bound()), run_arc
        floored = build_hessian_source(config, problem, loop.schedule)

        def unfloored(*args):
            return replace(floored(*args), lambda_floor=-np.inf)

        results = [run(problem, source, loop, x0=np.full(12, 0.5), rng_seed=7)
                   for source in (floored, unfloored)]
        assert results[0].converged and results[1].converged
        with_floor, probed = results[0].records, results[1].records
        assert [(r.accepted, r.sample_size) for r in with_floor] == [
            (r.accepted, r.sample_size) for r in probed]
        assert {r.lambda_source for r in probed} == {"probe"}
        bound = [(f, p) for f, p in zip(with_floor, probed) if f.lambda_source == "bound"]
        assert bound
        for f, p in bound:
            assert f.lambda_min_estimate <= p.lambda_min_estimate
            assert p.lambda_min_estimate > -0.5 * tol.eps_H
