import numpy as np
import pytest

from subnewton.core import ConfigurationError, OptimalityTolerances
from subnewton.cubic_reg import ARCConfig, run_arc
from subnewton.problems import QuarticSaddle, generate_synthetic
from subnewton.subproblem import CubicModel, certificates
from subnewton.sampling import hessian_source

from conftest import QueryRecorder, replay_updates

QUAD_TOL = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)


class TestArcEpsilon:
    def make_config(self, **kw):
        defaults = dict(tol=OptimalityTolerances(eps_g=0.99, eps_H=0.99),
                        eta=0.5, nu=1.0 - 1e-12, l_estimate=1.0)
        defaults.update(kw)
        return ARCConfig(**defaults)

    def test_zero_k_collapses_surd(self):
        tol = OptimalityTolerances(eps_g=0.5, eps_H=0.3)
        config = self.make_config(tol=tol)
        expected = min(np.sqrt(8.0 * 0.5) / 12.0, 0.3 / 6.0)
        assert config.accuracy(0.0, config.sigma0) == pytest.approx(expected, rel=1e-12)

    def test_exact_surd_reference(self):
        # eta=0.5, L=1, K_H=1, eps_g=eps_H=nu -> 1: sqrt(9)=3 makes both
        # branches 1/6; tolerances live in (0,1), so take the limit.
        eps = 1.0 - 1e-9
        config = self.make_config(tol=OptimalityTolerances(eps_g=eps, eps_H=eps))
        assert config.accuracy(1.0, config.sigma0) == pytest.approx(1.0 / 6.0, rel=1e-8)

    def test_monotone_in_tolerances(self):
        for eg, eh in [(0.1, 0.1), (0.2, 0.1), (0.1, 0.2), (0.4, 0.4)]:
            smaller = self.make_config(tol=OptimalityTolerances(eps_g=eg / 2,
                                                                eps_H=eh / 2))
            larger = self.make_config(tol=OptimalityTolerances(eps_g=eg, eps_H=eh))
            assert (smaller.accuracy(1.0, smaller.sigma0)
                    <= larger.accuracy(1.0, larger.sigma0))

    def test_optimal_mode_adds_zeta_branch(self):
        tol = OptimalityTolerances(eps_g=1e-3, eps_H=0.5)
        standard = self.make_config(tol=tol)
        optimal = self.make_config(tol=tol, mode="optimal", zeta=0.25)
        assert optimal.accuracy(1.0, optimal.sigma0) <= min(
            standard.accuracy(1.0, standard.sigma0), 0.25 * 1e-3)


class TestRunArcFiniteSum:
    def test_sigma_bounded_by_lipschitz_estimate(self):
        # With a verified upper L plugged into the epsilon formula, sigma can
        # never exceed max(sigma0, 2*gamma*L).
        problem = generate_synthetic("biweight", n=400, d=20, rng_seed=5, k_max=1.0)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        l_hat = problem.hessian_lipschitz_bound()
        config = ARCConfig(tol=tol, sigma0=1e-4, max_iters=500, l_estimate=l_hat)
        result = run_arc(problem, hessian_source(problem), config,
                         x0=np.zeros(20), rng_seed=6)
        assert result.converged
        replay_updates(result, config, lipschitz=l_hat)


class TestRunArcOptimalMode:
    def test_gradient_inexactness_bound_on_every_accepted_step(self):
        problem = generate_synthetic("biweight", n=300, d=12, rng_seed=9, k_max=1.0)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        config = ARCConfig(tol=tol, mode="optimal", zeta=0.25, max_iters=500,
                           l_estimate=problem.hessian_lipschitz_bound())
        oracle = QueryRecorder(problem)
        result = run_arc(oracle, hessian_source(problem), config,
                         x0=np.zeros(12), rng_seed=10)
        assert result.converged
        checked = 0
        for rec, (x_t, trial) in zip(result.records,
                                     oracle.iteration_points(len(result.records))):
            step = trial - x_t
            _, grad = problem.value_grad(x_t)
            model = CubicModel(grad=grad,
                               hessian=problem.exact_hessian_operator(x_t),
                               sigma=rec.radius_or_sigma)
            certs = certificates(model, step, zeta=config.zeta)
            if rec.accepted:
                assert certs.cond5_met
                checked += 1
        assert checked >= 1

    def test_step_norm_lower_bound_gated(self):
        # ||s_t|| >= kappa_g * sqrt(||grad F(x_{t+1})||) on accepted steps
        # whose iteration satisfied the per-iteration accuracy hypothesis
        # (exact Hessians: eps = 0, always satisfied).
        problem = QuarticSaddle()
        tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
        zeta = 0.25
        config = ARCConfig(tol=tol, mode="optimal", zeta=zeta, max_iters=300,
                           l_estimate=24.0, sigma0=1.0)
        result = run_arc(problem, hessian_source(problem), config,
                         x0=np.array([1e-3, 1.0]), rng_seed=11)
        assert result.converged
        l_hat = 24.0
        k_bound = 11.0  # ||hessian|| on |x| <= 2
        gamma = config.gamma
        kappa_g = (2 * (1 - 2 * zeta)
                   / ((1 + 4 * gamma) * l_hat
                      + 2 * max(0.0 + zeta * max(1.0, k_bound),
                                2 * zeta * max(1.0, k_bound))))
        recs = result.records
        for i, rec in enumerate(recs):
            if not rec.accepted:
                continue
            grad_next = (recs[i + 1].grad_norm if i + 1 < len(recs)
                         else result.grad_norm_final)
            assert rec.step_norm >= kappa_g * np.sqrt(grad_next) * (1 - 1e-9)


class TestConfigValidation:
    def test_optimal_mode_zeta_range(self):
        with pytest.raises(ConfigurationError):
            ARCConfig(tol=QUAD_TOL, mode="optimal", zeta=0.7)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError):
            ARCConfig(tol=QUAD_TOL, mode="fancy")
