"""Degenerate sizes and unusual-but-legal inputs across the stack."""

import numpy as np
import pytest

from subnewton.core import OptimalityTolerances
from subnewton.cubic_reg import ARCConfig, run_arc
from subnewton.curvature import probe_extreme
from subnewton.problems import BIWEIGHT, FiniteSumProblem, generate_synthetic
from subnewton.sampling import SampleScheme, build_subsampled_hessian, hessian_source
from subnewton.subproblem import CubicModel, TRModel, subspace_solve
from subnewton.trust_region import TRConfig, run_tr

from conftest import operator_from_dense


class TestOneDimensional:
    def test_lanczos_on_scalar_operator(self):
        op = operator_from_dense(np.array([[-0.7]]))
        res = probe_extreme(op)
        assert res.converged
        assert res.rayleigh == pytest.approx(-0.7, abs=1e-12)

    def test_subspace_solvers_scalar(self):
        g = np.array([2.0])
        h = np.array([[3.0]])
        tr = TRModel(grad=g, hessian=operator_from_dense(h), radius=0.5)
        sol = subspace_solve(tr, [g])
        assert sol.step[0] == pytest.approx(-0.5)  # boundary: |g/h| > radius
        arc = CubicModel(grad=g, hessian=operator_from_dense(h), sigma=1.0)
        sol = subspace_solve(arc, [g])
        # Stationarity of the scalar cubic: g + h*s + sigma*|s|*s = 0.
        s = sol.step[0]
        assert 2.0 + 3.0 * s + abs(s) * s == pytest.approx(0.0, abs=1e-9)

    def test_solvers_on_1d_problem(self):
        problem = generate_synthetic("biweight", n=50, d=1, rng_seed=0)
        tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-2)
        tr = run_tr(problem, hessian_source(problem),
                    TRConfig(tol=tol, max_iters=200), np.zeros(1), rng_seed=1)
        assert tr.converged
        arc = run_arc(problem, hessian_source(problem),
                      ARCConfig(tol=tol, max_iters=200,
                                l_estimate=problem.hessian_lipschitz_bound()),
                      np.zeros(1), rng_seed=1)
        assert arc.converged


class TestTinyDatasets:
    def test_single_row_problem(self):
        problem = FiniteSumProblem(rows=np.array([[1.0, 2.0]]),
                                   targets=np.array([0.5]), loss=BIWEIGHT)
        f, g = problem.value_grad(np.zeros(2))
        assert np.isfinite(f) and np.all(np.isfinite(g))
        scheme = SampleScheme(mode="uniform_without_replacement", epsilon=0.9,
                              delta=0.5, resolved_size=1)
        op = build_subsampled_hessian(problem, np.zeros(2), scheme, rng_seed=0)
        assert np.allclose(op.apply(np.ones(2)),
                           problem.dense_hessian(np.zeros(2)) @ np.ones(2))

    def test_huge_gradient_start(self):
        problem = generate_synthetic("biweight", n=100, d=5, rng_seed=1, k_max=1.0)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        res = run_tr(problem, hessian_source(problem),
                     TRConfig(tol=tol, max_iters=500), 100.0 * np.ones(5),
                     rng_seed=2)
        # Far field of the bi-weight is nearly flat: any certified point is
        # acceptable, the run just must terminate cleanly.
        assert res.converged
        assert res.grad_norm_final <= 1e-4


class TestOperatorEdges:
    def test_zero_operator(self):
        op = operator_from_dense(np.zeros((3, 3)))
        assert op.norm_bound == 0.0
        res = probe_extreme(op)
        assert res.converged
        assert res.rayleigh == pytest.approx(0.0, abs=1e-12)

    def test_subspace_with_huge_norm_spread(self):
        # Mixed-scale basis vectors orthonormalize without blowups.
        g = np.array([1.0, 1e-8, 1e8])
        h = np.diag([1.0, -2.0, 0.5])
        tr = TRModel(grad=g, hessian=operator_from_dense(h), radius=1.0)
        sol = subspace_solve(tr, [g, h @ g, np.array([0.0, 1.0, 0.0])])
        assert np.linalg.norm(sol.step) <= 1.0 + 1e-12
        assert sol.model_value < 0
