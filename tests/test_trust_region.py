import math
from dataclasses import replace

import numpy as np
import pytest

from subnewton import subproblem, trust_region
from subnewton.core import ConfigurationError, NonFiniteError, OptimalityTolerances
from subnewton.problems import QuarticSaddle, generate_synthetic
from subnewton.sampling import hessian_source
from subnewton.trust_region import TRConfig, run_tr

from conftest import (DRIVERS, CountingSource, StrongConvexQuadratic, certified,
                      replay_updates)


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


QUAD_TOL = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)


class TestTRTolerance:
    def make_config(self, **kw):
        defaults = dict(tol=OptimalityTolerances(eps_g=0.01, eps_H=0.1),
                        eta=0.5, alpha=0.5, nu=1.0 - 1e-12)
        defaults.update(kw)
        return TRConfig(**defaults)

    def test_radius_branch_dominates(self):
        config = self.make_config()
        assert config.accuracy(1.0, 10.0) == 10.0

    def test_floor_branch(self):
        config = self.make_config()
        # alpha*(1-eta)*nu*eps_H = 0.5*0.5*1*0.1 = 0.025
        assert config.accuracy(1.0, 1e-6) == pytest.approx(0.025)

    def test_monotone_in_radius(self):
        config = self.make_config()
        values = [config.accuracy(1.0, d) for d in (1e-8, 1e-3, 0.1, 1.0, 50.0)]
        assert values == sorted(values)

    def test_needs_resolved_nu(self):
        config = TRConfig(tol=OptimalityTolerances(eps_g=0.01, eps_H=0.1))
        with pytest.raises(ConfigurationError):
            config.accuracy(1.0, 1.0)


@pytest.mark.parametrize("name", DRIVERS)
class TestDriverContract:
    """The loop's properties, one test each for TR and both ARC modes."""

    FINITE_TOL = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)

    def test_converges_on_quadratic_with_one_debug_line_per_iteration(self, name, caplog):
        driver, problem = DRIVERS[name], StrongConvexQuadratic(6)
        config = driver.config(problem, QUAD_TOL)
        with caplog.at_level("DEBUG", logger="subnewton.trust_region"):
            result = driver.run(problem, hessian_source(problem), config,
                                x0=np.full(6, 5.0), rng_seed=0)
        assert result.converged
        assert result.grad_norm_final <= QUAD_TOL.eps_g
        # The models bound F's decrease from below on a quadratic (rho >= 1
        # up to rounding), so every step is accepted and F falls strictly.
        assert len(result.records) > 1
        assert all(rec.accepted for rec in result.records)
        f_values = [rec.f_value for rec in result.records] + [result.f_final]
        assert all(b < a for a, b in zip(f_values, f_values[1:]))
        assert not replay_updates(result, config)
        lines = [r.getMessage() for r in caplog.records if r.name == "subnewton.trust_region"]
        assert lines == [f"{config.schedule}: {rec!r}" for rec in result.records]
        assert all(r.levelname == "DEBUG" for r in caplog.records)

    def test_escapes_strict_saddle(self, name):
        driver, problem = DRIVERS[name], QuarticSaddle()
        config = driver.config(problem, QUAD_TOL)
        result = driver.run(problem, hessian_source(problem), config,
                            x0=np.zeros(2), rng_seed=3)
        assert result.f_final <= -0.25 + 1e-6
        assert abs(abs(result.x[0]) - 1.0) < 1e-3
        assert certified(result, problem, QUAD_TOL)
        replay_updates(result, config)

    @pytest.mark.parametrize("hessian", ["exact", "uniform_wor"])
    def test_biweight_certified_and_replayed(self, name, hessian):
        driver = DRIVERS[name]
        problem = generate_synthetic("biweight", n=600, d=20, rng_seed=9, k_max=1.0)
        config = driver.config(problem, self.FINITE_TOL, max_iters=500)
        result = driver.run(problem, hessian_source(problem, hessian), config,
                            x0=np.zeros(20), rng_seed=10)
        assert certified(result, problem, self.FINITE_TOL)
        assert not replay_updates(result, config)

    def test_exact_operator_reused_on_every_rejection(self, name):
        driver = DRIVERS[name]
        problem = generate_synthetic("biweight", n=200, d=10, rng_seed=11)
        source = CountingSource(hessian_source(problem))
        config = driver.config(problem, self.FINITE_TOL, driver.rejecting_start,
                               max_iters=300)
        result = driver.run(problem, source, config, x0=np.zeros(10), rng_seed=12)
        assert result.converged
        rejected = result.n_rejected
        assert rejected > 0
        # Exact operators (accuracy 0) are reused across every rejection:
        # one build per accepted step plus the first, at most.
        assert source.builds <= len(result.records) + 1 - rejected

    def test_non_finite_objective_aborts(self, name):
        class Bad:
            def value_grad(self, x):
                return float("nan"), x

        driver, problem = DRIVERS[name], StrongConvexQuadratic(3)
        with pytest.raises(NonFiniteError):
            driver.run(Bad(), hessian_source(problem), driver.config(problem, QUAD_TOL),
                       x0=np.ones(3), rng_seed=0)

    def test_max_iters_flagged_not_converged(self, name):
        driver, problem = DRIVERS[name], StrongConvexQuadratic(8)
        config = driver.config(problem, QUAD_TOL, max_iters=3)
        result = driver.run(problem, hessian_source(problem), config,
                            x0=np.full(8, 50.0), rng_seed=13)
        assert not result.converged
        assert len(result.records) == 3


class TestRunTRSaddle:
    def test_tiny_nu_escapes_without_overflow(self):
        # K_H/kappa with kappa = nu/2 overflows for nu = 1e-308; the probe
        # no longer computes a budget from it.
        problem = QuarticSaddle()
        config = TRConfig(tol=QUAD_TOL, nu=1e-308, max_iters=100)
        result = run_tr(problem, hessian_source(problem), config,
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
        result = run_tr(problem, hessian_source(problem.inner), config,
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


class TestReplayHelpers:
    """``replay_updates`` and ``certified`` pass on real runs, and the
    replay catches each one-field corruption of a trace."""

    @pytest.mark.parametrize("name", DRIVERS)
    def test_helpers_pass_real_runs_and_catch_corruption(self, name):
        driver = DRIVERS[name]
        problem = generate_synthetic("biweight", n=200, d=10, rng_seed=11)
        tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
        config = driver.config(problem, tol, driver.rejecting_start, max_iters=300)
        run = driver.run
        result = run(problem, hessian_source(problem), config, np.zeros(10), rng_seed=12)
        assert certified(result, problem, tol)
        assert not replay_updates(result, config)

        records = result.records
        rejected = next(i for i, rec in enumerate(records[:-1]) if not rec.accepted)

        def corrupt(i, **fields):
            rows = list(records)
            if fields:
                rows[i] = replace(rows[i], **fields)
            else:
                del rows[i]
            return replace(result, records=tuple(rows))

        param = records[1].radius_or_sigma
        f_after = records[rejected + 1].f_value
        accepted = next(i for i, rec in enumerate(records) if rec.accepted)
        for bad in (corrupt(0, accepted=not records[0].accepted),
                    corrupt(1, radius_or_sigma=math.nextafter(param, math.inf)),
                    corrupt(1),
                    corrupt(len(records) - 1),
                    corrupt(rejected + 1, f_value=math.nextafter(f_after, -math.inf)),
                    corrupt(accepted, model_decrease=records[accepted].model_decrease / 2)):
            with pytest.raises(AssertionError):
                replay_updates(bad, config)

        if name != "tr":
            # A floor above the run's smallest sigma binds, and the replay
            # follows it.
            floored = replace(config, sigma_min=5e-3)
            result = run(problem, hessian_source(problem), floored, np.zeros(10),
                         rng_seed=12)
            assert replay_updates(result, floored)

        # At (0.5, 0) the saddle's gradient norm is 0.375 and lambda_min is
        # -0.25: the run stops at once under loose tolerances, and the
        # certificate fails once eps_H is below 0.25.
        saddle, loose = QuarticSaddle(), OptimalityTolerances(eps_g=0.5, eps_H=0.9)
        stopped = run(saddle, hessian_source(saddle), driver.config(saddle, loose),
                      np.array([0.5, 0.0]))
        assert not stopped.records
        assert certified(stopped, saddle, loose)
        assert not certified(stopped, saddle, replace(loose, eps_H=0.2))


class TestHessianApplies:
    """Each model quantity is computed once, each basis vector of the
    sub-problem's span carries its H-image, and each step's Hs comes from a
    product already made. Every apply is one column. An iteration applies H
    to g, which gives the Cauchy seed its image -alpha*Hg, in TR and ARC
    alike; the sub-problem then applies H once per column it grows the span
    by without a held image ("grown"): in TR and ARC standard that is Hg,
    skipped when Hg lies in the span of the seeds before it (on the saddle,
    once g is an eigenvector, or once the Cauchy and Eigen seeds span the
    plane); in ARC optimal it is each Krylov vector, none when cond5 holds on
    the seeds' span. A probe adds 1 (<u,Hu>) and an Eigen seed 1 (H uhat);
    the terminating check adds 1 when it probes. A floor that certifies the
    curvature skips the probe: on the biweight cases every row reads
    "bound"; the quartic operator has no floor."""

    @staticmethod
    def counting_source(problem):
        calls = []
        exact = hessian_source(problem)

        def source(x, eps, delta, rng):
            op = exact(x, eps, delta, rng)

            def apply(v, original=op.apply):
                calls.append(v.shape)
                return original(v)

            return replace(op, apply=apply)

        return source, calls

    @pytest.mark.parametrize("name, case, applies, grown, iterations", [
        ("tr", "biweight", 8, 4, 4),
        ("arc_standard", "biweight", 18, 9, 9),
        ("arc_optimal", "biweight", 13, 4, 9),
        ("tr", "saddle", 9, 1, 3),
        ("arc_standard", "saddle", 13, 3, 4),
        ("arc_optimal", "saddle", 13, 3, 4),
    ])
    def test_applies_per_iteration(self, monkeypatch, name, case, applies,
                                   grown, iterations):
        tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
        if case == "biweight":
            problem = generate_synthetic("biweight", 500, 10, rng_seed=3, k_max=1.0)
            x0, nu = np.zeros(10), None
        else:  # starts next to the saddle, where the probe finds an Eigen seed
            problem = QuarticSaddle()
            x0, nu = np.array([0.01, 0.2]), 0.5
        driver = DRIVERS[name]
        probes = []
        probe = trust_region.probe_extreme
        monkeypatch.setattr(trust_region, "probe_extreme",
                            lambda op: probes.append(op) or probe(op))
        source, calls = self.counting_source(problem)
        result = driver.run(problem, source, driver.config(problem, tol, nu=nu),
                            x0=x0, rng_seed=0)
        assert result.converged
        assert len(result.records) == iterations
        probed = [rec for rec in result.records if rec.lambda_source == "probe"]
        assert len(probed) == (iterations if case == "saddle" else 0)
        eigen_seeds = sum(rec.lambda_min_estimate <= -0.5 * tol.eps_H for rec in probed)
        assert eigen_seeds == (case == "saddle")
        terminal = len(probes) - len(probed)
        assert terminal == (case == "saddle")
        assert len(calls) == applies
        columns = sum(1 if len(shape) == 1 else shape[1] for shape in calls)
        assert columns == applies
        assert applies == iterations + grown + len(probed) + eigen_seeds + terminal


class TestOneStepPath:
    """TR takes the step ARC takes: one solve seeded with the Cauchy point
    and, given a negative-curvature direction, the Eigen point, which does
    at least as well as both in model value."""

    def test_tr_step_seeds_cauchy_and_eigen_points(self, monkeypatch):
        points = []  # (name, m(s)) of every seed point made
        for name in ("cauchy_point", "eigen_point"):
            def logged(model, *args, original=getattr(subproblem, name), name=name):
                point = original(model, *args)
                points.append((name, point.model_value))
                return point
            monkeypatch.setattr(subproblem, name, logged)
        steps = []  # (seed points made for it, had a direction, m(s)) per step
        step = TRConfig.step

        def logged_step(self, *args):
            made = len(points)
            solution = step(self, *args)
            steps.append((points[made:], args[-2] is not None, solution.model_value))
            return solution

        monkeypatch.setattr(TRConfig, "step", logged_step)
        problem = QuarticSaddle()
        config = TRConfig(tol=OptimalityTolerances(eps_g=1e-6, eps_H=1e-3), nu=0.5)
        result = run_tr(problem, hessian_source(problem), config,
                        x0=np.array([0.01, 0.2]), rng_seed=0)
        assert result.converged
        assert len(steps) == len(result.records)
        assert sum(eigen for _, eigen, _ in steps) == 1
        for made, eigen, value in steps:
            assert [name for name, _ in made] == ["cauchy_point"] + ["eigen_point"] * eigen
            assert all(value <= seed_value for _, seed_value in made)


class TestCurvatureFloor:
    """A floor above -nu*eps_H skips the probe and changes no decision."""

    @pytest.mark.parametrize("name", DRIVERS)
    @pytest.mark.parametrize("hessian", ["exact", "uniform_wor", "nonuniform"])
    def test_floor_changes_no_decision(self, name, hessian):
        from subnewton.harness import build_problem, parse_config_text
        config = parse_config_text(f"problem = biweight\nhessian = {hessian}\n"
                                   f"n = 600\nd = 12\nk_max_target = 1.0\n")
        problem = build_problem(config)
        tol = OptimalityTolerances(eps_g=config.eps_g, eps_H=config.eps_h)
        driver = DRIVERS[name]
        loop = driver.config(problem, tol)
        floored = hessian_source(problem, config.hessian, config.eps_cap)

        def unfloored(*args):
            return replace(floored(*args), lambda_floor=-np.inf)

        results = [driver.run(problem, source, loop, x0=np.full(12, 0.5), rng_seed=7)
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
