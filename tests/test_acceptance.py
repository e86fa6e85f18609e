"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the
per-criterion lines; they are also written unconditionally to stderr).
"""

import sys
import time

import numpy as np
import pytest

from subnewton.core import OptimalityTolerances
from subnewton.cubic_reg import ARCConfig, run_arc
from subnewton.problems import (BIWEIGHT, NLS_LOGISTIC, QuarticSaddle,
                                generate_synthetic)
from subnewton.sampling import SampleScheme, hessian_source, verify_concentration
from subnewton.subproblem import (CubicModel, TRModel, cauchy_point,
                                  certificates, eigen_point, subspace_solve)
from subnewton.trust_region import TRConfig, run_tr

from conftest import (QueryRecorder, biweight_scalar, capped_scheme, certified,
                      nls_logistic_scalar, operator_from_dense, replay_updates)

SLACK = 1e-9


def report(criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def random_instance(rng, d):
    m = rng.standard_normal((d, d))
    h = 0.5 * (m + m.T) * rng.uniform(0.2, 2.0)
    g = rng.standard_normal(d) * rng.uniform(0.1, 3.0)
    return g, h


def met(achieved, required):
    return achieved - required >= -SLACK * max(1.0, abs(required))


# ---------------------------------------------------------------------------
# 1. Descent-certificate suite
# ---------------------------------------------------------------------------

def test_criterion_1_descent_certificates():
    start = time.time()
    rng = np.random.default_rng(101)
    checked = eigen_checked = 0
    for _ in range(200):
        d = int(rng.integers(2, 21))
        g, h = random_instance(rng, d)
        radius = float(rng.uniform(0.1, 5.0))
        sigma = float(rng.uniform(0.05, 5.0))
        lam, q = np.linalg.eigh(h)
        k_h = float(np.max(np.abs(lam)))
        gn = float(np.linalg.norm(g))

        tr = TRModel(grad=g, hessian=_op(h, k_h), radius=radius)
        cauchy = cauchy_point(tr)
        # Ball-model Cauchy decrease, with ||H|| relaxed to K_H.
        assert met(-cauchy.model_value,
                   0.5 * gn * min(gn / (1.0 + k_h), radius))
        arc = CubicModel(grad=g, hessian=_op(h, k_h), sigma=sigma)
        arc_c = cauchy_point(arc)
        # Cubic-model Cauchy decrease: both lower bounds, the first
        # evaluated at the Cauchy step norm.
        sc = float(np.linalg.norm(arc_c.step))
        b1 = sc**2 / 12.0 * (np.sqrt(k_h**2 + 4 * sigma * gn) - k_h)
        b2 = gn / (2 * np.sqrt(3.0)) * min(gn / k_h if k_h > 0 else np.inf,
                                           np.sqrt(gn / sigma))
        assert met(-arc_c.model_value, max(b1, b2))

        tr_basis = [g, h @ g]
        arc_basis = [arc_c.step, g, h @ g]
        tr_seed_vals = [cauchy.model_value]
        arc_seed_vals = [arc_c.model_value]
        if lam[0] < 0:
            u = q[:, 0]
            nu_hat = -float(u @ h @ u)
            tr_e = eigen_point(tr, u)
            # Ball-model eigen decrease with the realized curvature.
            assert met(-tr_e.model_value, 0.5 * nu_hat * radius**2)
            arc_e = eigen_point(arc, u)
            se = float(np.linalg.norm(arc_e.step))
            # Cubic-model eigen decrease with the realized curvature.
            assert met(-arc_e.model_value,
                       nu_hat / 6.0 * max(se**2, nu_hat**2 / sigma**2))
            tr_basis.append(u)
            arc_basis.append(arc_e.step)
            tr_seed_vals.append(tr_e.model_value)
            arc_seed_vals.append(arc_e.model_value)
            eigen_checked += 1

        tr_sub = subspace_solve(tr, tr_basis)
        assert tr_sub.model_value <= min(tr_seed_vals) + SLACK
        arc_sub = subspace_solve(arc, arc_basis)
        assert arc_sub.model_value <= min(arc_seed_vals) + SLACK
        checked += 1
    elapsed = time.time() - start
    report(1, checked == 200 and eigen_checked >= 50 and elapsed < 10.0,
           f"200 instances ({eigen_checked} with negative curvature), "
           f"{elapsed:.1f}s")


def _op(h, k_h=None):
    return operator_from_dense(h, norm_bound=k_h)


# ---------------------------------------------------------------------------
# 2. Sub-problem oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(202)
    # 1-D Cauchy vs 1e6-point scans, window spacing ~1e-6.
    for _ in range(15):
        d = int(rng.integers(2, 8))
        g, h = random_instance(rng, d)
        gn = float(np.linalg.norm(g))

        tr = TRModel(grad=g, hessian=_op(h), radius=float(rng.uniform(0.2, 3.0)))
        sol = cauchy_point(tr)
        tau_star = float(np.linalg.norm(sol.step)) / tr.radius
        taus = np.linspace(0.0, 1.0, 10**6)
        ghg = float(g @ h @ g) / gn**2
        vals = -taus * tr.radius * gn + 0.5 * (taus * tr.radius) ** 2 * ghg
        k = int(np.argmin(vals))
        assert abs(tau_star - taus[k]) <= 1.1e-6
        assert sol.model_value <= vals[k] + SLACK

        arc = CubicModel(grad=g, hessian=_op(h), sigma=float(rng.uniform(0.1, 4.0)))
        sol = cauchy_point(arc)
        alpha_star = float(np.linalg.norm(sol.step)) / gn
        lo = max(0.0, alpha_star - 0.5)
        alphas = np.linspace(lo, lo + 1.0, 10**6)
        ghg = float(g @ h @ g)
        vals = (-alphas * gn**2 + 0.5 * alphas**2 * ghg
                + arc.sigma / 3.0 * (alphas * gn) ** 3)
        k = int(np.argmin(vals))
        assert abs(alpha_star - alphas[k]) <= 1.1e-6
        assert sol.model_value <= vals[k] + SLACK

    # d=2 subspace solves vs dense brute force, 1e-4 in model value.
    basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    for _ in range(10):
        g, h = random_instance(rng, 2)
        radius = float(rng.uniform(0.3, 2.0))
        tr = TRModel(grad=g, hessian=_op(h), radius=radius)
        sol = subspace_solve(tr, basis)
        grid = np.linspace(-radius, radius, 1500)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= radius]
        vals = pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
        assert sol.model_value <= float(vals.min()) + 1e-4

        arc = CubicModel(grad=g, hessian=_op(h), sigma=float(rng.uniform(0.3, 2.0)))
        sol = subspace_solve(arc, basis)
        grid = np.linspace(-3.0, 3.0, 1500)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        norms = np.linalg.norm(pts, axis=1)
        vals = (pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)
                + arc.sigma / 3.0 * norms**3)
        assert sol.model_value <= float(vals.min()) + 1e-4
    elapsed = time.time() - start
    report(2, elapsed < 60.0, f"30 ray scans + 20 planar solves, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Concentration of the sub-sampled Hessian
# ---------------------------------------------------------------------------

def test_criterion_3_concentration():
    start = time.time()
    problem = generate_synthetic("biweight", n=5000, d=30, rng_seed=42, k_max=1.0)
    assert problem.k_max == pytest.approx(1.0)
    x = np.zeros(30)
    trials = 1000
    # (eps, delta) grid; the last point is tight enough that the Bernstein
    # prescription exceeds n and is capped (the full sample is exact).
    grid = [(0.50, 0.05), (0.30, 0.10), (0.20, 0.10), (0.0027, 0.10)]
    rows = []
    for mode in ("uniform_wor", "nonuniform"):
        for i, (eps, delta) in enumerate(grid):
            scheme = capped_scheme(problem, mode, eps, delta)
            rate = verify_concentration(problem, x, scheme, trials,
                                        rng_seed=1000 + i)
            rows.append((mode, eps, delta, scheme.resolved_size, rate))
            assert rate <= delta, (mode, eps, delta, rate)
    # Negative control: a quarter of the capped tight-eps uniform size.
    eps_tight, delta_tight = grid[-1]
    control = SampleScheme(mode="uniform_wor",
                           epsilon=eps_tight, delta=delta_tight,
                           resolved_size=problem.n // 4)
    control_rate = verify_concentration(problem, x, control, trials,
                                        rng_seed=2000)
    assert control_rate > delta_tight, control_rate
    elapsed = time.time() - start
    report(3, elapsed < 300.0,
           f"{len(rows)} grid points all within delta, control rate "
           f"{control_rate:.3f} > {delta_tight}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Saddle escape
# ---------------------------------------------------------------------------

def test_criterion_4_saddle_escape():
    start = time.time()
    problem = QuarticSaddle()
    tol = OptimalityTolerances(eps_g=1e-6, eps_H=1e-3)
    x0 = np.zeros(2)
    results = {}
    tr_cfg = TRConfig(tol=tol, delta0=1.0, max_iters=200)
    results["tr"] = run_tr(problem, hessian_source(problem), tr_cfg,
                           x0, rng_seed=4)
    arc_cfg = ARCConfig(tol=tol, sigma0=1.0, max_iters=200, l_estimate=24.0)
    results["arc"] = run_arc(problem, hessian_source(problem), arc_cfg,
                             x0, rng_seed=4)
    for name, res in results.items():
        assert certified(res, problem, tol), name
        assert res.f_final <= -0.25 + 1e-6, (name, res.f_final)
    elapsed = time.time() - start
    report(4, elapsed < 5.0,
           f"tr F={results['tr'].f_final:.6f}, arc F={results['arc'].f_final:.6f}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Trace identities
# ---------------------------------------------------------------------------

def test_criterion_5_trace_identities():
    start = time.time()
    tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
    problem = generate_synthetic("biweight", n=500, d=20, rng_seed=5, k_max=1.0)
    l_hat = problem.hessian_lipschitz_bound()
    runs = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x0 = 0.7 * rng.standard_normal(20) / np.sqrt(20)
        tr_cfg = TRConfig(tol=tol, delta0=float(2.0 ** (seed - 1)), max_iters=500)
        runs.append((tr_cfg, None,
                     run_tr(problem, hessian_source(problem), tr_cfg,
                            x0, rng_seed=seed)))
        arc_cfg = ARCConfig(tol=tol, sigma0=float(2.0 ** (1 - seed)),
                            max_iters=500, l_estimate=l_hat)
        runs.append((arc_cfg, l_hat,
                     run_arc(problem, hessian_source(problem), arc_cfg,
                             x0, rng_seed=seed)))
    n_records = 0
    for cfg, lipschitz, res in runs:
        assert res.converged
        n_records += len(res.records)
        # The underflow guard must never bind, or the closed-form identity
        # would no longer be exact.
        assert not replay_updates(res, cfg, lipschitz)
    elapsed = time.time() - start
    report(5, n_records > 0,
           f"8 runs, {n_records} records replayed exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Finite-sum end-to-end
# ---------------------------------------------------------------------------

def test_criterion_6_finite_sum_end_to_end():
    start = time.time()
    tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
    delta_total = 0.1
    n_seeds = 20
    failures = []
    sampled_ok = sampled_total = 0
    for loss in ("biweight", "nls_logistic"):
        problem = generate_synthetic(loss, n=1000, d=50, rng_seed=42, k_max=1.0)
        l_hat = problem.hessian_lipschitz_bound()
        for solver in ("tr", "arc"):
            for hess_mode in ("exact", "sampled"):
                source = hessian_source(problem, "exact" if hess_mode == "exact"
                                        else "uniform_wor")
                for seed in range(n_seeds):
                    rng = np.random.default_rng(10_000 + seed)
                    x0 = 0.5 * rng.standard_normal(50) / np.sqrt(50)
                    if solver == "tr":
                        cfg = TRConfig(tol=tol, delta0=1.0, max_iters=500,
                                       delta_total=delta_total)
                        lipschitz, run = None, run_tr
                    else:
                        cfg = ARCConfig(tol=tol, sigma0=1.0, max_iters=500,
                                        l_estimate=l_hat,
                                        delta_total=delta_total)
                        lipschitz, run = l_hat, run_arc
                    res = run(problem, source, cfg, x0, rng_seed=seed)
                    replay_updates(res, cfg, lipschitz)
                    ok = certified(res, problem, tol)
                    if hess_mode == "sampled":
                        sampled_total += 1
                        sampled_ok += ok
                    elif not ok:
                        failures.append((loss, solver, seed,
                                         res.grad_norm_final))
    elapsed = time.time() - start
    assert not failures, failures
    assert sampled_ok >= (1.0 - delta_total) * sampled_total
    report(6, elapsed < 600.0,
           f"exact runs 80/80, sampled runs {sampled_ok}/{sampled_total}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Derivative consistency
# ---------------------------------------------------------------------------

def test_criterion_7_derivative_consistency():
    start = time.time()
    rng = np.random.default_rng(707)
    h = 1e-5
    for fn, targets in ((biweight_scalar, rng.uniform(-3, 3, 20)),
                        (nls_logistic_scalar, rng.integers(0, 2, 20).astype(float))):
        z = rng.uniform(-8, 8, 20)
        _, d1, d2 = fn(z, targets)
        vp, d1p, _ = fn(z + h, targets)
        vm, d1m, _ = fn(z - h, targets)
        fd1 = (vp - vm) / (2 * h)
        fd2 = (d1p - d1m) / (2 * h)
        assert np.allclose(d1, fd1, rtol=1e-6, atol=1e-8)
        assert np.allclose(d2, fd2, rtol=1e-6, atol=1e-7)

    # Gradient/Hessian of the finite sums vs directional differences.
    for loss in ("biweight", "nls_logistic"):
        problem = generate_synthetic(loss, n=200, d=12, rng_seed=7)
        x = rng.standard_normal(12) * 0.5
        _, grad = problem.value_grad(x)
        dense = problem.dense_hessian(x)
        for _ in range(5):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            fp, gp = problem.value_grad(x + h * v)
            fm, gm = problem.value_grad(x - h * v)
            assert float(grad @ v) == pytest.approx((fp - fm) / (2 * h),
                                                    rel=1e-6, abs=1e-8)
            assert np.allclose(dense @ v, (gp - gm) / (2 * h),
                               rtol=1e-4, atol=1e-6)

    # Per-row curvature bounds over 1e4 random scalar probes per loss.
    z = rng.uniform(-40, 40, 10**4)
    for loss, targets in ((BIWEIGHT, rng.uniform(-4, 4, 10**4)),
                          (NLS_LOGISTIC, rng.integers(0, 2, 10**4).astype(float))):
        d2 = loss.second(z, targets)
        problem = generate_synthetic(loss, n=50, d=6, rng_seed=8)
        worst = np.max(np.abs(d2))
        for i in range(problem.n):
            k_i = problem.loss.curvature_bound * problem.row_sq_norms[i]
            assert worst * problem.row_sq_norms[i] <= k_i + 1e-12
    elapsed = time.time() - start
    report(7, elapsed < 60.0, f"finite differences + 1e4 K_i probes per loss, "
                              f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Model-gradient inexactness certificate in ARC optimal mode
# ---------------------------------------------------------------------------

def test_criterion_8_model_gradient_certificates():
    start = time.time()
    tol = OptimalityTolerances(eps_g=1e-4, eps_H=1e-2)
    zeta = 0.25
    accepted_checked = 0
    for loss, d in (("biweight", 20), ("nls_logistic", 12)):
        problem = generate_synthetic(loss, n=400, d=d, rng_seed=9, k_max=1.0)
        cfg = ARCConfig(tol=tol, mode="optimal", zeta=zeta, max_iters=500,
                        l_estimate=problem.hessian_lipschitz_bound())
        oracle = QueryRecorder(problem)
        rng = np.random.default_rng(88)
        x0 = 0.5 * rng.standard_normal(d) / np.sqrt(d)
        res = run_arc(oracle, hessian_source(problem), cfg, x0, rng_seed=8)
        assert res.converged
        points = oracle.iteration_points(len(res.records))
        for t, (rec, (x_t, trial)) in enumerate(zip(res.records, points)):
            if not rec.accepted:
                continue
            step = trial - x_t
            _, grad = problem.value_grad(x_t)
            model = CubicModel(grad=grad,
                               hessian=problem.exact_hessian_operator(x_t),
                               sigma=rec.radius_or_sigma)
            certs = certificates(model, step, zeta=zeta)
            assert certs.cond5_met, (loss, t, certs.cond5_slack)
            accepted_checked += 1

    # d=2: the progressive solver reaches the full space and solves exactly.
    rng = np.random.default_rng(909)
    exact_checked = 0
    for _ in range(10):
        g, h = random_instance(rng, 2)
        model = CubicModel(grad=g, hessian=_op(h),
                           sigma=float(rng.uniform(0.2, 2.0)))
        cauchy = cauchy_point(model)
        sol = subspace_solve(model, [cauchy.step], zeta=1e-9)
        assert sol.certificates.cond5_met
        assert np.linalg.norm(model.gradient(sol.step)) <= 1e-8
        exact_checked += 1
    elapsed = time.time() - start
    report(8, accepted_checked > 0 and exact_checked == 10,
           f"{accepted_checked} accepted steps recomputed, 10 exact planar "
           f"solves, {elapsed:.1f}s")
