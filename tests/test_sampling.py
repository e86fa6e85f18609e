import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.core import (ConfigurationError, HessianOperator, NonFiniteError,
                            OptimalityTolerances)
from subnewton.cubic_reg import ARCConfig
from subnewton.curvature import probe_extreme
from subnewton.problems import (BIWEIGHT, FiniteSumProblem, generate_synthetic,
                                row_pass, weighted_gram, weyl_floor)
from subnewton import sampling
from subnewton.sampling import (HESSIANS, INTRINSIC_EPS_MAX, SampleScheme,
                                _draw_indices, _exceeds, _sampling_cdf,
                                build_subsampled_hessian, hessian_source,
                                intrinsic_dimension, nonuniform_distribution,
                                prescribed_size, verify_concentration)
from subnewton.trust_region import TRConfig, run_tr

from conftest import (capped_scheme, count_grams, reference_numerator,
                      reference_sample_size, reference_verify_concentration,
                      replay_updates, symmetry_defect)


def sized(mode, k, epsilon, delta, dim):
    """``prescribed_size`` of a stub problem with K_max = K_hat = k in
    dimension ``dim``, also its intrinsic dimension t."""
    problem = SimpleNamespace(d=dim, k_max=k, k_hat=k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "intrinsic_dimension", lambda problem, x: float(dim))
        return prescribed_size(problem, mode, epsilon, delta, x=np.zeros(1))


class TestSampleSizes:
    def test_uniform_epsilon_one_limit(self):
        assert sized("uniform", 1.0, 1.0, 0.1, 10) == math.ceil(16 * math.log(200))

    def test_uniform_reference_value(self):
        # 16 * 1 * log(2*100/0.01) / 0.01 = 1600 * log(20000)
        expected = math.ceil(1600.0 * math.log(20000.0))
        assert sized("uniform", 1.0, 0.1, 0.01, 100) == expected
        assert sized("uniform_wor", 1.0, 0.1, 0.01, 100) == expected

    def test_doubling_k_quadruples(self):
        base = 16.0 * math.log(2 * 30 / 0.1)
        assert sized("uniform", 2.0, 1.0, 0.1, 30) == math.ceil(4.0 * base)

    def test_nonuniform_reference_value(self):
        expected = math.ceil(400.0 * math.log(20000.0))
        assert sized("nonuniform", 1.0, 0.1, 0.01, 100) == expected

    def test_nonuniform_is_quarter_of_uniform_for_equal_k(self):
        uni = 16.0 * 4.0 * math.log(2 * 50 / 0.05) / 0.04
        non = 4.0 * 4.0 * math.log(2 * 50 / 0.05) / 0.04
        assert sized("uniform", 2.0, 0.2, 0.05, 50) == math.ceil(uni)
        assert sized("nonuniform", 2.0, 0.2, 0.05, 50) == math.ceil(non)
        assert math.ceil(uni) == math.ceil(4 * non / 4 * 4)

    def test_intrinsic_requires_small_epsilon(self):
        with pytest.raises(ConfigurationError):
            sized("intrinsic", 1.0, 0.6, 0.1, 5)
        assert sized("intrinsic", 1.0, 0.5, 0.1, 5) == math.ceil(
            16.0 / 3.0 * math.log(8.0 * 5.0 / 0.1) / 0.25)

    def test_out_of_range_tolerances(self):
        with pytest.raises(ConfigurationError):
            sized("uniform", 1.0, 1.5, 0.1, 10)
        with pytest.raises(ConfigurationError):
            sized("uniform", 1.0, 0.5, 1.0, 10)
        with pytest.raises(ConfigurationError, match="unknown sampling mode"):
            sized("exact", 1.0, 0.5, 0.1, 10)

    @pytest.mark.parametrize("mode", HESSIANS[1:])
    def test_refuses_a_nonpositive_bound_and_an_unbounded_size(self, mode):
        for k in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="must be positive"):
                sized(mode, k, 0.5, 0.1, 10)
        with pytest.raises(ConfigurationError, match="unbounded sample size"):
            sized(mode, 1.0, 1e-200, 0.1, 10)

    @pytest.mark.parametrize("mode", HESSIANS[1:])
    def test_an_underflowing_bound_prescribes_one_row(self, mode):
        # K^2 underflows to 0; one row meets a prescription below one row.
        assert sized(mode, 1e-300, 0.5, 0.1, 10) == 1

    @pytest.mark.parametrize("mode", HESSIANS[1:])
    def test_sizes_equal_the_separate_formulas(self, mode):
        eps_max = INTRINSIC_EPS_MAX if mode == "intrinsic" else 1.0
        grid = [(k, eps, delta, dim) for k in (1e-3, 0.37, 1.0, 2.0, 7.5)
                for eps in (0.013, 0.1, 0.3, 0.5, 0.77, 1.0) if eps <= eps_max
                for delta in (1e-6, 0.01, 0.1, 0.5, 0.99) for dim in (2, 10, 64, 1000)]
        # Points where N / eps^2 is exactly an integer m, with N the
        # numerator: there an N or a quotient rounded otherwise than the
        # formulas round them can move the ceiling to m + 1.
        exact = []
        for k, _, delta, dim in grid[::7]:
            numerator = reference_numerator(mode, k, delta, dim)
            m = math.ceil(numerator / (0.3 * eps_max) ** 2)
            eps = math.sqrt(numerator / m)
            exact += [(k, e, delta, dim)
                      for e in (eps + i * math.ulp(eps) for i in range(-8, 9))
                      if numerator / e ** 2 == m]
        assert len(exact) >= 10
        for point in grid + exact:
            assert sized(mode, *point) == reference_sample_size(mode, *point)

    @pytest.mark.parametrize("mode", HESSIANS[1:])
    @given(eps=st.floats(0.05, 1.0), delta=st.floats(0.01, 0.5),
           k=st.floats(0.1, 5.0), d=st.integers(2, 200))
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, mode, eps, delta, k, d):
        # d is the intrinsic dimension t for "intrinsic", where eps <= 1/2.
        eps_max = INTRINSIC_EPS_MAX if mode == "intrinsic" else 1.0
        eps *= eps_max
        base = sized(mode, k, eps, delta, d)
        assert sized(mode, k, min(eps * 1.5, eps_max), delta, d) <= base
        assert sized(mode, k, eps, min(delta * 1.5, 0.99), d) <= base
        assert sized(mode, k * 1.5, eps, delta, d) >= base
        assert sized(mode, k, eps, delta, d + 10) >= base


class TestPerIterationDelta:
    # Each driver config shrinks its total failure budget by its own schedule.
    def test_tr_optimal_reference(self):
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.1)
        config = TRConfig(tol=tol, delta_total=0.1)
        assert config.schedule == "tr_optimal"
        assert config.per_iteration_delta() == pytest.approx(1e-4)

    def test_arc_standard_reference(self):
        tol = OptimalityTolerances(eps_g=0.01, eps_H=0.1)
        config = ARCConfig(tol=tol, delta_total=0.1)
        assert config.schedule == "arc_standard"
        assert config.per_iteration_delta() == pytest.approx(1e-5)

    def test_arc_optimal_exponent(self):
        tol = OptimalityTolerances(eps_g=0.04, eps_H=0.5)
        config = ARCConfig(tol=tol, delta_total=0.2, mode="optimal")
        assert config.schedule == "arc_optimal"
        expected = 0.2 * min(0.04 ** 1.5, 0.5 ** 3)
        assert config.per_iteration_delta() == pytest.approx(expected)

    def test_near_unit_tolerances_leave_delta(self):
        tol = OptimalityTolerances(eps_g=1 - 1e-12, eps_H=1 - 1e-12)
        for config in (TRConfig(tol=tol, delta_total=0.3),
                       ARCConfig(tol=tol, delta_total=0.3),
                       ARCConfig(tol=tol, delta_total=0.3, mode="optimal")):
            assert config.per_iteration_delta() == pytest.approx(0.3)

    @pytest.mark.parametrize("delta_total", [0.0, 1.0, float("nan")])
    def test_budget_outside_unit_interval(self, delta_total):
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.1)
        for make in (TRConfig, ARCConfig):
            with pytest.raises(ConfigurationError, match="delta_total must lie in"):
                make(tol=tol, delta_total=delta_total)


class TestNonuniformDistribution:
    def test_symmetric_rows_give_uniform(self):
        rows = np.tile(np.array([[1.0, 0.0]]), (4, 1))
        problem = FiniteSumProblem(rows=rows, targets=np.zeros(4), loss=BIWEIGHT)
        p = nonuniform_distribution(problem, np.zeros(2))
        assert np.allclose(p, 0.25)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_three_to_one_ratio(self):
        rows = np.array([[math.sqrt(3.0), 0.0], [1.0, 0.0]])
        problem = FiniteSumProblem(rows=rows, targets=np.zeros(2), loss=BIWEIGHT)
        p = nonuniform_distribution(problem, np.zeros(2))
        assert np.allclose(p, [0.75, 0.25])

    def test_biweight_origin_proportional_to_row_norms(self):
        problem = generate_synthetic("biweight", n=30, d=5, rng_seed=1)
        problem = FiniteSumProblem(rows=problem.rows,
                                   targets=np.zeros(30), loss=BIWEIGHT)
        p = nonuniform_distribution(problem, np.zeros(5))
        expected = problem.row_sq_norms / problem.row_sq_norms.sum()
        assert np.allclose(p, expected, rtol=1e-12)

    def test_bytes_equal_an_fsum_reference(self, rng):
        for loss, seed, skew in (("biweight", 16, 1.0), ("nls_logistic", 17, 50.0)):
            problem = generate_synthetic(loss, n=3000, d=7, rng_seed=seed, skew=skew)
            for _ in range(5):
                x = 2.0 * rng.standard_normal(7)
                weights = np.abs(problem.second_derivatives(x)) * problem.row_sq_norms
                p = weights / math.fsum(weights.tolist())
                expected = p / math.fsum(p.tolist())
                assert nonuniform_distribution(problem, x).tobytes() == expected.tobytes()

    def test_degenerate_fallback_uniform(self, caplog):
        # Far in the bi-weight tails the curvature underflows to ~0 only
        # asymptotically; force exact zeros through a custom loss.
        from subnewton.problems import ScalarLoss

        def step(z, b, n, value, first, work):
            value[:] = first[:] = 0.0

        flat = ScalarLoss("flat", step, lambda z, b: z * 0.0, 1.0, 1.0)
        problem = FiniteSumProblem(rows=np.eye(3), targets=np.zeros(3), loss=flat)
        p = nonuniform_distribution(problem, np.zeros(3))
        assert np.allclose(p, 1.0 / 3.0)


class TestIntrinsicDimension:
    def test_identity_spectrum_gives_d(self):
        problem = FiniteSumProblem(rows=np.eye(4) * 2.0, targets=np.zeros(4),
                                   loss=BIWEIGHT)
        assert intrinsic_dimension(problem, np.zeros(4)) == pytest.approx(4.0)

    def test_rank_one_gives_one(self):
        rows = np.tile(np.array([[1.0, 1.0, 0.0]]), (6, 1))
        problem = FiniteSumProblem(rows=rows, targets=np.zeros(6), loss=BIWEIGHT)
        assert intrinsic_dimension(problem, np.zeros(3)) == pytest.approx(1.0)

    def test_matches_dense_trace_over_norm(self, rng):
        problem = generate_synthetic("biweight", n=60, d=8, rng_seed=3)
        x = rng.standard_normal(8)
        weights = np.abs(problem.second_derivatives(x)) / problem.n
        dense = (problem.rows * weights[:, None]).T @ problem.rows
        expected = np.trace(dense) / np.max(np.abs(np.linalg.eigvalsh(dense)))
        assert intrinsic_dimension(problem, x) == pytest.approx(expected, rel=1e-10)
        assert 1.0 <= intrinsic_dimension(problem, x) <= problem.d


class TestBuildSubsampledHessian:
    def test_full_sample_without_replacement_is_exact(self, rng):
        problem = generate_synthetic("biweight", n=40, d=6, rng_seed=4)
        x = rng.standard_normal(6)
        scheme = SampleScheme(mode="uniform_wor", epsilon=0.5,
                              delta=0.1, resolved_size=40)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=0)
        assert op.accuracy == 0.0
        assert np.allclose(op.matrix, problem.dense_hessian(x), atol=1e-14)
        # Sorted full sample makes the apply bitwise identical to the exact one.
        v = rng.standard_normal(6)
        exact = problem.exact_hessian_operator(x)
        assert np.array_equal(op.apply(v), exact.apply(v))

    def test_identical_summands_reproduce_exact(self):
        rows = np.tile(np.array([[1.0, 0.5]]), (2, 1))
        problem = FiniteSumProblem(rows=rows, targets=np.zeros(2), loss=BIWEIGHT)
        x = np.array([0.3, -0.2])
        scheme = SampleScheme(mode="uniform", epsilon=0.9,
                              delta=0.5, resolved_size=1)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=1)
        assert np.allclose(op.matrix, problem.dense_hessian(x), atol=1e-14)

    def test_unbiasedness_monte_carlo(self, rng):
        problem = generate_synthetic("biweight", n=50, d=6, rng_seed=5)
        x = rng.standard_normal(6)
        v = rng.standard_normal(6)
        exact = problem.dense_hessian(x) @ v
        scheme = SampleScheme(mode="uniform", epsilon=0.9,
                              delta=0.5, resolved_size=1)
        trials = 20000
        gen = np.random.default_rng(6)
        acc = np.zeros(6)
        sq = np.zeros(6)
        for _ in range(trials):
            op = build_subsampled_hessian(problem, x, scheme, rng_seed=gen)
            hv = op.apply(v)
            acc += hv
            sq += hv * hv
        mean = acc / trials
        var = sq / trials - mean * mean
        sigma = np.sqrt(np.maximum(var, 1e-30) / trials)
        assert np.all(np.abs(mean - exact) <= 3.5 * sigma + 1e-12)

    def test_nonuniform_unbiasedness_monte_carlo(self, rng):
        problem = generate_synthetic("nls_logistic", n=40, d=5, rng_seed=15)
        x = rng.standard_normal(5)
        v = rng.standard_normal(5)
        exact = problem.dense_hessian(x) @ v
        scheme = SampleScheme(mode="nonuniform", epsilon=0.9, delta=0.5,
                              resolved_size=2)
        trials = 20000
        gen = np.random.default_rng(16)
        acc = np.zeros(5)
        sq = np.zeros(5)
        for _ in range(trials):
            hv = build_subsampled_hessian(problem, x, scheme, rng_seed=gen).apply(v)
            acc += hv
            sq += hv * hv
        mean = acc / trials
        sigma = np.sqrt(np.maximum(sq / trials - mean * mean, 1e-30) / trials)
        assert np.all(np.abs(mean - exact) <= 3.5 * sigma + 1e-12)

    def test_single_sample_mean_converges_to_exact(self, rng):
        # Frobenius error of the Monte-Carlo mean of single-sample operators
        # falls like 1/sqrt(trials); vectorized through draw counts.
        problem = generate_synthetic("biweight", n=50, d=6, rng_seed=20)
        x = rng.standard_normal(6)
        exact = problem.dense_hessian(x)
        second = problem.second_derivatives(x)
        gen = np.random.default_rng(21)

        def mean_error(trials):
            counts = np.bincount(gen.integers(0, problem.n, size=trials),
                                 minlength=problem.n)
            weights = counts / trials * second
            mean = (problem.rows * weights[:, None]).T @ problem.rows
            return float(np.linalg.norm(mean - exact, ord="fro"))

        err_small = mean_error(10**3)
        err_large = mean_error(10**5)
        assert err_large < 0.35 * err_small  # expected ratio 0.1

    def test_uniform_spectral_bound_every_draw(self, rng):
        problem = generate_synthetic("biweight", n=30, d=5, rng_seed=7)
        x = rng.standard_normal(5)
        scheme = SampleScheme(mode="uniform", epsilon=0.9,
                              delta=0.5, resolved_size=3)
        for seed in range(25):
            op = build_subsampled_hessian(problem, x, scheme, rng_seed=seed)
            norm = np.max(np.abs(np.linalg.eigvalsh(op.matrix)))
            assert norm <= problem.k_max * (1 + 1e-12)
            assert symmetry_defect(op, rng, probes=5) < 1e-10

    def test_seeded_determinism(self, rng):
        problem = generate_synthetic("nls_logistic", n=30, d=5, rng_seed=8)
        x = rng.standard_normal(5)
        scheme = SampleScheme(mode="nonuniform", epsilon=0.5, delta=0.2,
                              resolved_size=7)
        a = build_subsampled_hessian(problem, x, scheme, rng_seed=99)
        b = build_subsampled_hessian(problem, x, scheme, rng_seed=99)
        assert np.array_equal(a.matrix, b.matrix)
        cdf = _sampling_cdf(nonuniform_distribution(problem, x))
        idx = _draw_indices(problem, scheme, cdf, np.random.default_rng(99))
        again = _draw_indices(problem, scheme, cdf, np.random.default_rng(99))
        assert np.array_equal(idx, again)
        assert np.all(np.diff(idx) >= 0)  # canonical sorted order

    @pytest.mark.parametrize("mode, size", [("uniform", 60),
                                            ("uniform_wor", 25),
                                            ("uniform_wor", 30),
                                            ("nonuniform", 60)])
    def test_draws_equal_a_stable_argsort_reference(self, rng, mode, size):
        # The sorted draw is, bit for bit, the stable argsort of the raw
        # draws applied to them; 60 draws from 30 rows with replacement
        # repeat indices.
        problem = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=8)
        x = rng.standard_normal(4)
        scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.2,
                              resolved_size=size)
        p = nonuniform_distribution(problem, x)
        for seed in range(5):
            raw = np.random.default_rng(seed)
            if mode == "uniform":
                drawn = raw.integers(0, 30, size=size)
            elif mode == "uniform_wor":
                drawn = raw.choice(30, size=size, replace=False)
            else:
                drawn = raw.choice(30, size=size, replace=True, p=p)
            order = np.argsort(drawn, kind="stable")
            idx = _draw_indices(problem, scheme, _sampling_cdf(p),
                                np.random.default_rng(seed))
            assert idx.tobytes() == drawn[order].tobytes()
            if mode != "uniform_wor":
                assert np.unique(idx).size < size

    @pytest.mark.parametrize("size", [1, 17, 30, 90])
    def test_draws_equal_sorted_choice(self, size):
        # The CDF search over sorted uniforms is, bit for bit, the sorted
        # draw of Generator.choice, also where p has zero entries; a full
        # draw without replacement is the sorted permutation.
        problem = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=8)
        p = np.random.default_rng(3).random(30)
        p[::4] = 0.0
        p /= p.sum()
        nonuniform = SampleScheme(mode="nonuniform", epsilon=0.5, delta=0.2,
                                  resolved_size=size)
        full = SampleScheme(mode="uniform_wor", epsilon=0.5,
                            delta=0.2, resolved_size=30)
        for seed in range(5):
            drawn = np.random.default_rng(seed).choice(30, size=size, replace=True, p=p)
            idx = _draw_indices(problem, nonuniform, _sampling_cdf(p),
                                np.random.default_rng(seed))
            assert idx.tobytes() == np.sort(drawn).tobytes()
            assert np.all(p[idx] > 0.0)
            perm = np.random.default_rng(seed).choice(30, size=30, replace=False)
            idx = _draw_indices(problem, full, None, np.random.default_rng(seed))
            assert idx.tobytes() == np.sort(perm).tobytes()

    # An odd |S| with replacement leaves half of a 64-bit word that the
    # next integer takes; a full draw without replacement takes nothing.
    @pytest.mark.parametrize("mode, size", [
        ("uniform", 41), ("uniform_wor", 25), ("uniform_wor", 30),
        ("nonuniform", 41), ("intrinsic", 17)],
        ids=["uniform", "uniform_wor", "full", "nonuniform", "intrinsic"])
    def test_batch_equals_successive_single_draws(self, rng, mode, size):
        problem = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=8)
        cdf = _sampling_cdf(nonuniform_distribution(problem, rng.standard_normal(4)))
        scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.2,
                              resolved_size=size)
        batched, single = np.random.default_rng(4), np.random.default_rng(4)
        for count in (1, 6):
            batch = _draw_indices(problem, scheme, cdf, batched, count=count)
            singles = [_draw_indices(problem, scheme, cdf, single)
                       for _ in range(count)]
            assert batch.shape == (count, size)
            assert batch.dtype == singles[0].dtype
            assert batch.tobytes() == np.stack(singles).tobytes()
        # The generators' states match after the batches too; a full draw
        # takes nothing from them.
        after = _draw_indices(problem, scheme, cdf, batched)
        assert after.tobytes() == _draw_indices(problem, scheme, cdf, single).tobytes()
        if size == problem.n:
            assert batched.bit_generator.state == np.random.default_rng(4).bit_generator.state

    @pytest.mark.parametrize("bad, error", [
        (np.nan, NonFiniteError), (np.inf, NonFiniteError), (-0.1, ValueError),
        (0.5, ValueError),  # p then sums to about 1.47
    ], ids=["nan", "inf", "negative", "sum_off"])
    def test_invalid_probabilities_are_not_drawn_from(self, bad, error):
        problem = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=8)
        p = np.full(30, 0.9 / 29)
        p[0] = 0.1
        p[7] = bad
        scheme = SampleScheme(mode="nonuniform", epsilon=0.5, delta=0.2,
                              resolved_size=10)
        with pytest.raises(error):
            _draw_indices(problem, scheme, _sampling_cdf(p), np.random.default_rng(0))

    def test_nonuniform_norm_bound_recorded(self, rng):
        problem = generate_synthetic("biweight", n=30, d=5, rng_seed=9)
        x = rng.standard_normal(5)
        scheme = SampleScheme(mode="nonuniform", epsilon=0.25, delta=0.2,
                              resolved_size=9)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=3)
        assert op.norm_bound == pytest.approx(problem.k_hat + 0.25)
        assert op.sample_size == 9


class TestMaterializedOperator:
    """The operators apply by a row pass over the weighted rows, and form
    their d x d matrix once, only when it is read."""

    CASES = {
        "exact": None,
        "uniform": ("uniform", 70),
        "uniform_wor_partial": ("uniform_wor", 70),
        "uniform_wor_full": ("uniform_wor", 120),
        "nonuniform": ("nonuniform", 70),
        "intrinsic": ("intrinsic", 70),
    }

    @staticmethod
    def operator_and_rows(problem, x, case, seed):
        """The operator plus the rows and weights it sums, drawn the same way."""
        second = problem.second_derivatives(x)
        if TestMaterializedOperator.CASES[case] is None:
            return (problem.exact_hessian_operator(x), problem.rows,
                    second / problem.n)
        mode, size = TestMaterializedOperator.CASES[case]
        scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.1,
                              resolved_size=size)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=seed)
        p = (None if mode.startswith("uniform")
             else nonuniform_distribution(problem, x))
        idx = _draw_indices(problem, scheme, None if p is None else _sampling_cdf(p),
                            np.random.default_rng(seed))
        p_sel = 1.0 / problem.n if p is None else p[idx]
        weights = second[idx] / (problem.n * idx.shape[0] * p_sel)
        return op, problem.rows[idx], weights

    # d = 7 takes weighted_gram's GEMM path, d = 80 its SYRK path.
    @pytest.mark.parametrize("case, d", [pytest.param(case, 7, id=case)
                                         for case in CASES]
                             + [pytest.param(case, 80, id=f"{case}-d80")
                                for case in CASES])
    def test_matches_row_form(self, rng, case, d):
        problem = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
        x = rng.standard_normal(d)
        op, rows, weights = self.operator_and_rows(problem, x, case, seed=5)
        applied = np.column_stack([op.apply(e) for e in np.eye(d)])
        scale = float(np.linalg.norm(applied, 2))
        # The formed matrix is exactly symmetric and agrees with the applies;
        # forming it changes no apply, which never reads it.
        matrix = op.matrix
        assert np.array_equal(matrix, matrix.T)
        assert np.linalg.norm(matrix - applied, 2) <= 1e-12 * scale
        assert np.array_equal(np.column_stack([op.apply(e) for e in np.eye(d)]), applied)
        for _ in range(10):
            v = rng.standard_normal(d)
            reference = rows.T @ (weights * (rows @ v))
            assert np.linalg.norm(op.apply(v) - reference) <= 1e-12 * scale * np.linalg.norm(v)
        # A d x k block is applied column by column, as the probe and the
        # sub-problem reduction rely on.
        block = rng.standard_normal((d, 3))
        columns = np.column_stack([op.apply(v) for v in block.T])
        assert np.linalg.norm(op.apply(block) - columns) <= 1e-12 * scale * np.linalg.norm(block)

    def test_unapplied_operator_forms_no_gram(self, monkeypatch):
        # ARC's eps = 0.5 bootstrap (a partial sample here) only resolves nu
        # and the fixed tolerance; it misses ARC's target, so it is rebuilt
        # at once, capped at n. Only the probe forms a Gram, and on this run
        # every operator's floor certifies its curvature, so none is formed.
        import subnewton.sampling as sampling
        from subnewton.harness import build_problem, parse_config_text, run_solver

        grams = count_grams(monkeypatch)
        ops = []
        build = sampling.build_subsampled_hessian

        def counting_build(*args, **kwargs):
            ops.append(build(*args, **kwargs))
            return ops[-1]

        monkeypatch.setattr(sampling, "build_subsampled_hessian", counting_build)
        config = parse_config_text(
            "problem = biweight\nsolver = arc\nhessian = uniform_wor\n"
            "n = 2000\nd = 8\nk_max_target = 1.0\nseed = 11\n")
        result = run_solver(config, build_problem(config))
        assert result.converged
        assert len(ops) >= 3
        assert ops[0].sample_size < 2000
        assert all(op.sample_size == 2000 for op in ops[1:])
        assert {r.lambda_source for r in result.records} == {"bound"}
        assert grams == []

    def test_one_gram_per_probed_point_plus_the_footer(self, monkeypatch):
        # Capped at n, every sample is the exact Hessian at its point: the
        # probes at a point and the trace footer's dense Hessian at the final
        # point read the one Gram formed there. Applies form none.
        import subnewton.sampling as sampling
        import subnewton.trust_region as trust_region
        from subnewton.harness import (build_problem, format_trace,
                                       parse_config_text, read_trace, run_solver)

        grams = count_grams(monkeypatch)
        points = {}  # each built operator's form -> the bytes of its point
        probed = set()
        build, probe = sampling.build_subsampled_hessian, trust_region.probe_extreme

        def marking_build(problem, x, *args, **kwargs):
            op = build(problem, x, *args, **kwargs)
            points[op.form] = np.asarray(x).tobytes()
            return op

        def marking_probe(op):
            probed.add(points[op.form])
            return probe(op)

        monkeypatch.setattr(sampling, "build_subsampled_hessian", marking_build)
        monkeypatch.setattr(trust_region, "probe_extreme", marking_probe)
        config = parse_config_text(
            "problem = biweight\nsolver = arc\nhessian = uniform_wor\n"
            "n = 2000\nd = 8\nk_max_target = 1.0\nseed = 11\nx0_scale = 3.0\n")
        problem = build_problem(config)
        result = run_solver(config, problem)
        sources = [r.lambda_source for r in result.records]
        assert result.converged and "probe" in sources and "bound" in sources
        assert len(grams) == len(probed)
        _, footer = read_trace(format_trace(result, problem=problem))
        assert "lambda_min_dense_final" in footer
        assert grams == [2000] * len(probed | {result.x.tobytes()})


def scaled_problem(d: int, scale: float, row_scale: float = 1.0) -> FiniteSumProblem:
    """A bi-weight problem whose loss, and so every weight, is multiplied by
    ``scale``; the curvature bound is left at the bi-weight's, so that the
    norm bounds stay finite at any scale."""

    def step(z, b, n, value, first, work):
        BIWEIGHT.step(z, b, n, value, first, work)
        with np.errstate(over="ignore"):
            value *= scale
            first *= scale

    def second(z, b):
        with np.errstate(over="ignore"):
            return BIWEIGHT.second(z, b) * scale

    base = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
    loss = replace(BIWEIGHT, name="scaled", step=step, second=second)
    return FiniteSumProblem(rows=base.rows * row_scale, targets=base.targets, loss=loss)


class TestLambdaFloor:
    """``lambda_floor`` is a certified lower bound on lambda_min, rounding
    included, for every finite-sum operator."""

    SCALES = (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300)

    # d = 7 takes weighted_gram's GEMM path, d = 80 its SYRK path.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", [7, 80])
    @pytest.mark.parametrize("case", list(TestMaterializedOperator.CASES))
    def test_floor_is_below_the_bottom_eigenvalue_and_the_probe(self, rng, case,
                                                                d, scale):
        problem = scaled_problem(d, scale)
        x = rng.standard_normal(d)
        op, rows, weights = TestMaterializedOperator.operator_and_rows(
            problem, x, case, seed=5)
        floor = op.lambda_floor
        lam_min = float(np.linalg.eigvalsh(op.matrix)[0])
        assert floor <= lam_min
        assert floor <= probe_extreme(op).rayleigh
        # Not vacuous: within rounding of -tr N, the sum over the
        # negative-weight rows, and above -inf.
        terms = np.abs(weights) * np.einsum("ij,ij->i", rows, rows)
        negative = float(np.sum(terms[weights < 0]))
        assert -negative - 1e-6 * float(np.sum(terms)) <= floor <= -negative
        assert negative > 0.0

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("n", [1, 3, 1500])
    @pytest.mark.parametrize("d", [7, 80])
    def test_floor_holds_where_the_bound_is_tight(self, d, n, scale):
        # n copies of one row a, all weights negative: H = (sum w) a a' and
        # lambda_min = -tr N exactly, so only the margin keeps the floor below
        # the computed eigenvalue and Rayleigh quotient.
        g = np.random.default_rng(d * 10 + n)
        rows = np.repeat(g.standard_normal((1, d)), n, axis=0)
        weights = -scale * g.random(n)
        floor, total = weyl_floor(weights, np.einsum("ij,ij->i", rows, rows), d)
        op = HessianOperator(form=lambda: weighted_gram(rows, weights),
                             norm_bound=1.0, apply=row_pass(rows, weights),
                             lambda_floor=floor)
        assert floor <= float(np.linalg.eigvalsh(op.matrix)[0])
        assert floor <= probe_extreme(op).rayleigh
        assert floor >= -total * (1.0 + 1e-6)

    # The non-uniform modes' own distribution overflows before any floor.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["exact", "uniform", "uniform_wor_partial",
                                      "uniform_wor_full"])
    def test_an_overflowing_floor_is_minus_infinity(self, case):
        # Every weight is finite, but sum_i |w_i| ||a_i||^2 overflows.
        problem = scaled_problem(7, 1e306, row_scale=30.0)
        op, _, weights = TestMaterializedOperator.operator_and_rows(
            problem, np.zeros(7), case, seed=5)
        assert np.all(np.isfinite(weights))
        assert op.lambda_floor == -math.inf

    def test_non_operators_of_a_finite_sum_have_no_floor(self):
        from subnewton.problems import QuarticSaddle
        assert QuarticSaddle().exact_hessian_operator(np.zeros(2)).lambda_floor == -math.inf


class TestCappedSize:
    def test_capping_logs_and_caps(self, caplog):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10, k_max=1.0)
        source = hessian_source(problem, "uniform_wor")
        with caplog.at_level("INFO", logger="subnewton.sampling"):
            op = source(np.zeros(10), 0.05, 0.1, np.random.default_rng(0))
        assert op.sample_size == 50
        size = prescribed_size(problem, "uniform_wor", epsilon=0.05, delta=0.1)
        [record] = caplog.records
        assert record.levelname == "INFO"
        assert record.getMessage() == (f"prescribed sample size {size} exceeds "
                                       "n=50; capping")

    def test_uncapped_when_requested(self):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10, k_max=1.0)
        assert prescribed_size(problem, "uniform",
                               epsilon=0.05, delta=0.1) > 50

    def test_intrinsic_needs_point(self):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10)
        with pytest.raises(ConfigurationError):
            prescribed_size(problem, "intrinsic", epsilon=0.3, delta=0.1)


class TestScreenedDecisions:
    """``_exceeds`` decides ||D||_2 > eps as the eigensolve does, and only
    the draws its norm screens leave open reach the eigensolve."""

    RATIOS = (1 - 1e-6, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6)

    @staticmethod
    def stack(eps, rng, d=6):
        """Matrices whose ||D||_2 lies just below, at and just above eps:
        rank one (norm = Frobenius norm), a scaled basis projector (norm =
        a column norm), and full spectra that neither screen settles."""
        mats = [np.zeros((d, d))]
        for ratio in TestScreenedDecisions.RATIOS:
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            spectrum = eps * ratio * np.array([1.0, -0.5, 0.3, 0.0, -0.9, 0.1])
            for m in (eps * ratio * np.outer(u, u),
                      np.diag([-eps * ratio] + [0.0] * (d - 1)), (q * spectrum) @ q.T):
                mats.append(0.5 * (m + m.T))
        return np.array(mats)

    @pytest.mark.parametrize("eps", [0.3, 1.0, 1e-200, 0.0, -1.0])
    def test_screened_decisions_equal_the_eigensolve(self, eps, monkeypatch, rng):
        stack = self.stack(abs(eps) or 1e-3, rng)
        expected = np.max(np.abs(np.linalg.eigvalsh(stack)), axis=1) > eps
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            solved.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(sampling.np.linalg, "eigvalsh", counted)
        assert _exceeds(stack, eps).tolist() == expected.tolist()
        if eps == 0.3:
            # The zero matrix and the four rank-one ones 1e-6 and 1e-9 below
            # pass on their Frobenius norm; the two projectors as far above
            # fail on their column norm. Everything else is eigensolved.
            assert sum(solved) == len(stack) - 7


class TestVerifyConcentration:
    def test_full_sample_never_fails(self, rng):
        problem = generate_synthetic("biweight", n=40, d=6, rng_seed=11)
        x = rng.standard_normal(6)
        scheme = SampleScheme(mode="uniform_wor", epsilon=0.3,
                              delta=0.1, resolved_size=40)
        assert verify_concentration(problem, x, scheme, trials=50, rng_seed=1) == 0.0

    def test_prescribed_size_meets_delta(self, rng):
        problem = generate_synthetic("biweight", n=400, d=8, rng_seed=12, k_max=1.0)
        x = rng.standard_normal(8)
        scheme = capped_scheme(problem, "uniform", epsilon=0.6, delta=0.2)
        rate = verify_concentration(problem, x, scheme, trials=200, rng_seed=2)
        assert rate <= 0.2

    def test_single_sample_fails_for_tight_epsilon(self, rng):
        # Negative control: one draw cannot match the mean of spread-out
        # per-sample Hessians at a tight accuracy.
        problem = generate_synthetic("biweight", n=200, d=6, rng_seed=13, skew=30.0)
        x = rng.standard_normal(6)
        scheme = SampleScheme(mode="uniform", epsilon=0.05,
                              delta=0.2, resolved_size=1)
        rate = verify_concentration(problem, x, scheme, trials=100, rng_seed=3)
        assert rate > 0.5

    # d = 7 and d = 20 form the sampled Grams by GEMM, d = 80 by SYRK; 37
    # trials leave a partial last stack at d = 7 and d = 80, and 100 trials
    # at d = 20, whose stacks hold 81 draws. "nonuniform_n" draws n rows with
    # replacement, as the verify_mc benchmark's heaviest grid point does.
    @pytest.mark.parametrize("d", [7, 80, 20])
    @pytest.mark.parametrize("mode, size", [
        ("uniform", 40), ("uniform_wor", 40),
        ("nonuniform", 40), ("intrinsic", 40),
        ("uniform_wor", 120), ("nonuniform", 120)],
        ids=["uniform", "uniform_wor", "nonuniform", "intrinsic", "full",
             "nonuniform_n"])
    def test_rates_equal_the_per_trial_reference(self, mode, size, d):
        problem = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
        x = np.random.default_rng(5).standard_normal(d)
        full = mode == "uniform_wor" and size == problem.n
        trials = 100 if d == 20 else 37
        # A full draw has error 0, so eps = -1 makes every trial fail.
        grid = (0.3, -1.0) if full else (0.05, 0.13, 0.18, 0.28)
        rates = []
        for eps in grid:
            scheme = SampleScheme(mode=mode, epsilon=eps, delta=0.1,
                                  resolved_size=size)
            rate = verify_concentration(problem, x, scheme, trials=trials, rng_seed=9)
            expected = reference_verify_concentration(problem, x, scheme,
                                                      trials=trials, rng_seed=9)
            assert rate.hex() == expected.hex(), eps
            rates.append(rate)
        if full:
            assert rates == [0.0, 1.0]
        else:
            assert any(0.0 < r < 1.0 for r in rates), rates

    # At d = 20 a stack holds 81 draws and a batch of |S| = 2,000 indices
    # 16, so 100 trials cut the first stack's sixth batch short at one draw
    # and end the second stack on a batch of 3.
    @pytest.mark.parametrize("mode", ["uniform", "uniform_wor", "nonuniform",
                                      "intrinsic"])
    def test_batches_cut_by_a_stack_end_equal_the_reference(self, monkeypatch,
                                                             mode):
        problem = generate_synthetic("biweight", n=2400, d=20, rng_seed=21, skew=4.0)
        x = np.random.default_rng(5).standard_normal(20)
        counts, draw = [], sampling._draw_indices

        def counted_draw(*args, count):
            counts.append(count)
            return draw(*args, count=count)

        monkeypatch.setattr(sampling, "_draw_indices", counted_draw)
        rates = []
        for eps in (0.008, 0.018):
            scheme = SampleScheme(mode=mode, epsilon=eps, delta=0.1,
                                  resolved_size=2000)
            rate = verify_concentration(problem, x, scheme, trials=100, rng_seed=9)
            expected = reference_verify_concentration(problem, x, scheme,
                                                      trials=100, rng_seed=9)
            assert rate.hex() == expected.hex(), eps
            rates.append(rate)
        assert counts == 2 * ([16] * 5 + [1] + [16, 3])
        assert any(0.0 < r < 1.0 for r in rates), rates


    @pytest.mark.parametrize("mode", ["nonuniform", "intrinsic"])
    def test_rows_of_probability_zero_weigh_silently(self, mode):
        # Zero rows have p = 0, so the weights verify_concentration computes
        # for all rows at once divide 0 by 0 there, with no RuntimeWarning;
        # no such row is drawn, and the rates equal the reference's.
        base = generate_synthetic("biweight", n=60, d=5, rng_seed=21, skew=4.0)
        rows = base.rows.copy()
        rows[::7] = 0.0
        problem = FiniteSumProblem(rows=rows, targets=base.targets, loss=BIWEIGHT)
        x = np.random.default_rng(5).standard_normal(5)
        scheme = SampleScheme(mode=mode, epsilon=0.05, delta=0.1, resolved_size=30)
        rate = verify_concentration(problem, x, scheme, trials=20, rng_seed=3)
        assert rate == reference_verify_concentration(problem, x, scheme,
                                                      trials=20, rng_seed=3)
        assert 0.0 < rate < 1.0

    # d = 7 takes weighted_gram's GEMM branch and d = 80 its SYRK branch,
    # where 7 trials leave a partial last stack. With the exact Hessian
    # replaced by zeros each difference the stack holds is the draw's Gram.
    @pytest.mark.parametrize("exact", ["zero", "dense"])
    @pytest.mark.parametrize("d", [7, 80])
    @pytest.mark.parametrize("mode, size", [
        ("uniform", 40), ("uniform", 120), ("uniform_wor", 40),
        ("nonuniform", 40), ("nonuniform", 120)],
        ids=["uniform", "uniform_n", "uniform_wor", "nonuniform", "nonuniform_n"])
    def test_draw_differences_equal_weighted_gram(self, monkeypatch, mode, size,
                                                  d, exact):
        # Each draw's difference is, bit for bit, the weighted_gram of its
        # gathered rows and of weights computed for its rows alone, minus the
        # exact Hessian, though verify_concentration weights all rows once.
        problem = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
        x = np.random.default_rng(5).standard_normal(d)
        reference = problem.dense_hessian(x) if exact == "dense" else np.zeros((d, d))
        monkeypatch.setattr(problem, "dense_hessian", lambda x: reference)
        drawn, stacks = [], []
        draw, exceeds = sampling._draw_indices, sampling._exceeds

        def recorded_draw(*args, count):
            # Each row of a batch is one draw.
            batch = draw(*args, count=count)
            drawn.extend(batch)
            return batch

        def recorded_exceeds(stack, epsilon):
            stacks.append(stack.copy())
            return exceeds(stack, epsilon)

        monkeypatch.setattr(sampling, "_draw_indices", recorded_draw)
        monkeypatch.setattr(sampling, "_exceeds", recorded_exceeds)
        scheme = SampleScheme(mode=mode, epsilon=0.2, delta=0.1, resolved_size=size)
        verify_concentration(problem, x, scheme, trials=7, rng_seed=9)
        diffs = np.concatenate(stacks)
        assert len(drawn) == len(diffs) == 7
        second = problem.second_derivatives(x)
        p = None if mode.startswith("uniform") else nonuniform_distribution(problem, x)
        for idx, diff in zip(drawn, diffs):
            p_sel = np.full(size, 1.0 / problem.n) if p is None else p[idx]
            weights = second[idx] / (problem.n * size * p_sel)
            gram = weighted_gram(problem.rows[idx], weights)
            assert diff.tobytes() == (gram - reference).tobytes()
        if size == problem.n:
            assert all(np.unique(idx).size < size for idx in drawn)


class TestHessianSource:
    """``hessian_source`` is the one source of operators: the CLI's runs and
    a library caller's, by the same ``hessian`` name, are the same runs."""

    @pytest.mark.parametrize("solver", ["tr", "arc"])
    @pytest.mark.parametrize("hessian", list(HESSIANS))
    def test_cli_and_library_runs_match(self, solver, hessian):
        from subnewton import harness
        from subnewton.cubic_reg import run_arc
        config = harness.parse_config_text(
            f"problem = biweight\nsolver = {solver}\nhessian = {hessian}\n"
            f"n = 300\nd = 6\nk_max_target = 1.0\ndata_seed = 3\nseed = 5\n"
            f"x0_scale = 1.0\n")
        problem = harness.build_problem(config)
        cli = harness.format_trace(harness.run_solver(config, problem), problem=problem)
        tol = OptimalityTolerances(eps_g=config.eps_g, eps_H=config.eps_h)
        if solver == "tr":
            loop, run = TRConfig(tol=tol, max_iters=config.max_iters), run_tr
        else:
            loop, run = ARCConfig(tol=tol, max_iters=config.max_iters,
                                  l_estimate=problem.hessian_lipschitz_bound()), run_arc
        result = run(problem, hessian_source(problem, hessian), loop,
                     harness.starting_point(config, problem), rng_seed=config.seed)
        assert result.records
        replay_updates(result, loop)
        assert harness.format_trace(result, problem=problem) == cli

    def test_requested_accuracy_is_capped(self):
        problem = generate_synthetic("biweight", n=400, d=6, rng_seed=3, k_max=1.0)
        x, rng = np.full(6, 0.3), np.random.default_rng(0)
        # The intrinsic sizing holds for eps <= 1/2 only.
        assert hessian_source(problem, "intrinsic")(x, 0.9, 0.1, rng).accuracy == 0.5
        assert hessian_source(problem, "intrinsic", 0.3)(x, 0.9, 0.1, rng).accuracy == 0.3
        assert hessian_source(problem, "nonuniform")(x, 0.95, 0.1, rng).accuracy == 0.9
        assert hessian_source(problem, "nonuniform")(x, 0.2, 0.1, rng).accuracy == 0.2
        with pytest.raises(ConfigurationError, match="unknown hessian mode"):
            hessian_source(problem, "sampled")

    @pytest.mark.parametrize("solver", ["tr", "arc"])
    def test_underflowing_budget_refused_before_any_pass(self, tmp_path, capsys,
                                                         monkeypatch, solver):
        from subnewton.harness import EXIT_CONFIG_ERROR, main
        passes = []
        evaluate = FiniteSumProblem._evaluate

        def counting_evaluate(self, x):
            passes.append(x)
            return evaluate(self, x)

        monkeypatch.setattr(FiniteSumProblem, "_evaluate", counting_evaluate)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problem = biweight\nn = 50\nd = 4\neps_h = 1e-300\n"
                       f"solver = {solver}\nhessian = uniform_wor\n"
                       f"out = {tmp_path / 'o.csv'}\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
        assert "underflows to 0" in capsys.readouterr().err
        assert passes == []
