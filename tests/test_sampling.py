import math
from dataclasses import replace

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
from subnewton.sampling import (HESSIANS, SampleScheme, _draw_indices,
                                build_subsampled_hessian, hessian_source,
                                intrinsic_dimension, intrinsic_sample_size,
                                nonuniform_distribution, nonuniform_sample_size,
                                prescribed_size, resolve_scheme,
                                uniform_sample_size, verify_concentration)
from subnewton.trust_region import TRConfig, run_tr

from conftest import (count_grams, reference_verify_concentration, replay_updates,
                      symmetry_defect)


class TestSampleSizes:
    def test_uniform_epsilon_one_limit(self):
        assert uniform_sample_size(1.0, 1.0, 0.1, 10) == math.ceil(16 * math.log(200))

    def test_uniform_reference_value(self):
        # 16 * 1 * log(2*100/0.01) / 0.01 = 1600 * log(20000)
        expected = math.ceil(1600.0 * math.log(20000.0))
        assert uniform_sample_size(1.0, 0.1, 0.01, 100) == expected

    def test_doubling_k_quadruples(self):
        base = 16.0 * math.log(2 * 30 / 0.1)
        assert (uniform_sample_size(2.0, 1.0, 0.1, 30)
                == math.ceil(4.0 * base))

    def test_nonuniform_reference_value(self):
        expected = math.ceil(400.0 * math.log(20000.0))
        assert nonuniform_sample_size(1.0, 0.1, 0.01, 100) == expected

    def test_nonuniform_is_quarter_of_uniform_for_equal_k(self):
        uni = 16.0 * 4.0 * math.log(2 * 50 / 0.05) / 0.04
        non = 4.0 * 4.0 * math.log(2 * 50 / 0.05) / 0.04
        assert uniform_sample_size(2.0, 0.2, 0.05, 50) == math.ceil(uni)
        assert nonuniform_sample_size(2.0, 0.2, 0.05, 50) == math.ceil(non)
        assert math.ceil(uni) == math.ceil(4 * non / 4 * 4)

    def test_intrinsic_requires_small_epsilon(self):
        with pytest.raises(ConfigurationError):
            intrinsic_sample_size(1.0, 0.6, 0.1, 5.0)
        assert intrinsic_sample_size(1.0, 0.5, 0.1, 5.0) == math.ceil(
            16.0 / 3.0 * math.log(8.0 * 5.0 / 0.1) / 0.25)

    def test_out_of_range_tolerances(self):
        with pytest.raises(ConfigurationError):
            uniform_sample_size(1.0, 1.5, 0.1, 10)
        with pytest.raises(ConfigurationError):
            uniform_sample_size(1.0, 0.5, 1.0, 10)

    @given(eps=st.floats(0.05, 1.0), delta=st.floats(0.01, 0.5),
           k=st.floats(0.1, 5.0), d=st.integers(2, 200))
    @settings(max_examples=80, deadline=None)
    def test_monotonicity(self, eps, delta, k, d):
        base = uniform_sample_size(k, eps, delta, d)
        assert uniform_sample_size(k, min(eps * 1.5, 1.0), delta, d) <= base
        assert uniform_sample_size(k, eps, min(delta * 1.5, 0.99), d) <= base
        assert uniform_sample_size(k * 1.5, eps, delta, d) >= base
        assert uniform_sample_size(k, eps, delta, d + 10) >= base


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

        flat = ScalarLoss("flat", lambda z, b: (z * 0.0, z * 0.0, z * 0.0), 1.0, 1.0)
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
        scheme = SampleScheme(mode="uniform_without_replacement", epsilon=0.5,
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
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.9,
                              delta=0.5, resolved_size=1)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=1)
        assert np.allclose(op.matrix, problem.dense_hessian(x), atol=1e-14)

    def test_unbiasedness_monte_carlo(self, rng):
        problem = generate_synthetic("biweight", n=50, d=6, rng_seed=5)
        x = rng.standard_normal(6)
        v = rng.standard_normal(6)
        exact = problem.dense_hessian(x) @ v
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.9,
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
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.9,
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
        p = nonuniform_distribution(problem, x)
        idx, _ = _draw_indices(problem, scheme, p, np.random.default_rng(99))
        again, _ = _draw_indices(problem, scheme, p, np.random.default_rng(99))
        assert np.array_equal(idx, again)
        assert np.all(np.diff(idx) >= 0)  # canonical sorted order

    @pytest.mark.parametrize("mode, size", [("uniform_with_replacement", 60),
                                            ("uniform_without_replacement", 25),
                                            ("uniform_without_replacement", 30),
                                            ("nonuniform", 60)])
    def test_draws_equal_a_stable_argsort_reference(self, rng, mode, size):
        # Sorting the draws and taking p afterwards gives, bit for bit, the
        # stable argsort of the raw draws applied to indices and p alike;
        # 60 draws from 30 rows with replacement repeat indices.
        problem = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=8)
        x = rng.standard_normal(4)
        scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.2,
                              resolved_size=size)
        p = nonuniform_distribution(problem, x)
        for seed in range(5):
            raw = np.random.default_rng(seed)
            if mode == "uniform_with_replacement":
                drawn = raw.integers(0, 30, size=size)
                p_drawn = np.full(size, 1.0 / 30)
            elif mode == "uniform_without_replacement":
                drawn = raw.choice(30, size=size, replace=False)
                p_drawn = np.full(size, 1.0 / 30)
            else:
                drawn = raw.choice(30, size=size, replace=True, p=p)
                p_drawn = p[drawn]
            order = np.argsort(drawn, kind="stable")
            idx, p_sel = _draw_indices(problem, scheme, p,
                                       np.random.default_rng(seed))
            assert idx.tobytes() == drawn[order].tobytes()
            assert p_sel.tobytes() == p_drawn[order].tobytes()
            if mode != "uniform_without_replacement":
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
        full = SampleScheme(mode="uniform_without_replacement", epsilon=0.5,
                            delta=0.2, resolved_size=30)
        for seed in range(5):
            drawn = np.random.default_rng(seed).choice(30, size=size, replace=True, p=p)
            idx, p_sel = _draw_indices(problem, nonuniform, p,
                                       np.random.default_rng(seed))
            assert idx.tobytes() == np.sort(drawn).tobytes()
            assert p_sel.tobytes() == p[np.sort(drawn)].tobytes()
            assert np.all(p_sel > 0.0)
            perm = np.random.default_rng(seed).choice(30, size=30, replace=False)
            idx, _ = _draw_indices(problem, full, None, np.random.default_rng(seed))
            assert idx.tobytes() == np.sort(perm).tobytes()

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
            _draw_indices(problem, scheme, p, np.random.default_rng(0))

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

    MODES = {
        "exact": None,
        "uniform": ("uniform_with_replacement", 70),
        "uniform_wor_partial": ("uniform_without_replacement", 70),
        "uniform_wor_full": ("uniform_without_replacement", 120),
        "nonuniform": ("nonuniform", 70),
        "intrinsic": ("nonuniform_intrinsic", 70),
    }

    @staticmethod
    def operator_and_rows(problem, x, case, seed):
        """The operator plus the rows and weights it sums, drawn the same way."""
        second = problem.second_derivatives(x)
        if TestMaterializedOperator.MODES[case] is None:
            return (problem.exact_hessian_operator(x), problem.rows,
                    second / problem.n)
        mode, size = TestMaterializedOperator.MODES[case]
        scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.1,
                              resolved_size=size)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=seed)
        p = (None if mode.startswith("uniform")
             else nonuniform_distribution(problem, x))
        idx, p_sel = _draw_indices(problem, scheme, p,
                                   np.random.default_rng(seed))
        weights = second[idx] / (problem.n * idx.shape[0] * p_sel)
        return op, problem.rows[idx], weights

    # d = 7 takes weighted_gram's GEMM path, d = 80 its SYRK path.
    @pytest.mark.parametrize("case, d", [pytest.param(case, 7, id=case)
                                         for case in MODES]
                             + [pytest.param(case, 80, id=f"{case}-d80")
                                for case in MODES])
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
                                       parse_config_text, run_solver)

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
        assert "lambda_min_dense_final" in format_trace(result, problem=problem)
        assert grams == [2000] * len(probed | {result.x.tobytes()})


def scaled_problem(d: int, scale: float, row_scale: float = 1.0) -> FiniteSumProblem:
    """A bi-weight problem whose loss, and so every weight, is multiplied by
    ``scale``; the curvature bound is left at the bi-weight's, so that the
    norm bounds stay finite at any scale."""

    def evaluate(z, b):
        value, first, second = BIWEIGHT.evaluate(z, b)
        with np.errstate(over="ignore"):
            return value * scale, first * scale, second * scale

    base = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
    loss = replace(BIWEIGHT, name="scaled", evaluate=evaluate)
    return FiniteSumProblem(rows=base.rows * row_scale, targets=base.targets, loss=loss)


class TestLambdaFloor:
    """``lambda_floor`` is a certified lower bound on lambda_min, rounding
    included, for every finite-sum operator."""

    SCALES = (1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300)

    # d = 7 takes weighted_gram's GEMM path, d = 80 its SYRK path.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", [7, 80])
    @pytest.mark.parametrize("case", list(TestMaterializedOperator.MODES))
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


class TestResolveScheme:
    def test_capping_logs_and_caps(self):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10, k_max=1.0)
        scheme = resolve_scheme(problem, "uniform_without_replacement",
                                epsilon=0.05, delta=0.1)
        assert scheme.resolved_size == 50

    def test_uncapped_when_requested(self):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10, k_max=1.0)
        assert prescribed_size(problem, "uniform_with_replacement",
                               epsilon=0.05, delta=0.1) > 50

    def test_intrinsic_needs_point(self):
        problem = generate_synthetic("biweight", n=50, d=10, rng_seed=10)
        with pytest.raises(ConfigurationError):
            resolve_scheme(problem, "nonuniform_intrinsic", epsilon=0.3, delta=0.1)


class TestVerifyConcentration:
    def test_full_sample_never_fails(self, rng):
        problem = generate_synthetic("biweight", n=40, d=6, rng_seed=11)
        x = rng.standard_normal(6)
        scheme = SampleScheme(mode="uniform_without_replacement", epsilon=0.3,
                              delta=0.1, resolved_size=40)
        assert verify_concentration(problem, x, scheme, trials=50, rng_seed=1) == 0.0

    def test_prescribed_size_meets_delta(self, rng):
        problem = generate_synthetic("biweight", n=400, d=8, rng_seed=12, k_max=1.0)
        x = rng.standard_normal(8)
        scheme = resolve_scheme(problem, "uniform_with_replacement",
                                epsilon=0.6, delta=0.2)
        rate = verify_concentration(problem, x, scheme, trials=200, rng_seed=2)
        assert rate <= 0.2

    def test_single_sample_fails_for_tight_epsilon(self, rng):
        # Negative control: one draw cannot match the mean of spread-out
        # per-sample Hessians at a tight accuracy.
        problem = generate_synthetic("biweight", n=200, d=6, rng_seed=13, skew=30.0)
        x = rng.standard_normal(6)
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.05,
                              delta=0.2, resolved_size=1)
        rate = verify_concentration(problem, x, scheme, trials=100, rng_seed=3)
        assert rate > 0.5

    # d = 7 forms the sampled Grams by GEMM, d = 80 by SYRK; 37 trials leave
    # a partial last stack at both sizes.
    @pytest.mark.parametrize("d", [7, 80])
    @pytest.mark.parametrize("mode, size", [
        ("uniform_with_replacement", 40), ("uniform_without_replacement", 40),
        ("nonuniform", 40), ("nonuniform_intrinsic", 40),
        ("uniform_without_replacement", 120)],
        ids=["uniform", "uniform_wor", "nonuniform", "intrinsic", "full"])
    def test_rates_equal_the_per_trial_reference(self, mode, size, d):
        problem = generate_synthetic("biweight", n=120, d=d, rng_seed=21, skew=4.0)
        x = np.random.default_rng(5).standard_normal(d)
        # A full draw has error 0, so eps = -1 makes every trial fail.
        grid = (0.3, -1.0) if size == problem.n else (0.05, 0.13, 0.18, 0.28)
        rates = []
        for eps in grid:
            scheme = SampleScheme(mode=mode, epsilon=eps, delta=0.1,
                                  resolved_size=size)
            rate = verify_concentration(problem, x, scheme, trials=37, rng_seed=9)
            expected = reference_verify_concentration(problem, x, scheme,
                                                      trials=37, rng_seed=9)
            assert rate.hex() == expected.hex(), eps
            rates.append(rate)
        if size == problem.n:
            assert rates == [0.0, 1.0]
        else:
            assert any(0.0 < r < 1.0 for r in rates), rates


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
