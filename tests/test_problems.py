import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.core import densify
from subnewton.harness import build_problem, format_trace, parse_config_text, run_solver
from subnewton import problems
from subnewton.problems import (BIWEIGHT, NLS_LOGISTIC, DatasetError,
                                FiniteSumProblem, QuarticSaddle,
                                biweight_scalar, exact_sum, generate_synthetic,
                                load_dataset, nls_logistic_scalar, weighted_gram)

from conftest import save_dataset


def central_diff(fn, z, b, h=1e-5):
    vp, _, _ = fn(np.array([z + h]), np.array([b]))
    vm, _, _ = fn(np.array([z - h]), np.array([b]))
    first = (vp[0] - vm[0]) / (2 * h)
    v0, _, _ = fn(np.array([z]), np.array([b]))
    second = (vp[0] - 2 * v0[0] + vm[0]) / (h * h)
    return first, second


class TestBiweightScalar:
    def test_zero_residual(self):
        v, d1, d2 = biweight_scalar(np.array([3.0]), np.array([3.0]))
        assert v[0] == 0.0 and d1[0] == 0.0 and d2[0] == 2.0

    def test_curvature_bound_is_tight_and_valid(self, rng):
        z = rng.uniform(-50, 50, size=10**4)
        b = rng.uniform(-5, 5, size=10**4)
        _, _, d2 = biweight_scalar(z, b)
        assert np.max(np.abs(d2)) <= BIWEIGHT.curvature_bound + 1e-12
        # Tight at the zero residual.
        _, _, at0 = biweight_scalar(np.zeros(1), np.zeros(1))
        assert at0[0] == BIWEIGHT.curvature_bound

    @given(z=st.floats(-20, 20), b=st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_finite_differences(self, z, b):
        _, d1, d2 = biweight_scalar(np.array([z]), np.array([b]))
        fd1, fd2 = central_diff(biweight_scalar, z, b)
        assert d1[0] == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert d2[0] == pytest.approx(fd2, rel=1e-4, abs=1e-4)

    def test_third_derivative_bound(self, rng):
        # |f''(x) - f''(y)| <= third_bound * |x - y| over a dense probe set.
        z = np.sort(rng.uniform(-10, 10, size=20000))
        _, _, d2 = biweight_scalar(z, np.zeros_like(z))
        slopes = np.abs(np.diff(d2) / np.diff(z))
        assert np.max(slopes) <= BIWEIGHT.third_bound


class TestLogisticScalar:
    def test_midpoint_values(self):
        v, d1, d2 = nls_logistic_scalar(np.array([0.0]), np.array([0.5]))
        assert v[0] == 0.0 and d1[0] == 0.0
        assert d2[0] == pytest.approx(1.0 / 8.0)

    def test_overflow_safe(self):
        v, d1, d2 = nls_logistic_scalar(np.array([1e4, -1e4]), np.array([0.0, 1.0]))
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))

    def test_curvature_bound_valid(self, rng):
        z = rng.uniform(-60, 60, size=10**4)
        b = rng.integers(0, 2, size=10**4).astype(float)
        _, _, d2 = nls_logistic_scalar(z, b)
        assert np.max(np.abs(d2)) <= NLS_LOGISTIC.curvature_bound + 1e-12

    @given(z=st.floats(-25, 25), b=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_finite_differences(self, z, b):
        _, d1, d2 = nls_logistic_scalar(np.array([z]), np.array([b]))
        fd1, fd2 = central_diff(nls_logistic_scalar, z, b)
        assert d1[0] == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert d2[0] == pytest.approx(fd2, rel=1e-4, abs=1e-4)


class TestFiniteSumProblem:
    def test_zero_point_biweight(self):
        problem = FiniteSumProblem(rows=np.eye(3), targets=np.zeros(3), loss=BIWEIGHT)
        f, g = problem.value_grad(np.zeros(3))
        assert f == 0.0
        assert np.allclose(g, 0.0)

    def test_gradient_matches_finite_differences(self, rng):
        problem = generate_synthetic("biweight", n=60, d=8, rng_seed=1)
        x = rng.standard_normal(8)
        _, grad = problem.value_grad(x)
        h = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fp, _ = problem.value_grad(x + e)
            fm, _ = problem.value_grad(x - e)
            assert grad[j] == pytest.approx((fp - fm) / (2 * h), rel=1e-6, abs=1e-8)

    def test_value_invariant_under_row_permutation(self, rng):
        problem = generate_synthetic("nls_logistic", n=50, d=6, rng_seed=2)
        perm = rng.permutation(50)
        shuffled = FiniteSumProblem(rows=problem.rows[perm],
                                    targets=problem.targets[perm],
                                    loss=problem.loss)
        x = rng.standard_normal(6)
        f_a, g_a = problem.value_grad(x)
        f_b, g_b = shuffled.value_grad(x)
        assert f_a == f_b  # fsum is exactly rounded, hence order-free
        assert np.allclose(g_a, g_b, rtol=1e-12, atol=1e-14)
        assert np.allclose(problem.dense_hessian(x), shuffled.dense_hessian(x),
                           rtol=1e-12, atol=1e-14)

    def test_operator_matches_dense(self, rng):
        problem = generate_synthetic("biweight", n=80, d=10, rng_seed=3)
        x = rng.standard_normal(10)
        op = problem.exact_hessian_operator(x)
        dense = problem.dense_hessian(x)
        for _ in range(10):
            v = rng.standard_normal(10)
            assert np.allclose(op.apply(v), dense @ v, atol=1e-12)
        assert np.allclose(densify(op), dense, atol=1e-12)

    def test_biweight_hessian_at_origin(self):
        rows = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        problem = FiniteSumProblem(rows=rows, targets=np.zeros(3), loss=BIWEIGHT)
        dense = problem.dense_hessian(np.zeros(2))
        assert np.allclose(dense, 2.0 / 3.0 * rows.T @ rows, atol=1e-14)

    def test_spectral_norm_below_k_max(self, rng):
        problem = generate_synthetic("biweight", n=100, d=12, rng_seed=4)
        for _ in range(5):
            x = rng.standard_normal(12)
            dense = problem.dense_hessian(x)
            norm = np.max(np.abs(np.linalg.eigvalsh(dense)))
            assert norm <= problem.k_max * (1 + 1e-12)

    def test_per_row_bound_never_violated(self, rng):
        problem = generate_synthetic("nls_logistic", n=30, d=5, rng_seed=5)
        z = rng.uniform(-30, 30, size=10**4)
        for i in [0, 7, 29]:
            _, _, d2 = problem.loss.evaluate(z, np.full_like(z, problem.targets[i]))
            assert np.max(np.abs(d2)) * problem.row_sq_norms[i] <= problem.k_i[i] + 1e-12

    def test_k_aggregates(self, rng):
        problem = generate_synthetic("biweight", n=40, d=6, rng_seed=6)
        assert problem.k_max == pytest.approx(np.max(problem.k_i))
        assert problem.k_hat == pytest.approx(np.mean(problem.k_i))


class TestWeightedGram:
    """sum_i w_i a_i a_i' by GEMM below d = 64 and by SYRK updates from there."""

    WEIGHTS = {"mixed": lambda g, n: g.standard_normal(n),
               "positive": lambda g, n: g.random(n),
               "negative": lambda g, n: -g.random(n),
               "zero": lambda g, n: np.zeros(n)}

    @pytest.mark.parametrize("d", [7, 64, 80])
    @pytest.mark.parametrize("n", [1, 2500])
    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_symmetric_and_within_rounding_of_the_gemm(self, rng, kind, n, d):
        # n = 2500 spans three SYRK blocks, the last one partial.
        rows = rng.standard_normal((n, d))
        w = self.WEIGHTS[kind](rng, n)
        gram = weighted_gram(rows, w)
        assert np.array_equal(gram, gram.T)
        reference = (rows * w[:, None]).T @ rows
        magnitude = np.abs(rows).T @ (np.abs(w)[:, None] * np.abs(rows))
        assert (np.linalg.norm(gram - reference, 2)
                <= 1e-13 * np.linalg.norm(magnitude, 2))

    def test_gemm_below_64_columns_is_the_old_expression_bitwise(self, rng,
                                                                 monkeypatch):
        syrk_calls = []
        syrk = problems.dsyrk
        monkeypatch.setattr(problems, "dsyrk",
                            lambda *a, **k: syrk_calls.append(1) or syrk(*a, **k))
        for d in (1, 20, 63):
            rows = rng.standard_normal((300, d))
            w = rng.standard_normal(300)
            m = (rows * w[:, None]).T @ rows
            assert weighted_gram(rows, w).tobytes() == (0.5 * (m + m.T)).tobytes()
        assert not syrk_calls
        weighted_gram(rng.standard_normal((300, 64)), rng.standard_normal(300))
        assert syrk_calls


class TestGenerateSynthetic:
    def test_no_skew_ratio_is_order_one(self):
        problem = generate_synthetic("biweight", n=100, d=10, rng_seed=7)
        assert problem.k_max / problem.k_hat < 5.0

    def test_skew_widens_ratio(self):
        problem = generate_synthetic("biweight", n=100, d=10, rng_seed=7, skew=100.0)
        assert problem.k_max / problem.k_hat >= 10.0

    def test_k_max_target_hit_exactly(self):
        problem = generate_synthetic("biweight", n=50, d=5, rng_seed=8, k_max=1.0)
        assert problem.k_max == pytest.approx(1.0, rel=1e-12)

    def test_deterministic_under_seed(self):
        a = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=9)
        b = generate_synthetic("nls_logistic", n=30, d=4, rng_seed=9)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.targets, b.targets)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _sum_outcome(total, values):
    """The bits of total(values), or the type of the exception it raises."""
    try:
        return _bits(total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestExactSum:
    """exact_sum is math.fsum bit for bit, sign of zero and exceptions included."""

    def assert_matches_fsum(self, values):
        values = np.asarray(values, dtype=float)
        assert (_sum_outcome(exact_sum, values)
                == _sum_outcome(math.fsum, values.tolist()))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_floats(self, values):
        self.assert_matches_fsum(values)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3000),
           low=st.integers(-1074, 1000), span=st.integers(0, 400))
    @settings(max_examples=150, deadline=None)
    def test_wide_exponent_arrays(self, seed, n, low, span):
        # Sizes past numpy's pairwise-sum blocks; exponent spans that leave
        # residuals after the last extraction level.
        rng = np.random.default_rng(seed)
        exponents = rng.integers(low, min(low + span, 1000) + 1, size=n)
        self.assert_matches_fsum(np.ldexp(rng.standard_normal(n), exponents))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_small_sizes(self, n, rng):
        self.assert_matches_fsum(rng.standard_normal(n))
        self.assert_matches_fsum(-np.abs(rng.standard_normal(n)) * 1e-300)

    def test_magnitudes_spanning_e_to_the_700(self, rng):
        signs = rng.choice([-1.0, 1.0], size=5000)
        self.assert_matches_fsum(signs * np.exp(rng.uniform(-700, 700, size=5000)))

    def test_huge_values_mixed_with_subnormals(self, rng):
        subnormals = rng.choice([-1.0, 1.0], size=200) * rng.integers(1, 2**40, 200) * 5e-324
        for huge in ([1e308, -1e308], [1e308, -1e308, 1e300], [1e300, -3e299]):
            self.assert_matches_fsum(np.concatenate([huge, subnormals]))
            self.assert_matches_fsum(np.concatenate([subnormals, huge, subnormals]))

    def test_rounding_ties_go_to_even(self):
        half_ulp = 2.0 ** -53
        cases = [([1.0, half_ulp], 1.0),
                 ([1.0 + 2 * half_ulp, half_ulp], 1.0 + 4 * half_ulp),
                 ([1.0, half_ulp, 2.0 ** -120], 1.0 + 2 * half_ulp),
                 ([1.0, half_ulp, -(2.0 ** -120)], 1.0)]
        for values, expected in cases:
            for order in (values, values[::-1]):
                self.assert_matches_fsum(order * 50 + [-v for v in order] * 49)
                assert exact_sum(np.array(order)) == expected

    def test_signed_zeros(self):
        for values in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0],
                       [1.0, -1.0], [-5e-324, 5e-324], [-0.0] * 20):
            self.assert_matches_fsum(values)

    def test_exceptions_and_nan_as_fsum(self):
        with pytest.raises(OverflowError):
            exact_sum(np.array([1e308, 1e308]))
        with pytest.raises(ValueError):
            exact_sum(np.array([np.inf, -np.inf]))
        assert math.isnan(exact_sum(np.array([1.0, np.nan, 2.0])))
        assert exact_sum(np.array([np.inf, 1.0])) == np.inf

    def test_loss_vectors(self, rng):
        problem = generate_synthetic("biweight", n=5000, d=8, rng_seed=15)
        for _ in range(20):
            values, _, second = problem.loss.evaluate(
                problem.predictions(rng.standard_normal(8)), problem.targets)
            self.assert_matches_fsum(values)
            self.assert_matches_fsum(np.abs(second) * problem.row_sq_norms)


class TestEvaluationRecord:
    """One data pass per point: F, grad F and f'' share the last evaluation."""

    TR_CFG = ("problem = biweight\nsolver = tr\nhessian = uniform_wor\n"
              "n = 3000\nd = 10\nk_max_target = 1.0\nx0_scale = 0.5\nseed = 1\n")

    def test_revisits_and_near_points_match_a_fresh_instance(self, rng):
        problem = generate_synthetic("biweight", n=200, d=6, rng_seed=12)
        x_a = rng.standard_normal(6)
        x_a[0] = 0.0
        x_b = rng.standard_normal(6)
        x_neg_zero = x_a.copy()
        x_neg_zero[0] = -0.0
        x_ulp = x_a.copy()
        x_ulp[1] = np.nextafter(x_a[1], np.inf)
        for x in (x_a, x_b, x_a, x_neg_zero, x_ulp):
            fresh = FiniteSumProblem(rows=problem.rows, targets=problem.targets,
                                     loss=problem.loss)
            f, grad = problem.value_grad(x)
            second = problem.second_derivatives(x)
            f_ref, grad_ref = fresh.value_grad(x)
            assert _bits(f) == _bits(f_ref)
            assert _bits(grad) == _bits(grad_ref)
            assert _bits(second) == _bits(fresh.second_derivatives(x))

    def test_returned_arrays_are_read_only(self):
        problem = generate_synthetic("nls_logistic", n=50, d=4, rng_seed=13)
        _, grad = problem.value_grad(np.ones(4))
        second = problem.second_derivatives(np.ones(4))
        # The dense Hessian is shared with the exact operator at the point.
        dense = problem.dense_hessian(np.ones(4))
        for array in (grad, second, dense):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_one_pass_per_distinct_point(self):
        # The record keeps the current point and the last trial, so the loop
        # head's query after a rejected trial reads it instead of passing
        # over the rows again: each distinct point costs exactly one pass.
        config = parse_config_text(self.TR_CFG)
        problem = build_problem(config)
        queried: list[bytes] = []
        passes = []
        for name in ("value_grad", "second_derivatives"):
            method = getattr(problem, name)

            def wrapper(x, _method=method):
                queried.append(np.asarray(x).tobytes())
                return _method(x)

            setattr(problem, name, wrapper)
        predictions = problem.predictions

        def counted_predictions(x):
            passes.append(np.asarray(x).tobytes())
            return predictions(x)

        problem.predictions = counted_predictions
        result = run_solver(config, problem)
        format_trace(result, problem=problem)
        runs = [key for i, key in enumerate(queried) if i == 0 or key != queried[i - 1]]
        assert result.n_rejected >= 1
        assert passes == list(dict.fromkeys(queried))
        assert len(passes) < len(runs)

    def test_two_points_alternate_without_a_new_pass(self):
        problem = generate_synthetic("biweight", n=100, d=4, rng_seed=14)
        passes = []
        predictions = problem.predictions

        def counted_predictions(x):
            passes.append(np.asarray(x).tobytes())
            return predictions(x)

        problem.predictions = counted_predictions
        x_a, x_b, x_c = np.zeros(4), np.ones(4), np.full(4, 2.0)
        for x in (x_a, x_b, x_a, x_b, x_a, x_c, x_a, x_b):
            problem.value_grad(x)
        assert passes == [x.tobytes() for x in (x_a, x_b, x_c, x_b)]

    def test_trace_matches_a_run_that_never_reuses(self):
        config = parse_config_text(self.TR_CFG)
        problem = build_problem(config)
        traced = format_trace(run_solver(config, problem), problem=problem)
        forgetful = build_problem(config)
        evaluate = forgetful._evaluate

        def evaluate_afresh(x):
            forgetful._last = ()
            return evaluate(x)

        forgetful._evaluate = evaluate_afresh
        assert format_trace(run_solver(config, forgetful), problem=forgetful) == traced


class TestQuarticSaddle:
    def test_saddle_structure(self):
        q = QuarticSaddle()
        f, g = q.value_grad(np.zeros(2))
        assert f == 0.0 and np.allclose(g, 0.0)
        assert np.allclose(np.diag(q.dense_hessian(np.zeros(2))), [-1.0, 1.0])

    def test_minima(self):
        q = QuarticSaddle()
        for sign in (-1.0, 1.0):
            f, g = q.value_grad(np.array([sign, 0.0]))
            assert f == pytest.approx(-0.25)
            assert np.allclose(g, 0.0)
            assert np.linalg.eigvalsh(q.dense_hessian(np.array([sign, 0.0])))[0] > 0


class TestDatasets:
    def test_csv_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("a,b,target\n1.0,2.0,0.5\n3.0,4.0,1.5\n5.0,6.0,2.5\n")
        problem = load_dataset(path, fmt="csv", loss="biweight")
        assert problem.n == 3 and problem.d == 2
        assert np.allclose(problem.rows, [[1, 2], [3, 4], [5, 6]])
        assert np.allclose(problem.targets, [0.5, 1.5, 2.5])

    def test_csv_roundtrip(self, tmp_path, rng):
        problem = generate_synthetic("biweight", n=20, d=4, rng_seed=10)
        path = tmp_path / "round.csv"
        save_dataset(problem, path, fmt="csv")
        back = load_dataset(path, fmt="csv", loss="biweight")
        assert np.array_equal(back.rows, problem.rows)
        assert np.array_equal(back.targets, problem.targets)

    def test_svmlight_roundtrip(self, tmp_path):
        problem = generate_synthetic("nls_logistic", n=15, d=3, rng_seed=11)
        path = tmp_path / "round.svml"
        save_dataset(problem, path, fmt="svmlight")
        back = load_dataset(path, fmt="svmlight", loss="nls_logistic")
        assert np.array_equal(back.rows, problem.rows)
        assert np.array_equal(back.targets, problem.targets)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.5\n1.0,oops,0.5\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path, fmt="csv")

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.5\n1.0,0.5\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path, fmt="csv")

    def test_svmlight_one_based_indices(self, tmp_path):
        path = tmp_path / "bad.svml"
        path.write_text("1.0 0:2.0\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path, fmt="svmlight")
