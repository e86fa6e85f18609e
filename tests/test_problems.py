import gc
import inspect
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.harness import build_problem, format_trace, parse_config_text, run_solver
from subnewton import problems
from subnewton.problems import (BIWEIGHT, NLS_LOGISTIC, DatasetError,
                                FiniteSumProblem, QuarticSaddle,
                                biweight_scalar, exact_sum, generate_synthetic,
                                load_dataset, nls_logistic_scalar, row_pass,
                                sigmoid, weighted_gram)
from subnewton.sampling import SampleScheme, build_subsampled_hessian

from conftest import count_grams, save_dataset


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


class TestSigmoid:
    # Zero, the subnormal and overflow edges of exp, and both infinities.
    POSITIVE = np.array([0.0, 1e-300, 1.0, 36.0, 709.0, 745.0, 1e300, math.inf])
    Z = np.concatenate([POSITIVE, -POSITIVE[1:]])

    @staticmethod
    def reference(z):
        # The stable form for each sign, evaluated by the math module.
        if z >= 0:
            return 1.0 / (1.0 + math.exp(-z))
        e = math.exp(z)
        return e / (1.0 + e)

    def test_edges_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sigmoid(self.Z)
        assert (s[0], s[7], s[-1]) == (0.5, 1.0, 0.0)
        for z, value in zip(self.Z, s):
            expected = self.reference(z)
            assert abs(value - expected) <= 1e-15 * expected, z

    def test_tails_add_up_to_one(self):
        # Catches forms such as 0.5 + 0.5 tanh(z/2) whose lower tail cancels.
        total = sigmoid(self.Z) + sigmoid(-self.Z)
        assert np.all(np.abs(total - 1.0) <= 2 * math.ulp(1.0))


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
        assert np.array_equal(op.matrix, dense)

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
            k_i = problem.loss.curvature_bound * problem.row_sq_norms[i]
            assert np.max(np.abs(d2)) * problem.row_sq_norms[i] <= k_i + 1e-12

    def test_k_aggregates(self, rng):
        problem = generate_synthetic("biweight", n=40, d=6, rng_seed=6)
        k_i = problem.loss.curvature_bound * problem.row_sq_norms
        assert problem.k_max == pytest.approx(np.max(k_i))
        assert problem.k_hat == pytest.approx(np.mean(k_i))


class TestWeightedGram:
    """sum_i w_i a_i a_i' by GEMM below d = 64 and by SYRK updates from there."""

    WEIGHTS = {"mixed": lambda g, n: g.standard_normal(n),
               "positive": lambda g, n: g.random(n),
               "negative": lambda g, n: -g.random(n),
               "zero": lambda g, n: np.zeros(n)}

    @pytest.mark.parametrize("d", [7, 64, 80])
    @pytest.mark.parametrize("n", [1, 14000])
    @pytest.mark.parametrize("kind", list(WEIGHTS))
    def test_symmetric_and_within_rounding_of_the_gemm(self, rng, kind, n, d):
        # n = 14000 spans five SYRK blocks at d = 64 and six at d = 80, the
        # last one partial, so some stripe sums two blocks.
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
        striped = []
        map_stripes = problems._map_stripes

        def recorded(task, n, d):
            return map_stripes(lambda lo, hi, step: striped.append((lo, hi, step))
                               or task(lo, hi, step), n, d)

        monkeypatch.setattr(problems, "_map_stripes", recorded)
        for d in (1, 20, 63):
            rows = rng.standard_normal((300, d))
            w = rng.standard_normal(300)
            m = (rows * w[:, None]).T @ rows
            assert weighted_gram(rows, w).tobytes() == (0.5 * (m + m.T)).tobytes()
        assert not striped
        weighted_gram(rng.standard_normal((300, 64)), rng.standard_normal(300))
        # From d = 64: one stripe of blocks that each fit BLOCK_BYTES.
        assert striped == [(0, 300, block_rows(64))]


class CountingPool(ThreadPoolExecutor):
    """A pool of stripe helpers that counts the tasks it is given."""

    def __init__(self, helpers):
        super().__init__(helpers)
        self.helpers, self.tasks = helpers, 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


class StalledPool:
    """A pool whose helpers never start: it counts its tasks and drops them."""

    helpers = 3

    def __init__(self):
        self.tasks = 0

    def submit(self, fn):
        self.tasks += 1

    def shutdown(self):
        pass


class EagerPool(StalledPool):
    """A pool whose helper runs on a thread of its own, claiming every
    stripe, before ``submit`` returns: the caller runs none."""

    helpers = 1

    def submit(self, fn):
        super().submit(fn)
        helper = threading.Thread(target=fn)
        helper.start()
        helper.join()


def use_pool(monkeypatch, pool):
    """Run every multi-stripe pass with ``pool``'s helpers."""
    monkeypatch.setattr(problems, "_pool", (os.getpid(), pool, pool.helpers))
    return pool


def block_rows(d):
    """Rows per block of a pass over rows of d doubles."""
    return max(1, problems.BLOCK_BYTES // (8 * d))


def count_loss_rows(problem):
    """Make the problem's loss record the row count of each evaluation."""
    evaluated = []
    evaluate = problem.loss.evaluate

    def counted(z, b):
        evaluated.append(len(z))
        return evaluate(z, b)

    problem.loss = replace(problem.loss, evaluate=counted)
    return evaluated


def reference_mismatches():
    """The (n, d, output) cases where the one-pass oracle's F or f'' differs
    in a bit from the two-pass ``loss(rows @ x)`` (a lone last row's product
    taken on its own, as its one-row block takes it), or grad F by more than
    1e-13 of its magnitude; bit for bit for grad F too up to one block."""
    mismatches = []
    for n in (1, 1023, 1025, 2049, 8193, 20000):
        for d in (1, 5, 64, 200):
            g = np.random.default_rng(n * 1000 + d)
            rows = g.standard_normal((n, d)) / math.sqrt(d)
            targets, x = g.standard_normal(n), g.standard_normal(d)
            problem = FiniteSumProblem(rows=rows, targets=targets, loss=BIWEIGHT)
            f, grad = problem.value_grad(x)
            z = rows @ x
            block = block_rows(d)
            if n % block == 1:
                # A lone last row is a block of its own, whose product numpy
                # takes by a dot; that can round unlike the whole GEMV's row.
                z[-1:] = rows[-1:] @ x
            values, first, second = BIWEIGHT.evaluate(z, targets)
            reference = rows.T @ (first / n)
            magnitude = np.abs(rows).T @ np.abs(first / n)
            checks = {
                "F": _bits(f) == _bits(exact_sum(values) / n),
                "f''": _bits(problem.second_derivatives(x)) == _bits(second),
                "grad": (np.max(np.abs(grad - reference)) <= 1e-13 * np.max(magnitude)
                         and (n > block or _bits(grad) == _bits(reference))),
            }
            mismatches += [(n, d, name) for name, ok in checks.items() if not ok]
    return mismatches


class TestStripes:
    """The striped kernels give the same bytes at any worker count."""

    # Pools of 1, 2 and 3 helpers beside the caller, and helpers that never run.
    POOLS = (lambda: CountingPool(1), lambda: CountingPool(2),
             lambda: CountingPool(3), StalledPool)

    @pytest.mark.parametrize("d", [1, 5, 64, 200])
    @pytest.mark.parametrize("n", [1, 1023, 1025, 2049, 8193, 20000])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, n, d):
        g = np.random.default_rng(n * 1000 + d)
        rows = g.standard_normal((n, d)) / math.sqrt(d)
        targets, w = g.standard_normal(n), g.standard_normal(n)
        x = g.standard_normal(d)
        # A kernel passes over its stripes with helpers once it has two
        # blocks: the oracle always, a Gram from d = 64 (SYRK updates).
        passes = (n > block_rows(d)) * (1 + (d >= problems.SYRK_MIN_DIM))
        outputs = []
        for make in self.POOLS:
            pool = use_pool(monkeypatch, make())
            problem = FiniteSumProblem(rows=rows, targets=targets, loss=BIWEIGHT)
            f, grad = problem.value_grad(x)
            outputs.append((_bits(f), _bits(grad), _bits(problem.second_derivatives(x)),
                            _bits(weighted_gram(rows, w))))
            pool.shutdown()
            # At most one task per helper, and one fewer than the stripes.
            assert (pool.tasks > 0) == (passes > 0)
            assert pool.tasks <= passes * min(pool.helpers, problems.STRIPES - 1)
        assert outputs[1:] == outputs[:1] * 3

    def test_one_pass_matches_the_two_pass_reference(self):
        # At one BLAS thread, where OpenBLAS keeps the whole-matrix GEMV on
        # one thread: its split into threads groups and rounds rows as the
        # row blocks do only when the split lands on a block boundary.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), str(root / "tests"),
                        env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", "from test_problems import reference_mismatches;"
             " print(reference_mismatches())"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_a_failing_stripe_reaches_the_caller_and_keeps_the_record(self, monkeypatch):
        # 8193 rows at d = 200 are nine blocks, the last of one row, in four
        # stripes: each pass gives the two helpers one task each.
        use_pool(monkeypatch, CountingPool(2))
        problem = generate_synthetic("biweight", n=8193, d=200, rng_seed=16)
        x, y = np.zeros(200), np.full(200, 0.01)
        problem.value_grad(x)
        record = problem._last
        evaluate = problem.loss.evaluate

        class StripeFailure(Exception):
            pass

        def failing(z, b):
            if len(z) == 1:  # the last block only
                raise StripeFailure
            return evaluate(z, b)

        problem.loss = replace(problem.loss, evaluate=failing)
        with pytest.raises(StripeFailure):
            problem.value_grad(y)
        assert problems._pool[1].tasks == 2 * 2
        assert problem._last is record
        problem.loss = replace(problem.loss, evaluate=evaluate)
        fresh = generate_synthetic("biweight", n=8193, d=200, rng_seed=16)
        assert _bits(problem.value_grad(y)[1]) == _bits(fresh.value_grad(y)[1])

    def test_a_helpers_first_failure_in_stripe_order_reaches_the_caller(self,
                                                                        monkeypatch):
        use_pool(monkeypatch, EagerPool())
        ran_on = {}

        class StripeFailure(Exception):
            pass

        def task(lo, hi, step):
            ran_on[lo] = threading.get_ident()
            if lo:  # every stripe but the first
                raise StripeFailure(lo)
            return hi

        with pytest.raises(StripeFailure) as failure:  # four 1,024-row stripes
            problems._map_stripes(task, 4096, 200)
        assert failure.value.args == (1024,)
        assert sorted(ran_on) == [0, 1024, 2048, 3072]
        assert threading.get_ident() not in ran_on.values()

    def test_a_pool_whose_helpers_never_start_finishes_every_pass(self, monkeypatch):
        # 20,000 x 200 is twenty blocks: every pass is offered a helper,
        # none ever runs, and the caller's bytes are those of one CPU.
        g = np.random.default_rng(18)
        rows = g.standard_normal((20000, 200)) / math.sqrt(200)
        targets, w = g.standard_normal(20000), g.standard_normal(20000)
        x, v = g.standard_normal(200), g.standard_normal((200, 3))
        index = np.sort(g.integers(0, 20000, size=5000))
        stalled, outputs = StalledPool(), []
        for pool, helpers in ((stalled, 3), (None, 0)):
            monkeypatch.setattr(problems, "_pool", (os.getpid(), pool, helpers))
            problem = FiniteSumProblem(rows=rows, targets=targets, loss=BIWEIGHT)
            outputs.append([_bits(part) for part in problem._evaluate(x)[:3]]
                           + [_bits(weighted_gram(rows, w)),
                              _bits(row_pass(rows, w)(v)),
                              _bits(row_pass(rows, w[index], index)(v))])
        assert outputs[0] == outputs[1]
        assert stalled.tasks == 4 * 3  # four passes, each offered three helpers

    def test_a_new_pid_gets_a_new_pool(self, monkeypatch):
        inherited = CountingPool(1)
        monkeypatch.setattr(problems, "_pool", (os.getpid() + 1, inherited, 1))
        pool, helpers = problems._executor()
        assert pool is not inherited
        assert helpers == min(problems.STRIPES, len(os.sched_getaffinity(0))) - 1
        assert (pool is None) == (helpers == 0)
        assert problems._pool == (os.getpid(), pool, helpers)
        assert problems._executor()[0] is pool
        if pool is not None:
            pool.shutdown()
        inherited.shutdown()

    def test_one_cpu_starts_no_thread(self, monkeypatch, rng):
        monkeypatch.setattr(problems, "_pool", ())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        threads = set(threading.enumerate())
        problem = generate_synthetic("biweight", n=5000, d=200, rng_seed=17)
        problem.value_grad(rng.standard_normal(problem.d))
        assert problems._pool == (os.getpid(), None, 0)
        assert set(threading.enumerate()) <= threads

    def test_a_single_stripe_starts_no_thread(self, monkeypatch, rng):
        # One oracle block, one SYRK block.
        monkeypatch.setattr(problems, "_pool", ())
        threads = set(threading.enumerate())
        d = problems.SYRK_MIN_DIM
        block = block_rows(d)
        problem = generate_synthetic("biweight", n=block, d=d, rng_seed=17)
        problem.value_grad(rng.standard_normal(d))
        weighted_gram(problem.rows, rng.standard_normal(block))
        row_pass(problem.rows, rng.standard_normal(block))(np.ones(d))
        assert problems._pool == ()
        assert set(threading.enumerate()) <= threads

    @pytest.mark.parametrize("d", [1, 5, 64, 200])
    @pytest.mark.parametrize("n", [1, 1023, 1025, 3073, 20000])
    def test_row_pass_does_not_depend_on_the_worker_count(self, monkeypatch, n, d):
        g = np.random.default_rng(n * 1000 + d + 1)
        rows = g.standard_normal((n, d)) / math.sqrt(d)
        w = g.standard_normal(n)
        index = np.sort(g.integers(0, n, size=n))  # a draw with replacement
        v, block = g.standard_normal(d), g.standard_normal((d, 2))
        outputs = []
        for make in self.POOLS:
            pool = use_pool(monkeypatch, make())
            outputs.append([_bits(row_pass(rows, w, idx)(x))
                            for idx in (None, index) for x in (v, block)])
            # The sample's pass is the full pass over its gathered rows.
            assert outputs[-1][2:] == [_bits(row_pass(rows[index], w)(x))
                                       for x in (v, block)]
            pool.shutdown()
            # The row pass takes helpers as the oracle does, from two blocks.
            assert (pool.tasks > 0) == (n > block_rows(d))
        assert outputs[1:] == outputs[:1] * 3

    def test_concurrent_callers_share_a_problem(self, monkeypatch):
        # More callers than CPUs, each working on its own stripes beside the
        # shared helpers, with frequent thread switches: none may deadlock,
        # and each gets the bytes a lone caller gets.
        use_pool(monkeypatch, CountingPool(2))
        problem = generate_synthetic("biweight", n=8193, d=200, rng_seed=19)
        points = [np.full(200, 0.01 * k) for k in range(6)]
        expected = [_bits(generate_synthetic("biweight", n=8193, d=200, rng_seed=19)
                          .value_grad(x)[1]) for x in points]
        results = [None] * len(points)

        def call(k):
            for _ in range(5):
                results[k] = _bits(problem.value_grad(points[k])[1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(6)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == expected


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
        # over the rows again: each distinct point costs exactly one pass,
        # in which the loss reads each of the n rows once.
        config = parse_config_text(self.TR_CFG)
        problem = build_problem(config)
        evaluated = count_loss_rows(problem)
        queried: list[bytes] = []
        passes = []
        for name in ("value_grad", "second_derivatives"):
            method = getattr(problem, name)

            def wrapper(x, _method=method):
                key = np.asarray(x).tobytes()
                before = sum(evaluated)
                out = _method(x)
                queried.append(key)
                if sum(evaluated) > before:
                    passes.append((key, sum(evaluated) - before))
                return out

            setattr(problem, name, wrapper)
        result = run_solver(config, problem)
        format_trace(result, problem=problem)
        runs = [key for i, key in enumerate(queried) if i == 0 or key != queried[i - 1]]
        assert result.n_rejected >= 1
        assert passes == [(key, problem.n) for key in dict.fromkeys(queried)]
        assert sum(evaluated) == problem.n * len(passes)
        assert len(passes) < len(runs)

    def test_two_points_alternate_without_a_new_pass(self, monkeypatch):
        # n spans five oracle blocks in four stripes at d = 200, so each
        # pass gives both helpers a task.
        pool = use_pool(monkeypatch, CountingPool(2))
        problem = generate_synthetic("biweight", n=5000, d=200, rng_seed=14)
        evaluated = count_loss_rows(problem)
        passes = []
        x_a, x_b, x_c = np.zeros(200), np.full(200, 0.01), np.full(200, 0.02)
        for x in (x_a, x_b, x_a, x_b, x_a, x_c, x_a, x_b):
            before = sum(evaluated)
            problem.value_grad(x)
            if sum(evaluated) > before:
                passes.append((x.tobytes(), sum(evaluated) - before))
        assert passes == [(x.tobytes(), 5000) for x in (x_a, x_b, x_c, x_b)]
        assert pool.tasks == 2 * len(passes)
        pool.shutdown()

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

    def test_formed_matrices_are_freed_by_reference_counting(self, monkeypatch):
        # No operator or record entry is part of a reference cycle, so with
        # the cyclic collector off a formed matrix still goes as soon as the
        # last operator and record entry that hold it do.
        grams = count_grams(monkeypatch)
        problem = generate_synthetic("biweight", n=200, d=6, rng_seed=15)
        x, v = np.full(6, 0.3), np.ones(6)
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.5,
                              delta=0.1, resolved_size=20)
        enabled = gc.isenabled()
        gc.disable()
        try:
            partial = build_subsampled_hessian(problem, x, scheme, rng_seed=1)
            exact = problem.exact_hessian_operator(x)
            original = build_subsampled_hessian(problem, x, scheme, rng_seed=2)
            copy = replace(original, apply=lambda v, inner=original.apply: inner(v))
            partial.apply(v)
            exact.apply(v)
            before = len(grams)
            copy.apply(v)
            assert original.matrix is copy.matrix
            assert len(grams) == before + 1
            refs = [weakref.ref(op.matrix) for op in (partial, exact, copy)]
            del partial, exact, original, copy
            problem.value_grad(np.zeros(6))
            problem.value_grad(np.ones(6))
            assert [ref() is None for ref in refs] == [True, True, True]
        finally:
            if enabled:
                gc.enable()


    def test_row_pass_arrays_are_freed_by_reference_counting(self):
        # An operator's apply holds its weights (and a sample's index) in a
        # closure that refers to no operator or record entry, so with the
        # cyclic collector off they go with the last operator that holds
        # them and the record entry of their point.
        problem = generate_synthetic("biweight", n=200, d=6, rng_seed=15)
        x = np.full(6, 0.3)
        scheme = SampleScheme(mode="uniform_with_replacement", epsilon=0.5,
                              delta=0.1, resolved_size=20)
        enabled = gc.isenabled()
        gc.disable()
        try:
            ops = [problem.exact_hessian_operator(x),
                   build_subsampled_hessian(problem, x, scheme, rng_seed=1)]
            ops.append(replace(ops[1], apply=lambda v, inner=ops[1].apply: inner(v)))
            for op in ops:
                op.apply(np.ones(6))
                op.apply(np.ones((6, 2)))
                assert op.matrix is op.matrix
            held = [inspect.getclosurevars(op.apply).nonlocals for op in ops[:2]]
            refs = [weakref.ref(held[0]["weights"]), weakref.ref(held[1]["weights"]),
                    weakref.ref(held[1]["index"])]
            del ops, op, held
            problem.value_grad(np.zeros(6))
            problem.value_grad(np.ones(6))
            assert [ref() is None for ref in refs] == [True, True, True]
        finally:
            if enabled:
                gc.enable()


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
