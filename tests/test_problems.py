import gc
import inspect
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.harness import build_problem, format_trace, parse_config_text, run_solver
from subnewton import problems
from subnewton.problems import (BIWEIGHT, NLS_LOGISTIC, DatasetError,
                                FiniteSumProblem, QuarticSaddle, exact_sum,
                                generate_synthetic, load_dataset, row_pass,
                                sigmoid, weighted_gram)
from subnewton.sampling import SampleScheme, build_subsampled_hessian

from conftest import (POOLS, CountingPool, EagerPool, StalledPool, biweight_scalar,
                      count_grams, nls_logistic_scalar, save_dataset, use_pool)


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


# z and b of every magnitude, each of both signs: zero, the smallest
# subnormal, 1e-300 to 1e300 every ten decades, and near the float maximum.
MAGNITUDES = (0.0, 5e-324, *(10.0 ** k for k in range(-300, 301, 10)), 1.7e308)
LADDER = np.array([sign * m for m in MAGNITUDES for sign in (1.0, -1.0)])


def on_ladder(loss):
    """z, b, F, f'/n and f'' of ``loss`` at n = 3 on every pair of ladder
    values, under the error state of the pass and of ``_second``."""
    z, b = (grid.ravel() for grid in np.meshgrid(LADDER, LADDER))
    value, first, work = np.empty((3, z.size))
    with np.errstate(over="ignore", invalid="ignore"):
        loss.step(z, b, 3, value, first, work)
        second = loss.second(z, b)
    return z, b, value, first, second


class TestLossRange:
    """No finite z and b make the bi-weight, a loss in [0, 1), non-finite,
    and the logistic's f'' is finite wherever its F is."""

    def test_biweight_is_finite_and_bounded_on_the_ladder(self):
        _, _, value, first, second = on_ladder(BIWEIGHT)
        assert np.all((0.0 <= value) & (value <= 1.0))
        assert np.all(np.isfinite(first))
        assert np.all(np.abs(second) <= BIWEIGHT.curvature_bound)

    def test_biweight_keeps_its_bits_below_the_far_threshold(self):
        z, b, value, first, second = on_ladder(BIWEIGHT)
        with np.errstate(over="ignore"):
            near = np.abs(z - b) < 2.0 ** 128
        r = z[near] - b[near]
        # The formulas in r, as the pass evaluated them before the q form.
        t = 1.0 + r * r
        assert _bits(value[near]) == _bits(r * r / t)
        assert _bits(first[near]) == _bits(2.0 * r / (t * t) / 3)
        assert _bits(second[near]) == _bits(2.0 * (1.0 - 3.0 * r * r) / (t * t * t))

    @pytest.mark.parametrize("r", [2.0 ** 128 * (1 + 2.0 ** -52), 1e40, 1e77, 1e154,
                                   5.5e153, 1e200, 1e300])
    def test_biweight_far_form_is_the_exact_loss_rounded(self, r):
        # Within a few roundings of the exact rational values; f'' underflows
        # from |r| ~ 1e77 on, f' from ~1e103.
        exact = Fraction(r)
        t = 1 + exact * exact
        value, first, work = np.empty((3, 1))
        BIWEIGHT.step(np.array([r]), np.zeros(1), 1, value, first, work)
        second = BIWEIGHT.second(np.array([r]), np.zeros(1))
        for got, want in ((value, exact * exact / t), (first, 2 * exact / t ** 2),
                          (second, 2 * (1 - 3 * exact * exact) / t ** 3)):
            assert math.isclose(got[0], float(want), rel_tol=1e-15, abs_tol=1e-322)

    def test_logistic_curvature_is_finite_wherever_its_value_is(self):
        _, _, value, _, second = on_ladder(NLS_LOGISTIC)
        assert np.all(np.isfinite(second[np.isfinite(value)]))


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
            d2 = problem.loss.second(z, np.full_like(z, problem.targets[i]))
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


def block_rows(d):
    """Rows per block of a pass over rows of d doubles."""
    return max(1, problems.BLOCK_BYTES // (8 * d))


def count_loss_rows(problem):
    """Make the problem's loss record the row count of each pass step."""
    evaluated = []
    step = problem.loss.step

    def counted(z, b, *args):
        evaluated.append(len(z))
        return step(z, b, *args)

    problem.loss = replace(problem.loss, step=counted)
    return evaluated


def reference_mismatches():
    """The (loss, n, d, output) cases where the one-pass oracle's F or f''
    differs in a bit from the two-pass reference ``loss(rows @ x)`` (a lone
    last row's product taken on its own, as its one-row block takes it), or
    grad F by more than 1e-13 of its magnitude; bit for bit for grad F too
    up to one block."""
    mismatches = []
    for (n, d), (loss, scalar) in itertools.product(
            itertools.product((1, 1023, 1025, 2049, 8193, 20000), (1, 5, 64, 200)),
            ((BIWEIGHT, biweight_scalar), (NLS_LOGISTIC, nls_logistic_scalar))):
        g = np.random.default_rng(n * 1000 + d)
        rows = g.standard_normal((n, d)) / math.sqrt(d)
        targets, x = g.standard_normal(n), g.standard_normal(d)
        problem = FiniteSumProblem(rows=rows, targets=targets, loss=loss)
        f, grad = problem.value_grad(x)
        z = rows @ x
        block = block_rows(d)
        if n % block == 1:
            # A lone last row is a block of its own, whose product numpy
            # takes by a dot; that can round unlike the whole GEMV's row.
            z[-1:] = rows[-1:] @ x
        values, first, second = scalar(z, targets)
        reference = rows.T @ (first / n)
        magnitude = np.abs(rows).T @ np.abs(first / n)
        checks = {
            "F": _bits(f) == _bits(exact_sum(values) / n),
            "f''": _bits(problem.second_derivatives(x)) == _bits(second),
            "grad": (np.max(np.abs(grad - reference)) <= 1e-13 * np.max(magnitude)
                     and (n > block or _bits(grad) == _bits(reference))),
        }
        mismatches += [(loss.name, n, d, name) for name, ok in checks.items()
                       if not ok]
    return mismatches


class TestStripes:
    """The striped kernels give the same bytes at any worker count."""

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
        for make in POOLS:
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
        step = problem.loss.step

        class StripeFailure(Exception):
            pass

        def failing(z, b, *args):
            if len(z) == 1:  # the last block only
                raise StripeFailure
            return step(z, b, *args)

        problem.loss = replace(problem.loss, step=failing)
        with pytest.raises(StripeFailure):
            problem.value_grad(y)
        assert problems._pool[1].tasks == 2 * 2
        assert problem._last is record
        problem.loss = replace(problem.loss, step=step)
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

    def test_claims_in_the_given_order_and_returns_in_task_order(self, monkeypatch):
        # With no helper the caller claims every task, in the given order.
        # Every task runs, and the first failure in task order is raised.
        monkeypatch.setattr(problems, "_pool", (os.getpid(), None, 0))
        ran = []

        def task(k):
            def run():
                ran.append(k)
                if k in (1, 3):
                    raise ValueError(k)
                return k * k
            return run

        assert problems.run_claimed([task(k) for k in (0, 2, 4)],
                                    order=[2, 0, 1]) == [0, 4, 16]
        assert ran == [4, 0, 2]
        ran.clear()
        with pytest.raises(ValueError) as failure:
            problems.run_claimed([task(k) for k in range(5)], order=[4, 3, 2, 1, 0])
        assert failure.value.args == (1,)
        assert ran == [4, 3, 2, 1, 0]

    def test_a_single_task_runs_inline_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(problems, "_pool", ())
        threads = set(threading.enumerate())
        assert problems.run_claimed([threading.get_ident]) == [threading.get_ident()]
        assert problems.run_claimed([]) == []
        assert problems._pool == ()
        assert set(threading.enumerate()) <= threads

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
                           + [_bits(problem.second_derivatives(x))]
                           + [_bits(weighted_gram(rows, w)),
                              _bits(row_pass(rows, w)(v)),
                              _bits(row_pass(rows, w[index], index)(v))])
        assert outputs[0] == outputs[1]
        assert stalled.tasks == 4 * 3  # four passes, each offered three helpers

    def test_a_helper_that_has_not_started_is_cancelled(self, monkeypatch):
        # A real one-worker executor whose worker is held: the pass's helper
        # waits in the queue, and the caller runs every stripe, cancels it
        # and returns while the worker is still held.
        x = np.full(200, 0.01)
        monkeypatch.setattr(problems, "_pool", (os.getpid(), None, 0))
        inline = generate_synthetic("biweight", n=8193, d=200, rng_seed=20)
        expected = [_bits(part) for part in inline._evaluate(x)[:3]]
        pool, gate = use_pool(monkeypatch, CountingPool(1)), threading.Event()
        held = pool.submit(gate.wait, 60)
        problem = generate_synthetic("biweight", n=8193, d=200, rng_seed=20)
        outputs = [_bits(part) for part in problem._evaluate(x)[:3]]
        assert not held.done()
        gate.set()
        pool.shutdown()
        assert held.result() is True
        assert pool.tasks == 1 + 1
        assert outputs == expected

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
        for make in POOLS:
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
            values, _, second = biweight_scalar(
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

            def wrapper(x, *args, _method=method):
                key = np.asarray(x).tobytes()
                before = sum(evaluated)
                out = _method(x, *args)
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
        scheme = SampleScheme(mode="uniform", epsilon=0.5,
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
        scheme = SampleScheme(mode="uniform", epsilon=0.5,
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


class TestLeanPass:
    """The pass computes F and f' in place and keeps z = Ax; f'' is evaluated
    from z only on the rows a Hessian reads."""

    # Residuals from +-0 through subnormals, the bi-weight's switch to q = 1/r
    # above 2^128 and past 1.34e154, where r^2 overflows, and the logistic's
    # exp edges; NaN and infinite z after.
    RESIDUALS = [0.0, 5e-324, 1e-310, 2.2e-308, 1e-160, 1e-8, 0.5, 1.0, 3.0, 36.0,
                 709.0, 746.0, 1e8, 1e38, 2.0 ** 128, 2.0 ** 128 * (1 + 2.0 ** -52),
                 1e77, 1.2e77, 1e100, 1.3e154, 1.4e154, 1e200]
    TARGETS = {"biweight": [0.0, -0.0, 1.5, -3.0, 5e-324],
               "nls_logistic": [0.0, -0.0, 1.0, 0.3, -2.0, 5e-324]}
    REFERENCES = {"biweight": biweight_scalar, "nls_logistic": nls_logistic_scalar}

    def grid(self, name):
        r = np.array(self.RESIDUALS + [-v for v in self.RESIDUALS])
        b = np.array(self.TARGETS[name])
        z = np.concatenate([(r[:, None] + b).ravel(),
                            np.repeat([np.nan, np.inf, -np.inf], b.size)])
        return z, np.concatenate([np.tile(b, r.size), np.tile(b, 3)])

    @pytest.mark.parametrize("name", ["biweight", "nls_logistic"])
    @pytest.mark.parametrize("n", [1, 3, 1000, 100_000])
    def test_step_matches_the_reference_value_and_first_over_n(self, name, n):
        z, b = self.grid(name)
        value, first, work = np.full((3, z.size), 7.0)
        with np.errstate(over="ignore", invalid="ignore"):
            problems.LOSSES[name].step(z, b, n, value, first, work)
            ref_value, ref_first, _ = self.REFERENCES[name](z, b)
            ref_first = ref_first / n
        assert _bits(value) == _bits(ref_value)
        assert _bits(first) == _bits(ref_first)

    @pytest.mark.parametrize("name", ["biweight", "nls_logistic"])
    def test_second_on_any_rows_equals_the_full_vector(self, name, rng):
        z, b = self.grid(name)
        z, b = np.concatenate([z, rng.standard_normal(301) * 30]), np.concatenate(
            [b, rng.choice(self.TARGETS[name], 301)])
        loss = problems.LOSSES[name]
        with np.errstate(over="ignore", invalid="ignore"):
            full = loss.second(z, b)
            assert _bits(full) == _bits(self.REFERENCES[name](z, b)[2])
            for index in (np.arange(1, z.size), np.arange(2, z.size, 3), [0, 0, 5],
                          np.sort(rng.integers(0, z.size, 40)), np.arange(0),
                          rng.permutation(z.size)):
                assert _bits(loss.second(z[index], b[index])) == _bits(full[index])
        problem = generate_synthetic(name, n=3000, d=7, rng_seed=19)
        x = rng.standard_normal(7)
        index = np.sort(rng.integers(0, 3000, 200))
        assert (_bits(problem.second_derivatives(x, index))
                == _bits(problem.second_derivatives(x)[index]))

    @staticmethod
    def count_second_rows(problem):
        """Make the problem's loss record each f'' evaluation's row count
        and z bytes."""
        calls = []
        second = problem.loss.second

        def counted(z, b):
            calls.append((len(z), np.asarray(z).tobytes()))
            return second(z, b)

        problem.loss = replace(problem.loss, second=counted)
        return calls

    def test_a_partial_uniform_build_evaluates_its_sample_rows(self):
        problem = generate_synthetic("biweight", n=500, d=6, rng_seed=15)
        calls = self.count_second_rows(problem)
        steps = count_loss_rows(problem)
        x = np.full(6, 0.3)
        for mode in ("uniform_wor", "uniform"):
            scheme = SampleScheme(mode=mode, epsilon=0.5, delta=0.1, resolved_size=40)
            build_subsampled_hessian(problem, x, scheme, rng_seed=1).apply(np.ones(6))
        assert [size for size, _ in calls] == [40, 40]
        assert sum(steps) == 500

    @pytest.mark.parametrize("hessian", ["exact", "nonuniform", "intrinsic", "uniform_wor"])
    def test_full_second_is_evaluated_once_per_point(self, hessian):
        # Delta_0 = 64 forces rejected trials; the loop head's next query at
        # the same point, and the footer's at the last, read the record.
        config = parse_config_text(TestEvaluationRecord.TR_CFG.replace(
            "uniform_wor", hessian) + "radius0 = 64\n")
        problem = build_problem(config)
        calls = self.count_second_rows(problem)
        result = run_solver(config, problem)
        format_trace(result, problem=problem)
        assert result.converged and result.n_rejected >= 1
        full = [key for size, key in calls if size == problem.n]
        assert len(full) == len(set(full))
        if hessian == "uniform_wor":  # only the footer reads every row
            assert len(full) == 1
            assert 0 < len(calls) - 1 and all(0 < size < problem.n
                                              for size, _ in calls[:-1])
        else:
            assert len(full) == len(calls) == result.n_accepted + 1


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
