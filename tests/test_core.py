from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton.core import (CertificateError, ConfigurationError, NonFiniteError,
                            OptimalityTolerances, acceptance_ratio, ensure_finite)
from subnewton.trust_region import TRConfig, run_tr

from conftest import operator_from_dense, random_symmetric, symmetry_defect


class StaticOracle:
    """A constant objective value and gradient, whatever the point."""

    def __init__(self, grad):
        self.grad = np.asarray(grad, dtype=float)

    def value_grad(self, x):
        return 0.0, self.grad.copy()


def run_at(grad, hessian, tol, max_iters=1):
    """One driver run whose first iterate sees ``grad`` and ``hessian``."""
    config = TRConfig(tol=tol, nu=0.9, max_iters=max_iters)
    return run_tr(StaticOracle(grad), lambda x, eps, delta, rng: hessian,
                  config, x0=np.zeros(len(grad)), rng_seed=7)


class TestCheckFirstOrder:
    """The first-order half of the driver loop's optimality test:
    ||g|| <= eps_g, boundary inclusive, on finite gradients only."""

    def test_zero_gradient(self):
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.1)
        result = run_at(np.zeros(2), operator_from_dense(np.eye(2)), tol)
        assert result.converged and result.records == ()

    def test_boundary_inclusive(self):
        # 3-4-5 triangle: the norm is exactly 0.5.
        tol = OptimalityTolerances(eps_g=0.5, eps_H=0.1)
        result = run_at(np.array([0.3, 0.4]), operator_from_dense(np.eye(2)), tol)
        assert result.converged and result.records == ()

    def test_large_gradient(self):
        tol = OptimalityTolerances(eps_g=0.5, eps_H=0.1)
        result = run_at(np.array([1.0, 0.0]), operator_from_dense(np.eye(2)), tol)
        assert not result.converged and len(result.records) == 1

    def test_non_finite_rejected(self):
        tol = OptimalityTolerances(eps_g=0.5, eps_H=0.1)
        with pytest.raises(NonFiniteError):
            run_at(np.array([np.nan, 0.0]), operator_from_dense(np.eye(2)), tol)


class TestCheckSecondOrder:
    """The second-order half of the optimality test: a converged probe that
    finds no Rayleigh quotient <= -nu*eps_H, checked at a zero gradient."""

    def test_identity_is_optimal(self):
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.1)
        assert run_at(np.zeros(3), operator_from_dense(np.eye(3)), tol).converged

    def test_explicit_negative_eigenvector(self):
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.5)
        op = operator_from_dense(np.diag([1.0, -1.0]))
        result = run_at(np.zeros(2), op, tol)
        assert not result.converged
        assert result.records[0].lambda_min_estimate == pytest.approx(-1.0)

    def test_agrees_with_dense_eigendecomposition(self, rng):
        # Filter out the nu-gap band (-eps_H, -nu*eps_H] where the probe is
        # allowed to disagree with the exact test.
        tol = OptimalityTolerances(eps_g=0.1, eps_H=0.3)
        checked = 0
        for _ in range(30):
            h = random_symmetric(rng, 10)
            lam_min = float(np.linalg.eigvalsh(h)[0])
            if -tol.eps_H * 1.05 < lam_min < -tol.eps_H * 0.85:
                continue
            expected = lam_min >= -tol.eps_H
            assert run_at(np.zeros(10), operator_from_dense(h), tol).converged == expected
            checked += 1
        assert checked >= 20


class TestAcceptanceRatio:
    def test_exact_model(self):
        assert acceptance_ratio(1.0, 0.5, 0.5) == 1.0

    def test_increase_gives_negative_rho(self):
        assert acceptance_ratio(1.0, 1.2, 0.5) == pytest.approx(-0.4)

    def test_nonpositive_model_decrease_rejected(self):
        with pytest.raises(CertificateError):
            acceptance_ratio(1.0, 0.5, 0.0)
        with pytest.raises(CertificateError):
            acceptance_ratio(1.0, 0.5, -1.0)

    @given(f_old=st.floats(-100, 100), drop=st.floats(-50, 50),
           decrease=st.floats(1e-6, 100), c=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, f_old, drop, decrease, c):
        f_new = f_old - drop
        rho = acceptance_ratio(f_old, f_new, decrease)
        rho_scaled = acceptance_ratio(c * f_old, c * f_new, c * decrease)
        # The subtraction's cancellation bounds the achievable agreement.
        atol = 1e-12 * (1.0 + abs(f_old) + abs(f_new)) / decrease
        assert rho_scaled == pytest.approx(rho, rel=1e-9, abs=4 * atol)

    def test_quadratic_objective_has_unit_ratio(self, rng):
        # For F(x) = 0.5 x'Ax + b'x with the exact Hessian, the quadratic
        # model is exact, so rho = 1 for any step.
        a = random_symmetric(rng, 5)
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        s = rng.standard_normal(5)

        def f(p):
            return 0.5 * p @ a @ p + b @ p

        grad = a @ x + b
        model_value = grad @ s + 0.5 * s @ a @ s
        rho = acceptance_ratio(f(x), f(x + s), -model_value) if model_value < 0 else None
        if rho is not None:
            assert rho == pytest.approx(1.0, rel=1e-9)


class TestOperators:
    def test_symmetry_probe(self, rng):
        for _ in range(5):
            op = operator_from_dense(random_symmetric(rng, 8))
            assert symmetry_defect(op, rng, probes=20) < 1e-10

    def test_apply_defaults_to_the_matrix_product(self, rng):
        h = random_symmetric(rng, 6)
        op = operator_from_dense(h)
        assert np.array_equal(op.matrix, h) and not op.matrix.flags.writeable
        block = rng.standard_normal((6, 3))
        assert np.array_equal(op.apply(block), h @ block)
        assert op.quad(block[:, 0]) == float(block[:, 0] @ (h @ block[:, 0]))
        # A replaced apply leaves the matrix, which the copy shares.
        copy = replace(op, apply=lambda v: 2.0 * (op.matrix @ v))
        assert copy.matrix is op.matrix
        assert np.array_equal(copy.apply(block), 2.0 * (h @ block))

    def test_norm_bound_default_is_spectral_norm(self, rng):
        h = random_symmetric(rng, 7)
        op = operator_from_dense(h)
        assert op.norm_bound == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(h))))

    def test_norm_bound_holds_on_probes(self, rng):
        h = random_symmetric(rng, 9)
        op = operator_from_dense(h)
        for _ in range(20):
            v = rng.standard_normal(9)
            assert np.linalg.norm(op.apply(v)) <= op.norm_bound * np.linalg.norm(v) * (1 + 1e-12)


class TestTolerances:
    def test_range_validation(self):
        with pytest.raises(ConfigurationError):
            OptimalityTolerances(eps_g=0.0, eps_H=0.1)
        with pytest.raises(ConfigurationError):
            OptimalityTolerances(eps_g=0.1, eps_H=1.5)

    def test_strict_coupling(self):
        TRConfig(tol=OptimalityTolerances(eps_g=1e-4, eps_H=1e-2), strict=True)
        with pytest.raises(ConfigurationError):
            TRConfig(tol=OptimalityTolerances(eps_g=1e-4, eps_H=0.5), strict=True)


class TestEnsureFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 3, -1])
    def test_any_non_finite_entry_is_refused(self, bad, where):
        for shape in ((7,), (3, 5)):
            values = 1e308 * np.linspace(-1.0, 1.0, np.prod(shape)).reshape(shape)
            values.flat[where] = bad
            with pytest.raises(NonFiniteError, match="in the values"):
                ensure_finite(values, "the values")

    def test_finite_and_empty_input_pass(self):
        for values in (np.array([]), np.empty((0, 4)), [], (1.0, -0.0),
                       np.array([5e-324, -1.7976931348623157e308]), 3.0):
            ensure_finite(values, "the values")
        with pytest.raises(NonFiniteError):
            ensure_finite((1.0, float("nan")), "the values")
