import warnings

import numpy as np
import pytest

from subnewton.core import NonFiniteError
from subnewton.curvature import default_nu, probe_extreme

from conftest import capped_scheme, operator_from_dense, random_symmetric


class TestBottomEigenpair:
    def test_diagonal_bound_evaluated_exactly(self):
        # The probe is exact, so it meets any nu-approximate bound, e.g.
        # rayleigh <= (1-nu)*K_H + nu*lambda_min = -0.97 for nu=0.99.
        op = operator_from_dense(np.diag([2.0, -1.0]), norm_bound=2.0)
        res = probe_extreme(op)
        assert res.rayleigh <= (1 - 0.99) * 2.0 + 0.99 * (-1.0) + 1e-12
        assert res.rayleigh == pytest.approx(-1.0, abs=1e-15)

    def test_identity_has_no_negative_curvature(self):
        op = operator_from_dense(np.eye(3))
        res = probe_extreme(op)
        assert res.rayleigh == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_eigensolver(self, rng):
        for _ in range(5):
            h = random_symmetric(rng, 50)
            op = operator_from_dense(h)
            lam_min = float(np.linalg.eigvalsh(h)[0])
            res = probe_extreme(op)
            assert abs(res.rayleigh - lam_min) <= 1e-12 * op.norm_bound

    def test_unit_direction_and_rayleigh_consistency(self, rng):
        h = random_symmetric(rng, 20)
        op = operator_from_dense(h)
        res = probe_extreme(op)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)
        assert res.rayleigh == pytest.approx(
            float(res.direction @ h @ res.direction), abs=1e-10)

    def test_seeded_determinism(self, rng):
        h = random_symmetric(rng, 30)
        op = operator_from_dense(h)
        a = probe_extreme(op)
        b = probe_extreme(op)
        assert np.array_equal(a.direction, b.direction)
        assert a.rayleigh == b.rayleigh

    def test_shift_invariance_of_direction(self, rng):
        # H and H + cI share their bottom eigenvector, so the Rayleigh
        # quotients differ by c.
        h = random_symmetric(rng, 12)
        c = 0.75
        op = operator_from_dense(h)
        op_shifted = operator_from_dense(h + c * np.eye(12),
                                         norm_bound=op.norm_bound + c)
        a = probe_extreme(op)
        b = probe_extreme(op_shifted)
        assert b.rayleigh - a.rayleigh == pytest.approx(c, abs=1e-8)

    def test_huge_norm_bound_is_not_read(self):
        # The eigensolve reads only the matrix, so a norm bound near the
        # float maximum leaves the bottom pair exact.
        op = operator_from_dense(np.diag([2.0, -1.0]), norm_bound=1e308)
        res = probe_extreme(op)
        assert res.rayleigh == pytest.approx(-1.0, abs=1e-15)

    def test_huge_entries_give_the_exact_bottom_pair(self):
        # Entries near the float maximum reach the eigensolver unchanged.
        for top in (1e307, 1.5e308):
            op = operator_from_dense(np.diag([top, -top]), norm_bound=1.7e308)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = probe_extreme(op)
            assert res.rayleigh == -top
            assert abs(res.direction[1]) == 1.0 and res.direction[0] == 0.0

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_refused_before_the_eigensolve(self, entry):
        # LAPACK's answer to a NaN is "did not converge", or garbage.
        op = operator_from_dense(np.array([[1.0, entry], [entry, 1.0]]), norm_bound=1.0)
        with pytest.raises(NonFiniteError, match="curvature probe"):
            probe_extreme(op)


class TestNegativeCurvatureDirection:
    """A probe finds a direction when its Rayleigh quotient is <= -nu*eps_H;
    it certifies none when its quotient, lambda_min, is above that threshold."""

    def test_explicit_spectrum(self):
        op = operator_from_dense(np.diag([1.0, 1.0, -2.0]))
        eps_h = 1.0
        nu = default_nu(op.norm_bound, eps_h) + 1e-6
        res = probe_extreme(op)
        assert abs(abs(res.direction[2]) - 1.0) < 1e-6
        assert res.rayleigh <= -nu * eps_h

    def test_psd_returns_absent(self):
        op = operator_from_dense(np.diag([0.5, 1.0, 2.0]))
        res = probe_extreme(op)
        assert res.rayleigh > -0.96 * 0.2

    def test_returned_certificate_holds_exactly(self, rng):
        # Whenever a direction is found, its stored Rayleigh quotient must
        # satisfy the advertised inequality on recomputation.
        eps_h = 0.3
        found = 0
        for _ in range(20):
            h = random_symmetric(rng, 15)
            op = operator_from_dense(h)
            nu = default_nu(op.norm_bound, eps_h) + 1e-9
            res = probe_extreme(op)
            if res.rayleigh <= -nu * eps_h:
                found += 1
                u = res.direction
                quad = float(u @ h @ u) / float(u @ u)
                assert quad <= -nu * eps_h * (1 + 1e-12) or quad <= -nu * eps_h + 1e-12
        assert found >= 5

    def test_subsampled_saddle_matches_dense(self, rng):
        # Compare the probe's Rayleigh quotient on a sub-sampled operator near
        # a saddle-ish point against its matrix's dense bottom eigenvalue.
        from subnewton.problems import generate_synthetic
        from subnewton.sampling import build_subsampled_hessian

        problem = generate_synthetic("biweight", n=400, d=12, rng_seed=5)
        x = 3.0 * np.ones(12) / np.sqrt(12)
        scheme = capped_scheme(problem, "uniform", epsilon=0.5, delta=0.1)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=2)
        dense = op.matrix
        lam_min = float(np.linalg.eigvalsh(dense)[0])
        eps_h = 0.05
        nu = default_nu(op.norm_bound, eps_h) + 1e-9
        res = probe_extreme(op)
        assert abs(res.rayleigh - lam_min) <= 1e-12 * op.norm_bound
        assert (res.rayleigh <= -nu * eps_h) == (lam_min <= -nu * eps_h)
