import warnings

import numpy as np
import pytest

from subnewton.curvature import min_valid_nu, probe_extreme

from conftest import dense_operator, random_symmetric


class TestLanczosExtreme:
    def test_diagonal_bound_evaluated_exactly(self):
        # The probe is exact, so it meets any nu-approximate bound, e.g.
        # rayleigh <= (1-nu)*K_H + nu*lambda_min = -0.97 for nu=0.99.
        op = dense_operator(np.diag([2.0, -1.0]), norm_bound=2.0)
        res = probe_extreme(op)
        assert res.converged
        assert res.rayleigh <= (1 - 0.99) * 2.0 + 0.99 * (-1.0) + 1e-12
        assert res.rayleigh == pytest.approx(-1.0, abs=1e-15)

    def test_identity_has_no_negative_curvature(self):
        op = dense_operator(np.eye(3))
        res = probe_extreme(op)
        assert res.converged
        assert res.rayleigh == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_eigensolver(self, rng):
        for _ in range(5):
            h = random_symmetric(rng, 50)
            op = dense_operator(h)
            lam_min = float(np.linalg.eigvalsh(h)[0])
            res = probe_extreme(op)
            assert res.converged
            assert abs(res.rayleigh - lam_min) <= 1e-12 * op.norm_bound

    def test_unit_direction_and_rayleigh_consistency(self, rng):
        h = random_symmetric(rng, 20)
        op = dense_operator(h)
        res = probe_extreme(op)
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)
        assert res.rayleigh == pytest.approx(
            float(res.direction @ h @ res.direction), abs=1e-10)

    def test_seeded_determinism(self, rng):
        h = random_symmetric(rng, 30)
        op = dense_operator(h)
        a = probe_extreme(op)
        b = probe_extreme(op)
        assert np.array_equal(a.direction, b.direction)
        assert a.rayleigh == b.rayleigh

    def test_shift_invariance_of_direction(self, rng):
        # H and H + cI share their bottom eigenvector, so the Rayleigh
        # quotients differ by c.
        h = random_symmetric(rng, 12)
        c = 0.75
        op = dense_operator(h)
        op_shifted = dense_operator(h + c * np.eye(12),
                                    norm_bound=op.norm_bound + c)
        a = probe_extreme(op)
        b = probe_extreme(op_shifted)
        assert b.rayleigh - a.rayleigh == pytest.approx(c, abs=1e-8)

    def test_huge_norm_bound_has_no_budget_to_overflow(self):
        # log(d/delta)*sqrt(K_H/kappa) overflows here; the probe computes no
        # such budget and never reads the norm bound.
        op = dense_operator(np.diag([2.0, -1.0]), norm_bound=1e308)
        res = probe_extreme(op)
        assert res.converged
        assert res.rayleigh == pytest.approx(-1.0, abs=1e-15)

    def test_huge_entries_give_the_exact_bottom_pair(self):
        # 1.5e308 + 1.5e308 overflows, so densify must not add before halving.
        for top in (1e307, 1.5e308):
            op = dense_operator(np.diag([top, -top]), norm_bound=1.7e308)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = probe_extreme(op)
            assert res.rayleigh == -top
            assert abs(res.direction[1]) == 1.0 and res.direction[0] == 0.0


class TestNegativeCurvatureDirection:
    """A probe finds a direction when its Rayleigh quotient is <= -nu*eps_H;
    it certifies none when its quotient, lambda_min, is above that threshold."""

    def test_explicit_spectrum(self):
        op = dense_operator(np.diag([1.0, 1.0, -2.0]))
        eps_h = 1.0
        nu = min_valid_nu(op.norm_bound, eps_h) + 1e-6
        res = probe_extreme(op)
        assert abs(abs(res.direction[2]) - 1.0) < 1e-6
        assert res.rayleigh <= -nu * eps_h

    def test_psd_returns_absent(self):
        op = dense_operator(np.diag([0.5, 1.0, 2.0]))
        res = probe_extreme(op)
        assert res.converged and res.rayleigh > -0.96 * 0.2

    def test_returned_certificate_holds_exactly(self, rng):
        # Whenever a direction is found, its stored Rayleigh quotient must
        # satisfy the advertised inequality on recomputation.
        eps_h = 0.3
        found = 0
        for _ in range(20):
            h = random_symmetric(rng, 15)
            op = dense_operator(h)
            nu = min_valid_nu(op.norm_bound, eps_h) + 1e-9
            res = probe_extreme(op)
            if res.rayleigh <= -nu * eps_h:
                found += 1
                u = res.direction
                quad = float(u @ h @ u) / float(u @ u)
                assert quad <= -nu * eps_h * (1 + 1e-12) or quad <= -nu * eps_h + 1e-12
        assert found >= 5

    def test_subsampled_saddle_matches_dense(self, rng):
        # Densify a sub-sampled operator near a saddle-ish point and compare
        # the probe's Rayleigh quotient against the dense bottom eigenvalue.
        from subnewton.core import densify
        from subnewton.problems import generate_synthetic
        from subnewton.sampling import build_subsampled_hessian, resolve_scheme

        problem = generate_synthetic("biweight", n=400, d=12, rng_seed=5)
        x = 3.0 * np.ones(12) / np.sqrt(12)
        scheme = resolve_scheme(problem, "uniform_with_replacement",
                                epsilon=0.5, delta=0.1)
        op = build_subsampled_hessian(problem, x, scheme, rng_seed=2)
        dense = densify(op)
        lam_min = float(np.linalg.eigvalsh(dense)[0])
        eps_h = 0.05
        nu = min_valid_nu(op.norm_bound, eps_h) + 1e-9
        res = probe_extreme(op)
        assert res.converged
        assert abs(res.rayleigh - lam_min) <= 1e-12 * op.norm_bound
        assert (res.rayleigh <= -nu * eps_h) == (lam_min <= -nu * eps_h)
