import math

import numpy as np
import pytest
from hypothesis import settings

from subnewton import problems, sampling
from subnewton.core import ConfigurationError, HessianOperator
from subnewton.problems import weighted_gram
from subnewton.sampling import nonuniform_distribution

# Deterministic example generation: the suite's outcomes should not depend
# on the run's entropy.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_symmetric(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.T)


def operator_from_dense(matrix, norm_bound=None):
    """An operator holding a read-only copy of an exactly symmetric matrix;
    the default bound is its true norm."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("dense operator needs a square matrix")
    m.flags.writeable = False
    if norm_bound is None:
        norm_bound = float(np.max(np.abs(np.linalg.eigvalsh(m)))) if m.size else 0.0
    return HessianOperator(form=lambda: m, norm_bound=norm_bound)


def symmetry_defect(op, rng, probes=20):
    """Largest relative asymmetry |<u,Hv> - <v,Hu>| over random probe pairs."""
    worst = 0.0
    scale = max(op.norm_bound, 1e-30)
    for _ in range(probes):
        u = rng.standard_normal(op.matrix.shape[0])
        v = rng.standard_normal(op.matrix.shape[0])
        lhs = float(u @ op.apply(v))
        rhs = float(v @ op.apply(u))
        denom = scale * float(np.linalg.norm(u)) * float(np.linalg.norm(v))
        worst = max(worst, abs(lhs - rhs) / max(denom, 1e-30))
    return worst


def save_dataset(problem, path, fmt="csv"):
    """Write ``problem``'s rows and targets in a format ``load_dataset`` reads,
    with every float in its shortest round-trip form."""
    lines = []
    for row, target in zip(problem.rows, problem.targets):
        if fmt == "csv":
            lines.append(",".join(repr(float(v)) for v in row) + f",{float(target)!r}")
        else:
            feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row))
            lines.append(f"{float(target)!r} {feats}")
    path.write_text("\n".join(lines) + "\n")


def reference_draw_indices(problem, scheme, p, rng):
    """The draw as ``Generator.choice`` makes it, one call per trial."""
    n = problem.n
    size = scheme.resolved_size
    if scheme.mode == "uniform_with_replacement":
        idx = rng.integers(0, n, size=size)
    elif scheme.mode == "uniform_without_replacement":
        if size > n:
            raise ConfigurationError(
                "sampling without replacement needs resolved_size <= n")
        idx = rng.choice(n, size=size, replace=False)
    else:
        idx = np.sort(rng.choice(n, size=size, replace=True, p=p))
        return idx, p[idx]
    return np.sort(idx), np.full(size, 1.0 / n)


def reference_verify_concentration(problem, x, scheme, trials, rng_seed=0):
    """``sampling.verify_concentration`` as a plain per-trial loop: one draw,
    one Gram and one eigensolve per trial."""
    rng = (rng_seed if isinstance(rng_seed, np.random.Generator)
           else np.random.default_rng(rng_seed))
    exact = problem.dense_hessian(x)
    second = problem.second_derivatives(x)
    p = (None if scheme.mode.startswith("uniform")
         else nonuniform_distribution(problem, x))
    failures = 0
    for _ in range(trials):
        idx, p_sel = reference_draw_indices(problem, scheme, p, rng)
        weights = second[idx] / (problem.n * idx.shape[0] * p_sel)
        diff = weighted_gram(problem.rows[idx], weights) - exact
        err = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
        if err > scheme.epsilon:
            failures += 1
    return failures / trials


def reference_arc_eigen_alpha(b, c, sigma):
    """The ARC Eigen point's coefficient by candidate search: the stationary
    points of b*a + (c/2)*a^2 + (sigma/3)*|a|^3 on each half-line, the lowest
    model value winning and ties going toward b*a <= 0."""

    def quad_roots(a2, a1, a0):
        # Real roots of a2*x^2 + a1*x + a0, stably.
        if a2 == 0.0:
            return [-a0 / a1] if a1 != 0.0 else []
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return []
        sq = math.sqrt(disc)
        q = -0.5 * (a1 + math.copysign(sq, a1)) if a1 != 0.0 else 0.5 * sq
        return [q / a2, a0 / q] if q != 0.0 else [0.0, -a1 / a2]

    def phi(a):
        return b * a + 0.5 * c * a * a + sigma / 3.0 * abs(a) ** 3

    candidates = [r for r in quad_roots(sigma, c, b) if r >= 0.0]
    candidates += [r for r in quad_roots(-sigma, c, b) if r <= 0.0]
    return min(candidates, key=lambda a: (phi(a), float(b * a)))


def count_grams(monkeypatch):
    """Count the program's ``weighted_gram`` calls: the returned list gets
    the row count of each."""
    grams = []

    def counting_gram(rows, w):
        grams.append(rows.shape[0])
        return weighted_gram(rows, w)

    for module in (problems, sampling):
        monkeypatch.setattr(module, "weighted_gram", counting_gram)
    return grams


class CountingSource:
    """A Hessian source that counts its builds."""

    def __init__(self, source):
        self.source = source
        self.builds = 0

    def __call__(self, x, eps, delta, rng):
        self.builds += 1
        return self.source(x, eps, delta, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
