import numpy as np
import pytest
from hypothesis import settings

from subnewton.core import ConfigurationError, operator_from_dense
from subnewton.problems import weighted_gram
from subnewton.sampling import nonuniform_distribution

# Deterministic example generation: the suite's outcomes should not depend
# on the run's entropy.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_symmetric(rng, d, scale=1.0):
    m = rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.T)


def dense_operator(matrix, norm_bound=None):
    return operator_from_dense(np.asarray(matrix, dtype=float), norm_bound=norm_bound)


def symmetry_defect(op, rng, probes=20):
    """Largest relative asymmetry |<u,Hv> - <v,Hu>| over random probe pairs."""
    worst = 0.0
    scale = max(op.norm_bound, 1e-30)
    for _ in range(probes):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
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
