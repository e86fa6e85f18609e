import importlib.util
import math
import os
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from subnewton import problems, sampling
from subnewton.core import ConfigurationError, HessianOperator
from subnewton.cubic_reg import ARCConfig, run_arc
from subnewton.problems import sigmoid, weighted_gram
from subnewton.sampling import nonuniform_distribution
from subnewton.trust_region import TRConfig, run_tr

# Deterministic example generation: the suite's outcomes should not depend
# on the run's entropy.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class CountingPool(ThreadPoolExecutor):
    """A pool of claim-loop helpers that counts the tasks it is given."""

    def __init__(self, helpers):
        super().__init__(helpers)
        self.helpers, self.tasks = helpers, 0

    def submit(self, *args, **kwargs):
        self.tasks += 1
        return super().submit(*args, **kwargs)


class StalledPool:
    """A pool whose helpers never start: it counts its tasks and hands back
    a pending future for each, which the caller can cancel."""

    helpers = 3

    def __init__(self):
        self.tasks = 0

    def submit(self, fn):
        self.tasks += 1
        return Future()

    def shutdown(self):
        pass


class EagerPool(StalledPool):
    """A pool whose helper runs on a thread of its own, claiming every
    task, before ``submit`` returns a finished future: the caller runs none."""

    helpers = 1

    def submit(self, fn):
        future = super().submit(fn)
        helper = threading.Thread(target=fn)
        helper.start()
        helper.join()
        future.set_running_or_notify_cancel()
        future.set_result(None)
        return future


def use_pool(monkeypatch, pool):
    """Run every ``problems.run_claimed`` call with ``pool``'s helpers."""
    monkeypatch.setattr(problems, "_pool", (os.getpid(), pool, pool.helpers))
    return pool


# Pools of 1, 2 and 3 helpers beside the caller, and helpers that never run.
POOLS = (lambda: CountingPool(1), lambda: CountingPool(2),
         lambda: CountingPool(3), StalledPool)


def load_perfbench(monkeypatch, name: str):
    """``perfbench/<name>.py`` as a module. No bytecode cache: a test writes
    nothing under perfbench/. The module is in ``sys.modules`` for the test,
    where its dataclasses look it up."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def biweight_scalar(z, b):
    """Reference bi-weight loss r^2/(1+r^2) of r = z - b: (f, f', f''), by
    the formulas the oracle's pass and ``BIWEIGHT.second`` must match bit
    for bit: in r up to |r| = 2^128, and beyond in q = 1/r, 1/(1+q^2),
    2q^3/(1+q^2)^2 and 2q^4(q^2-3)/(1+q^2)^3."""
    r = np.asarray(z, dtype=float) - np.asarray(b, dtype=float)
    far = np.abs(r) > 2.0 ** 128
    near = np.where(far, 0.0, r)
    t = 1.0 + near * near
    q = 1.0 / np.where(far, r, np.inf)
    q2 = q * q
    u = 1.0 + q2
    value = np.where(far, 1.0 / u, near * near / t)
    first = np.where(far, 2.0 * q2 * q / (u * u), 2.0 * near / (t * t))
    second = np.where(far, 2.0 * q2 * q2 * (q2 - 3.0) / (u * u * u),
                      2.0 * (1.0 - 3.0 * near * near) / (t * t * t))
    return value, first, second


def nls_logistic_scalar(z, b):
    """Reference least-squares loss (sigmoid(z) - b)^2: (f, f', f''), with
    f'' = 2 s'^2 + 2 (s - b) s'' for the sigmoid's derivatives s', s''."""
    s = sigmoid(z)
    b = np.asarray(b, dtype=float)
    sp = s * (1.0 - s)
    spp = sp * (1.0 - 2.0 * s)
    diff = s - b
    value = diff * diff
    first = 2.0 * diff * sp
    second = 2.0 * sp * sp + 2.0 * diff * spp
    return value, first, second


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


class StrongConvexQuadratic:
    """F(x) = 0.5 ||x||^2."""

    def __init__(self, d):
        self.d = d

    def value_grad(self, x):
        return 0.5 * float(x @ x), x.copy()

    def exact_hessian_operator(self, x):
        return operator_from_dense(np.eye(self.d), norm_bound=1.0)

    def dense_hessian(self, x):
        return np.eye(self.d)

    def hessian_lipschitz_bound(self):
        # The Hessian is constant, so any positive estimate bounds L = 0.
        return 1e-3


@dataclass(frozen=True)
class Driver:
    """One solver as the tests run it: its run function, its config class
    and the fields that select it, the config field of its start radius or
    sigma, and a start that forces early rejections."""

    run: Callable
    config_class: type
    fields: dict
    start_field: str
    rejecting_start: float

    def config(self, problem, tol, start=None, **overrides):
        """A config for ``problem``; ARC's ``l_estimate`` is the problem's
        Hessian-Lipschitz bound unless overridden."""
        fields = dict(self.fields, tol=tol)
        if self.config_class is ARCConfig:
            fields["l_estimate"] = problem.hessian_lipschitz_bound()
        if start is not None:
            fields[self.start_field] = start
        return self.config_class(**{**fields, **overrides})


DRIVERS = {
    "tr": Driver(run_tr, TRConfig, {}, "delta0", 64.0),
    "arc_standard": Driver(run_arc, ARCConfig, {"mode": "standard"}, "sigma0", 1e-4),
    "arc_optimal": Driver(run_arc, ARCConfig, {"mode": "optimal"}, "sigma0", 1e-4),
}


class QueryRecorder:
    """Captures every oracle query; the drivers query x_t then x_t + s_t each
    iteration, so the attempted steps are recoverable exactly."""

    def __init__(self, inner):
        self.inner = inner
        self.queries = []

    def value_grad(self, x):
        self.queries.append(np.array(x))
        return self.inner.value_grad(x)

    def iteration_points(self, n_records):
        pairs = []
        for t in range(n_records):
            pairs.append((self.queries[2 * t], self.queries[2 * t + 1]))
        return pairs


def replay_updates(result, config, lipschitz=None):
    """Replay the paper's update rules over ``result.records``, from the
    records and ``config``'s fields alone.

    Each row's radius (TR) or sigma (ARC) is exactly the last row's times or
    over gamma, sigma floored at ``sigma_min``, and equals the closed form
    start * gamma^(+-(successes - failures)) until sigma reaches that floor.
    A row is accepted iff rho >= eta. An accepted row's rho is
    (F drop) / ``model_decrease`` bit for bit, as ``acceptance_ratio``
    computes it, and its step lowers F by at least eta * ``model_decrease``;
    a rejected one leaves F unchanged. Given a verified Lipschitz bound L,
    sigma <= max(sigma0, 2 * gamma * L) on every row. Returns whether sigma
    reached the ``sigma_min`` floor.
    """
    arc = isinstance(config, ARCConfig)
    start, sign = (config.sigma0, -1) if arc else (config.delta0, 1)
    gamma, records = config.gamma, result.records
    bound = math.inf if lipschitz is None else max(start, 2.0 * gamma * lipschitz)
    expected, succ, fail, floored = start, 0, 0, False
    for i, rec in enumerate(records):
        assert rec.radius_or_sigma == expected, i
        if not floored:
            closed = start * gamma ** (sign * (succ - fail))
            assert rec.radius_or_sigma == pytest.approx(closed, rel=1e-12), i
        assert rec.radius_or_sigma <= bound * (1 + 1e-12), i
        assert rec.accepted == (rec.rho >= config.eta), i
        f_next = records[i + 1].f_value if i + 1 < len(records) else result.f_final
        if rec.accepted:
            succ += 1
            decrease = rec.f_value - f_next
            assert decrease / rec.model_decrease == rec.rho, i
            assert decrease >= config.eta * rec.model_decrease * (1 - 1e-12), i
            if arc:
                floored = floored or expected / gamma <= config.sigma_min
                expected = max(expected / gamma, config.sigma_min)
            else:
                expected = expected * gamma
        else:
            fail += 1
            assert f_next == rec.f_value, i
            expected = expected * gamma if arc else expected / gamma
    return floored


def certified(result, problem, tol):
    """Whether ``result`` converged to an (eps_g, eps + eps_H)-optimal point
    of ``problem``, by a dense eigensolve of its exact Hessian; eps is the
    run's final Hessian accuracy, 0 when none was recorded."""
    if not (result.converged and result.grad_norm_final <= tol.eps_g):
        return False
    eps = result.eps_final if math.isfinite(result.eps_final) else 0.0
    lam_min = float(np.linalg.eigvalsh(problem.dense_hessian(result.x))[0])
    return lam_min >= -(eps + tol.eps_H)


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


def reference_numerator(mode, k, delta, dim):
    """eps^2 |S| of the three matrix-Bernstein sizes as separate formulas,
    each in its own order of operations: ``dim`` is d, or the intrinsic
    dimension t for ``"intrinsic"``."""
    if mode in ("uniform", "uniform_wor"):
        return 16.0 * k ** 2 * math.log(2.0 * dim / delta)
    if mode == "nonuniform":
        return 4.0 * k ** 2 * math.log(2.0 * dim / delta)
    return 16.0 * k ** 2 / 3.0 * math.log(8.0 * dim / delta)


def reference_sample_size(mode, k, epsilon, delta, dim):
    """The size of ``reference_numerator``, without ``prescribed_size``'s
    checks or its one-row floor."""
    return math.ceil(reference_numerator(mode, k, delta, dim) / epsilon ** 2)


def capped_scheme(problem, mode, epsilon, delta, x=None):
    """The ``SampleScheme`` a Hessian source draws: ``prescribed_size``
    capped at n rows."""
    size = sampling.prescribed_size(problem, mode, epsilon, delta, x=x)
    return sampling.SampleScheme(mode, epsilon, delta, min(size, problem.n))


def reference_draw_indices(problem, scheme, p, rng):
    """The sorted draw as ``Generator.choice`` makes it, one call per trial."""
    n = problem.n
    size = scheme.resolved_size
    if scheme.mode == "uniform":
        idx = rng.integers(0, n, size=size)
    elif scheme.mode == "uniform_wor":
        if size > n:
            raise ConfigurationError(
                "sampling without replacement needs resolved_size <= n")
        idx = rng.choice(n, size=size, replace=False)
    else:
        idx = rng.choice(n, size=size, replace=True, p=p)
    return np.sort(idx)


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
        idx = reference_draw_indices(problem, scheme, p, rng)
        p_sel = np.full(idx.shape[0], 1.0 / problem.n) if p is None else p[idx]
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
