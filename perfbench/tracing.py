"""Per-layer tracing from outside the program.

``Tracer.installed()`` swaps the public functions of each ``subnewton`` module
for wrappers that record a span (name, start, end, parent, job) and bump
counters, and ``Tracer.instrument()`` does the same for a problem instance's
methods. Every module attribute bound to a wrapped function is swapped, so
``from .x import f`` names see the wrapper too. Both are undone on exit, so
untraced jobs in the same process run the unmodified program.

Only ``time.perf_counter`` is read. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

from subnewton import (core, cubic_reg, curvature, harness, problems, sampling,
                       subproblem, trust_region)

MODULES = (core, curvature, subproblem, trust_region, cubic_reg, sampling,
           problems, harness)

# Span name -> the per-layer metric that receives its self time. Root spans
# ("bench.job", "bench.setup") are not layers: a job's root self time is the
# part of it no layer span covers.
SELF_TIME_METRICS = {
    "core.matvec": "core.matvec.s",
    "problems.value_grad": "problems.value_grad.s",
    "problems.dense_hessian": "problems.dense_hessian.s",
    "problems.generate": "problems.generate.s",
    "sampling.build": "sampling.build.s",
    "sampling.verify": "sampling.verify.s",
    "curvature.probe": "curvature.probe.s",
    "subproblem.solve": "subproblem.solve.s",
    "subproblem.seed_point": "subproblem.seed_points.s",
    "trust_region.run": "trust_region.self.s",
    "cubic_reg.run": "cubic_reg.self.s",
    "harness.run_solver": "harness.run_solver.self.s",
    "harness.format_trace": "harness.format_trace.s",
    "harness.verify_bounds": "harness.verify_bounds.self.s",
}

COUNT_METRICS = (
    "core.matvecs", "core.matvec_rows",
    "problems.value_grad.calls", "problems.rows_touched",
    "sampling.builds", "sampling.sample_rows", "sampling.rows_touched",
    "sampling.full_sample_builds", "sampling.draws", "sampling.p_computes",
    "curvature.probes", "curvature.matvecs", "curvature.matvec_rows",
    "curvature.unconverged",
    "subproblem.solves", "subproblem.matvecs", "subproblem.cond5_checked",
    "subproblem.cond5_unmet",
    "trust_region.iterations", "trust_region.accepted",
    "trust_region.hessian_reuse",
    "cubic_reg.iterations", "cubic_reg.accepted", "cubic_reg.hessian_reuse",
    "harness.trace_bytes",
)

_DRIVERS = ("trust_region.run", "cubic_reg.run")


class Tracer:
    """Spans and counters of one round of the traced run."""

    def __init__(self):
        # [name, start, end, parent index, job id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: Counter = Counter()
        self._last_probe_op = None

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, job: str):
        self.job = job
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.job = None

    def enclosing(self, *names: str) -> str | None:
        """Innermost open span whose name is one of ``names``."""
        for index in reversed(self.stack):
            if self.spans[index][0] in names:
                return self.spans[index][0]
        return None

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` runs just outside it and
        ``after(result, args)`` returns the value handed to the caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            return result if after is None else after(result, args)

        return wrapper

    def count_matvecs(self, op):
        """The operator with an ``apply`` that records each matvec."""
        rows = op.sample_size
        apply = self.wrap("core.matvec", op.apply,
                          before=lambda args: self._on_matvec(rows))
        return replace(op, apply=apply)

    def _on_matvec(self, rows: int) -> None:
        self.counts["core.matvecs"] += 1
        self.counts["core.matvec_rows"] += rows
        layer = self.enclosing("curvature.probe", "subproblem.solve",
                               "subproblem.seed_point")
        if layer == "curvature.probe":
            self.counts["curvature.matvecs"] += 1
            self.counts["curvature.matvec_rows"] += rows
        elif layer is not None:
            self.counts["subproblem.matvecs"] += 1

    def _on_predictions(self, n: int) -> None:
        self.counts["problems.rows_touched"] += n
        if self.enclosing("sampling.build"):
            self.counts["sampling.rows_touched"] += n

    def _after_build(self, op, args):
        problem = args[0]
        self.counts["sampling.builds"] += 1
        self.counts["sampling.sample_rows"] += op.sample_size
        # The gathered sample rows are read too; a build that touches only
        # them reads exactly sample_size rows.
        self.counts["sampling.rows_touched"] += op.sample_size
        if op.sample_size == problem.n:
            self.counts["sampling.full_sample_builds"] += 1
        return self.count_matvecs(op)

    def _after_probe(self, result, args):
        self.counts["curvature.probes"] += 1
        if not result.converged:
            self.counts["curvature.unconverged"] += 1
        driver = self.enclosing(*_DRIVERS)
        if driver is not None:
            op = args[0]
            if op is self._last_probe_op:
                self.counts[driver.replace(".run", ".hessian_reuse")] += 1
            self._last_probe_op = op
        return result

    def _before_solve(self, args):
        if self.innermost() != "subproblem.solve":
            self.counts["subproblem.solves"] += 1

    def _after_solve(self, solution, args):
        if self.innermost() != "subproblem.solve":
            met = solution.certificates.cond5_met
            if met is not None:
                self.counts["subproblem.cond5_checked"] += 1
                if not met:
                    self.counts["subproblem.cond5_unmet"] += 1
        return solution

    def _after_driver(self, module: str):
        def after(result, args):
            self._last_probe_op = None
            self.counts[f"{module}.iterations"] += len(result.records)
            self.counts[f"{module}.accepted"] += result.n_accepted
            return result
        return after

    def _after_generate(self, problem, args):
        self.instrument(problem)
        return problem

    def _count(self, name):
        def before(args):
            self.counts[name] += 1
        return before

    @staticmethod
    def counted(fn, before):
        """``fn`` with a counter hook and no span: its time stays in the
        caller's span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        return wrapper

    def _specs(self):
        """(module, attribute, wrapper factory) for every wrapped function."""
        w = self.wrap
        seed = lambda fn: w("subproblem.seed_point", fn)
        solve = lambda fn: w("subproblem.solve", fn, before=self._before_solve,
                             after=self._after_solve)
        return [
            (problems, "generate_synthetic",
             lambda fn: w("problems.generate", fn, after=self._after_generate)),
            (sampling, "build_subsampled_hessian",
             lambda fn: w("sampling.build", fn, after=self._after_build)),
            (sampling, "verify_concentration",
             lambda fn: w("sampling.verify", fn)),
            (sampling, "_draw_indices",
             lambda fn: self.counted(fn, self._count("sampling.draws"))),
            (sampling, "nonuniform_distribution",
             lambda fn: self.counted(fn, self._count("sampling.p_computes"))),
            (curvature, "probe_extreme",
             lambda fn: w("curvature.probe", fn, after=self._after_probe)),
            (subproblem, "tr_cauchy_point", seed),
            (subproblem, "tr_eigen_point", seed),
            (subproblem, "arc_cauchy_point", seed),
            (subproblem, "arc_eigen_point", seed),
            (subproblem, "tr_subspace_solve", solve),
            (subproblem, "arc_subspace_solve", solve),
            (subproblem, "arc_progressive_solve", solve),
            (trust_region, "run_tr",
             lambda fn: w("trust_region.run", fn,
                          after=self._after_driver("trust_region"))),
            (cubic_reg, "run_arc",
             lambda fn: w("cubic_reg.run", fn,
                          after=self._after_driver("cubic_reg"))),
            (harness, "run_solver", lambda fn: w("harness.run_solver", fn)),
            (harness, "format_trace", lambda fn: w("harness.format_trace", fn)),
            (harness, "verify_bounds", lambda fn: w("harness.verify_bounds", fn)),
        ]

    @contextmanager
    def installed(self):
        """Swap every wrapped function in, for the duration of the block."""
        undo = []
        try:
            for module, name, make in self._specs():
                original = getattr(module, name)
                wrapped = make(original)
                for mod in MODULES:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def instrument(self, problem) -> None:
        """Wrap a problem instance's data-pass methods (undo: ``strip``)."""
        n = problem.n
        problem.predictions = self.counted(
            problem.predictions, lambda args: self._on_predictions(n))
        problem.value_grad = self.wrap(
            "problems.value_grad", problem.value_grad,
            before=self._count("problems.value_grad.calls"))
        problem.dense_hessian = self.wrap("problems.dense_hessian",
                                          problem.dense_hessian)

    @staticmethod
    def strip(problem) -> None:
        for attr in ("predictions", "value_grad", "dense_hessian"):
            vars(problem).pop(attr, None)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one round of the traced run.

    ``trace.job.s`` is the traced jobs' wall time and ``trace.unattributed.s``
    the part of it that no layer span covers, so on solve workloads the layer
    self times other than the set-up's ``problems.generate.s`` add up to the
    difference of the two.
    """
    metrics = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    job_total = job_root_self = 0.0
    for (name, start, end, _, _), own in zip(tracer.spans,
                                             self_times(tracer.spans)):
        if name == "bench.job":
            job_total += end - start
            job_root_self += own
        elif name in SELF_TIME_METRICS:
            metrics[SELF_TIME_METRICS[name]] += own
    metrics.update({name: tracer.counts[name] for name in COUNT_METRICS})
    metrics["trace.job.s"] = job_total
    metrics["trace.unattributed.s"] = job_root_self
    return metrics
