"""The benchmark's tracer (``perfbench/tracing.py``) swaps program functions
for wrappers looked up by name and signature. A traced TR solve and a traced
ARC solve must run through every layer and print the untraced traces."""

from subnewton import harness

from conftest import count_grams, load_perfbench

SOLVES = (
    "problem = biweight\nsolver = tr\nhessian = uniform\nn = 300\nd = 10\n"
    "data_seed = 3\nseed = 5\nx0_scale = 1.0\n",
    "problem = nls_logistic\nsolver = arc\narc_mode = optimal\n"
    "hessian = nonuniform\nn = 300\nd = 10\ndata_seed = 3\nseed = 5\n"
    "x0_scale = 1.0\n",
)


def solve_text(text: str) -> str:
    # Module attributes, not imported names, so installed wrappers are seen.
    config = harness.parse_config_text(text)
    problem = harness.build_problem(config)
    return harness.format_trace(harness.run_solver(config, problem), problem=problem)


def solve_counting_grams(text: str, grams: list) -> tuple[str, int]:
    before = len(grams)
    return solve_text(text), len(grams) - before


def test_traced_solves_match_untraced(monkeypatch):
    tracing = load_perfbench(monkeypatch, "tracing")
    grams = count_grams(monkeypatch)
    untraced = [solve_counting_grams(text, grams) for text in SOLVES]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = [solve_counting_grams(text, grams) for text in SOLVES]
    # Equal outputs, and equal Gram counts: the tracer's
    # ``replace(op, apply=...)`` copy shares its original's matrix.
    assert traced == untraced
    assert all(count > 0 for _, count in untraced)
    spans = {span[0] for span in tracer.spans}
    assert {"problems.generate", "problems.value_grad", "sampling.build",
            "curvature.probe", "subproblem.seed_point", "subproblem.solve",
            "core.matvec", "trust_region.run", "cubic_reg.run",
            "harness.run_solver", "harness.format_trace"} <= spans
    for name in ("sampling.draws", "sampling.p_computes", "curvature.probes",
                 "trust_region.iterations", "cubic_reg.iterations",
                 "subproblem.cond5_checked"):
        assert tracer.counts[name] > 0, name
    # perfbench/tracing.py counts a probe whose ``converged`` is False.
    assert tracer.counts["curvature.unconverged"] == 0
    # One solve per step, one step per trace row, though ``subspace_solve``
    # is reached through three wrapped alias names.
    steps = sum(len(harness.read_trace(text)[0]) for text, _ in traced)
    assert steps > 0
    assert tracer.counts["subproblem.solves"] == steps
