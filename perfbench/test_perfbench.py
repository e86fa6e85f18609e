"""The benchmark's own gates (about two minutes on two cores):

    python3 -m pytest -q perfbench/test_perfbench.py

* every per-layer count repeats exactly across two traced runs of one seed;
* a seed not used while tuning the benchmark runs with no failed job;
* the traced run's outputs match the untraced run's byte for byte;
* the layer self times add up to the traced job time;
* the printed metrics are exactly the ones ``BENCHMARK.json`` names;
* outside a source checkout the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SOLVE_WORKLOADS = ["tr_uniform_tall", "arc_full_wide"]
HELD_OUT_SEED = 41


def bench(workload: str, seed: int, trace: int, seconds: float = 1,
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def detail(workload: str, seed: int, trace: int) -> dict:
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Untraced, then two traced runs of the held-out seed."""
    name = request.param
    untraced = result_of(bench(name, HELD_OUT_SEED, 0))
    untraced_jobs = detail(name, HELD_OUT_SEED, 0)["jobs"]
    first = result_of(bench(name, HELD_OUT_SEED, 1))
    second = result_of(bench(name, HELD_OUT_SEED, 1))
    traced_jobs = detail(name, HELD_OUT_SEED, 1)["jobs"]
    return name, untraced, untraced_jobs, first, second, traced_jobs


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_held_out_seed_has_no_failed_job(runs):
    _, untraced, _, first, second, _ = runs
    for result in (untraced, first, second):
        assert result["correct"]
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_per_layer_counts_repeat_exactly(runs):
    _, _, _, first, second, _ = runs
    counts = [name for name, v in first["metrics"].items()
              if v["unit"] in ("count", "B")]
    assert counts
    a, b = values(first), values(second)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_traced_outputs_match_untraced_run(runs):
    _, _, untraced_jobs, _, _, traced_jobs = runs
    reference = {job["job"]: job["sha256"] for job in untraced_jobs}
    compared = 0
    for job in traced_jobs:
        if job["job"] in reference:
            assert job["sha256"] == reference[job["job"]], job
            compared += 1
    assert compared >= 2  # the untraced and the traced copy of job 0


def test_layer_self_times_add_up(runs):
    name, _, _, first, _, _ = runs
    # Solve workloads generate their problem in set-up, outside the jobs.
    setup = {"problems.generate.s"} if name in SOLVE_WORKLOADS else set()
    m = values(first)
    layers = sum(v for k, v in m.items()
                 if first["metrics"][k]["unit"] == "s"
                 and not k.startswith("trace.") and k not in setup)
    assert math.isclose(layers, m["trace.job.s"] - m["trace.unattributed.s"],
                        rel_tol=1e-9)
    assert m["trace.attributed_ratio"] > 0.99


def test_metric_names_match_benchmark_json(runs):
    _, untraced, _, first, _, _ = runs
    for result, section in ((untraced, "end_to_end"), (first, "per_layer")):
        spec = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == spec


def test_fails_outside_a_source_checkout():
    bare = HERE / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = bench(WORKLOADS[0], 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
