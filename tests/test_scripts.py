"""Every demo script, and the README's library quick start, runs to
completion: they use the public API, so an API change that breaks one fails
here. ``trace_digests.py`` runs in its ``--counts`` mode too, whose lines
must equal ``scripts/trace_counts.txt``, and every one of its solve jobs
replays the update rules and ends certified."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from subnewton import harness
from subnewton.cubic_reg import ARCConfig
from subnewton.sampling import HESSIANS

from conftest import certified, reference_verify_concentration, replay_updates

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def readme_quick_start() -> str:
    """The first Python block under README.md's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_python(args, **env_vars) -> subprocess.CompletedProcess:
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "args", [[str(s)] for s in SCRIPTS] + [["-c", readme_quick_start()]],
    ids=[s.name for s in SCRIPTS] + ["README-quick-start"])
def test_script_exits_zero(args):
    done = run_python(args)
    assert done.returncode == 0, done.stderr


def test_trace_digests_counts():
    # The decision and work counts that refactors are diffed by come from
    # wrapping the configs' ``step`` and ``HessianOperator`` construction:
    # every job must read real counts through those hooks. At one BLAS
    # thread they equal scripts/trace_counts.txt, so a change to that file
    # is a change of decisions or work, made on purpose.
    done = run_python([str(ROOT / "scripts" / "trace_digests.py"), "--counts"],
                      OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 0, done.stderr
    pattern = re.compile(r"\w+ iterations=(\d+) accepted=\d+ eigen_seeds=(\d+) "
                         r"bound_rows=\d+ applies=(\d+) columns=\d+")
    counts = [pattern.fullmatch(line) for line in done.stdout.splitlines()]
    assert counts and all(counts), done.stdout
    assert all(int(m[1]) > 0 and int(m[3]) > 0 for m in counts)
    assert sum(int(m[2]) for m in counts) > 0
    assert done.stdout == (ROOT / "scripts" / "trace_counts.txt").read_text()


def test_trace_counts_cover_every_hessian_under_every_driver():
    lines = (ROOT / "scripts" / "trace_counts.txt").read_text().splitlines()
    jobs = {line.split()[0] for line in lines}
    for driver in ("tr", "arc_standard", "arc_optimal"):
        for hessian in HESSIANS:
            assert f"{driver}_{hessian}" in jobs


def test_verify_sampling_report_names_modes_by_hessians(tmp_path):
    # eps = 0.004 prescribes over 100 n rows, so the report has a negative
    # control row too.
    config = tmp_path / "verify.cfg"
    config.write_text("problem = biweight\nn = 2000\nd = 20\nk_max_target = 1.0\n"
                      "data_seed = 3\nverify_eps = 0.5,0.004\nverify_trials = 5\n")
    done = run_python(["-m", "subnewton", "verify-sampling", "--config", str(config)])
    assert done.returncode == 0, done.stderr
    header, _, *rows = done.stdout.splitlines()
    assert header.split()[0] == "mode" and len(rows) == 5
    assert {row.split()[0] for row in rows} <= set(HESSIANS)


def test_sampling_check_rows_equal_the_per_trial_reference(monkeypatch, capsys):
    # scripts/sampling_check.py at 40 trials (the verify_mc benchmark's
    # settings), then its config again with every grid point's rate from the
    # one-draw, one-eigensolve-per-trial reference loop.
    runs = []
    verify_bounds = harness.verify_bounds

    def recorded(config):
        runs.append((config, verify_bounds(config)))
        return runs[-1][1]

    monkeypatch.setattr(harness, "verify_bounds", recorded)
    monkeypatch.setattr(sys, "argv", ["sampling_check.py", "40"])
    assert runpy.run_path(str(ROOT / "scripts" / "sampling_check.py"))["main"]() == 0
    capsys.readouterr()
    [(config, (rows, all_ok))] = runs
    assert config.verify_trials == 40 and all_ok
    assert any(row.negative_control for row in rows)
    monkeypatch.setattr(harness, "verify_concentration", reference_verify_concentration)
    assert verify_bounds(config) == (rows, all_ok)


def test_digest_jobs_replay_and_certify(monkeypatch):
    # The loop config each job runs under is the one run_solver hands its
    # driver; an ARC job's Lipschitz bound is its l_estimate, which
    # run_solver fills from the problem when unset.
    loops = []
    for name in ("run_tr", "run_arc"):
        def capture(oracle, source, config, *args, run=getattr(harness, name), **kw):
            loops.append(config)
            return run(oracle, source, config, *args, **kw)
        monkeypatch.setattr(harness, name, capture)
    solves = runpy.run_path(str(ROOT / "scripts" / "trace_digests.py"))["SOLVES"]
    assert len(solves) == 23
    for name, job in solves.items():
        problem = harness.build_problem(job)
        result = harness.run_solver(job, problem)
        loop = loops[-1]
        lipschitz = loop.l_estimate if isinstance(loop, ARCConfig) else None
        assert not replay_updates(result, loop, lipschitz), name
        assert certified(result, problem, loop.tol), name
    assert len(loops) == len(solves)
