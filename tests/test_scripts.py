"""Every config in ``configs/`` runs to exit 0 under the command its header
names, every ``subnewton`` command in README.md's shell blocks exits 0, and
``scripts/trace_digests.py`` and the README's library quick start run to
completion: they use the public API, so an API change that breaks one fails
here. ``trace_digests.py`` runs in its ``--counts`` mode too, whose lines
must equal ``scripts/trace_counts.txt``, and every one of its solve jobs
replays the update rules and ends certified. The benchmark's hand copy of
``configs/sampling_check.cfg`` is pinned to the config."""

import os
import re
import runpy
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from subnewton import harness
from subnewton.cubic_reg import ARCConfig
from subnewton.sampling import HESSIANS

from conftest import (certified, load_perfbench, reference_verify_concentration,
                      replay_updates)

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def readme_quick_start() -> str:
    """The first Python block under README.md's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def readme_commands() -> list[str]:
    """Each ``subnewton`` line of README.md's shell blocks, its optional
    ``[...]`` parts dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [re.sub(r"\s*\[[^]]*\]", "", line) for block in blocks
            for line in block.splitlines() if line.startswith("subnewton ")]


def config_command(path: Path) -> str:
    """The command of the ``subnewton <command> --config configs/<name>``
    line in a config's header comment."""
    match = re.search(rf"subnewton (\S+) --config configs/{re.escape(path.name)}\b",
                      path.read_text())
    assert match, f"{path.name} names no command"
    return match[1]


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


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_config_exits_zero(path, tmp_path, capsys):
    command = config_command(path)
    argv = [command, "--config", str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "trace.csv")]
    assert harness.main(argv) == harness.EXIT_OK, capsys.readouterr().err


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, tmp_path, monkeypatch, capsys):
    # Run where configs/ resolves and a solve's default trace path lies in
    # tmp_path.
    (tmp_path / "configs").symlink_to(ROOT / "configs")
    monkeypatch.chdir(tmp_path)
    assert harness.main(shlex.split(line)[1:]) == harness.EXIT_OK, capsys.readouterr().err


def test_readme_documents_every_command_and_config():
    lines = readme_commands()
    assert {line.split()[1] for line in lines} == {"solve", "verify-sampling", "compare"}
    documented = {Path(shlex.split(line)[3]).name for line in lines}
    assert documented == {path.name for path in CONFIGS}


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


def test_sampling_check_rows_equal_the_per_trial_reference(monkeypatch):
    # configs/sampling_check.cfg at 40 trials, then the same config with
    # every grid point's rate from the one-draw, one-eigensolve-per-trial
    # reference loop.
    config = replace(harness.load_config(ROOT / "configs" / "sampling_check.cfg"),
                     verify_trials=40)
    rows, all_ok = harness.verify_bounds(config)
    assert all_ok
    assert any(row.negative_control for row in rows)
    monkeypatch.setattr(harness, "verify_concentration", reference_verify_concentration)
    assert harness.verify_bounds(config) == (rows, all_ok)


def test_verify_mc_holds_the_sampling_check_config(monkeypatch):
    # The benchmark's verify_mc workload copies configs/sampling_check.cfg
    # by hand, and sets the seed of each job itself.
    workloads = load_perfbench(monkeypatch, "workloads")
    config = harness.load_config(ROOT / "configs" / "sampling_check.cfg")
    workload = workloads.WORKLOADS["verify_mc"]()
    workload.setup(41)
    assert replace(workload.config, seed=config.seed) == config


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
