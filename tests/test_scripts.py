"""Every demo script, and the README's library quick start, runs to
completion: they use the public API, so an API change that breaks one fails
here. ``trace_digests.py`` runs in its ``--counts`` mode too."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def readme_quick_start() -> str:
    """The first Python block under README.md's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def run_python(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
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
    # every job must read real counts through those hooks.
    done = run_python([str(ROOT / "scripts" / "trace_digests.py"), "--counts"])
    assert done.returncode == 0, done.stderr
    pattern = re.compile(r"\w+ iterations=(\d+) accepted=\d+ eigen_seeds=(\d+) "
                         r"bound_rows=\d+ applies=(\d+) columns=\d+")
    counts = [pattern.fullmatch(line) for line in done.stdout.splitlines()]
    assert counts and all(counts), done.stdout
    assert all(int(m[1]) > 0 and int(m[3]) > 0 for m in counts)
    assert sum(int(m[2]) for m in counts) > 0
