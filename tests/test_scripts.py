"""Every demo script, and the README's library quick start, runs to
completion: they use the public API, so an API change that breaks one fails
here."""

import os
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


@pytest.mark.parametrize(
    "args", [[str(s)] for s in SCRIPTS] + [["-c", readme_quick_start()]],
    ids=[s.name for s in SCRIPTS] + ["README-quick-start"])
def test_script_exits_zero(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
