"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload tr_uniform_tall --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout (``src/subnewton`` must exist). The
work happens in a child process (``worker.py``) whose environment pins BLAS
to one thread and puts ``src`` on the path. With ``--trace 0`` the run first
starts four set-up-only children, so ``setup_s`` is the median of five
set-ups, each timed from process spawn through problem construction.

Human-readable lines go first; the last stdout line is the JSON result with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: argparse.Namespace, timeout: float,
              setup_only: bool = False) -> dict:
    """Run ``worker.py`` to completion and return its last-line JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(perf_counter())]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subnewton" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'subnewton'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2

    deadline = perf_counter() + CHILD_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(args, deadline - perf_counter(),
                                    setup_only=True)["setup_s"])
    result = run_child(args, deadline - perf_counter())
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = [statistics.median(setups), "s"]

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"details in {result['detail_file']}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  jobs attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_job_ratio {result['failed'] / result['attempted']:.4g})")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
