"""One benchmark process: set up a workload, run its jobs, check them.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment. Prints one JSON object as its last stdout line and writes the
job digests (and, when traced, every span) to ``perfbench/out/``.

Untraced (``--trace 0``): a closed loop, one job at a time, until
``--seconds`` have passed. Traced (``--trace 1``): rounds of a fixed job list
until ``--seconds`` have passed; each job runs once untraced and once traced,
the two outputs must be byte-identical, and every round must repeat the first
round's counts exactly.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracing import COUNT_METRICS, Tracer, round_metrics
from workloads import TRACE_JOBS, WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def run_job(workload, i: int) -> tuple[Job, float]:
    """One job and its wall time; a job that raises is a failed job."""
    start = perf_counter()
    try:
        job = workload.job(i)
    except Exception:  # noqa: BLE001 - the loop must go on and report it
        job = Job("", None, failure="raised:\n" + traceback.format_exc())
    return job, perf_counter() - start


def check(workload, job: Job) -> Job:
    return job if job.failure is not None else workload.check(job)


def job_record(i: int, job: Job, seconds: float) -> dict:
    return {"job": i, "s": seconds, "sha256": job.sha256,
            "bytes": len(job.text.encode()), "failure": job.failure}


def untraced_run(workload, seconds: float) -> dict:
    records = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        i = len(records)
        job, elapsed = run_job(workload, i)
        records.append(job_record(i, check(workload, job), elapsed))
    wall = perf_counter() - start
    failed = sum(r["failure"] is not None for r in records)
    passed = len(records) - failed
    metrics = {
        "jobs_per_s": (passed / wall, "1/s"),
        "job_s.p50": (statistics.median(r["s"] for r in records), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "job_pass_ratio": (passed / len(records), "ratio"),
    }
    return {"attempted": len(records), "failed": failed,
            "correct": failed == 0, "problems": [], "metrics": metrics,
            "jobs": records, "timed_wall_s": wall}


def traced_run(factory, seed: int, seconds: float, jobs_per_round: int) -> dict:
    rounds, tracers, records, problems = [], [], [], []
    plain_s, traced_s = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        r = len(rounds)
        tracer = Tracer()
        workload = factory()
        with tracer.installed(), tracer.span("bench.setup", f"{r}.setup"):
            workload.setup(seed)
        if workload.problem is not None:
            Tracer.strip(workload.problem)
        for i in range(jobs_per_round):
            plain, plain_elapsed = run_job(workload, i)
            with tracer.installed():
                if workload.problem is not None:
                    tracer.instrument(workload.problem)
                with tracer.span("bench.job", f"{r}.{i}"):
                    traced, traced_elapsed = run_job(workload, i)
                if workload.problem is not None:
                    Tracer.strip(workload.problem)
            tracer.counts["harness.trace_bytes"] += len(traced.text.encode())
            for job, elapsed, kind in ((plain, plain_elapsed, "untraced"),
                                       (traced, traced_elapsed, "traced")):
                record = job_record(i, check(workload, job), elapsed)
                records.append({"round": r, "kind": kind, **record})
            plain_s.append(plain_elapsed)
            traced_s.append(traced_elapsed)
            if plain.sha256 != traced.sha256:
                problems.append(f"round {r} job {i}: traced output differs "
                                f"from the untraced output")
        rounds.append(round_metrics(tracer))
        tracers.append(tracer)

    for r, counts in enumerate(rounds[1:], start=1):
        differ = [k for k in COUNT_METRICS if counts[k] != rounds[0][k]]
        if differ:
            problems.append(f"round {r} counts differ from round 0: {differ}")

    # Times come from the round with the median traced job time, so that its
    # layer self times still add up.
    order = sorted(range(len(rounds)), key=lambda r: rounds[r]["trace.job.s"])
    chosen = rounds[order[(len(order) - 1) // 2]]
    metrics = {name: (value, unit_of(name)) for name, value in chosen.items()}
    for name, value in derived_ratios(chosen).items():
        metrics[name] = (value, "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_s) / statistics.median(plain_s), "ratio")
    metrics["trace.attributed_ratio"] = (
        1.0 - chosen["trace.unattributed.s"] / chosen["trace.job.s"], "ratio")
    failed = sum(r["failure"] is not None for r in records)
    spans = [span for tracer in tracers for span in tracer.spans]
    return {"attempted": len(records), "failed": failed,
            "correct": failed == 0 and not problems, "problems": problems,
            "metrics": metrics, "jobs": records, "spans": spans,
            "rounds": rounds, "jobs_per_round": jobs_per_round}


def derived_ratios(m: dict) -> dict[str, float]:
    """Ratios of counts; each is 0 when its base (the denominator) is 0."""

    def ratio(num, base):
        return num / base if base else 0.0

    return {
        "curvature.converged_ratio": ratio(
            m["curvature.probes"] - m["curvature.unconverged"],
            m["curvature.probes"]),
        "trust_region.accept_ratio": ratio(m["trust_region.accepted"],
                                           m["trust_region.iterations"]),
        "cubic_reg.accept_ratio": ratio(m["cubic_reg.accepted"],
                                        m["cubic_reg.iterations"]),
        "sampling.rows_touched_per_sample_row": ratio(
            m["sampling.rows_touched"], m["sampling.sample_rows"]),
        "subproblem.cond5_met_ratio": ratio(
            m["subproblem.cond5_checked"] - m["subproblem.cond5_unmet"],
            m["subproblem.cond5_checked"]),
    }


def unit_of(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name == "harness.trace_bytes":
        return "B"
    return "count"


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it has one."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs"
                         / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def cache_sizes() -> dict[str, str]:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    return {key.strip(): value.strip() for key, _, value in
            (line.partition(":") for line in out.splitlines())
            if "cache" in key}


def environment(workload) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "subnewton").glob("*.py"))
    working_set = workload.working_set_bytes
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "working_set_bytes_computed": working_set,
        "working_set_note": (
            f"computed as 8*n*d bytes of the data matrix: "
            f"{working_set / 1e6:.2f} MB; compare with the L3 size above "
            f"before reading any time as a memory-bandwidth effect"),
        "src_lines": src_lines,
        "timers": "process-local only: time.perf_counter, "
                  "resource.getrusage (ru_maxrss)",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent at spawn time")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        result = traced_run(WORKLOADS[args.workload], args.seed, args.seconds,
                            TRACE_JOBS[args.workload])
    else:
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed)
        setup_s = perf_counter() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = untraced_run(workload, args.seconds)
        result["setup_s"] = setup_s
    result["environment"] = environment(WORKLOADS[args.workload]())
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, **result}))
    summary = {k: result.get(k) for k in ("attempted", "failed", "correct",
                                          "problems", "metrics", "setup_s",
                                          "environment")}
    summary["detail_file"] = str(out.relative_to(ROOT))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
