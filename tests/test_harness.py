import contextlib
import io
import os
import runpy
import subprocess
import sys
import threading
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnewton import harness, problems
from subnewton.core import ABORT_ERRORS, ConfigurationError, NonFiniteError
from subnewton.harness import (EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK,
                               EXIT_VERIFICATION_FAILURE, TRACE_SCHEMA,
                               ExperimentConfig, _render_trace, build_problem,
                               compare_exact_vs_sampled, format_trace, load_config,
                               main, parse_config_text, read_trace, run_experiment,
                               run_solver, verify_bounds)
from subnewton.sampling import verify_concentration

from conftest import POOLS, CountingPool, EagerPool, use_pool

ROOT = Path(__file__).resolve().parents[1]

QUARTIC_CFG = """
problem = quartic
solver = tr
hessian = exact
eps_g = 1e-6
eps_h = 1e-3
max_iters = 100
out = {out}
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_example_config_in_repo_parses(self):
        repo_cfg = Path(__file__).resolve().parents[1] / "configs" / "biweight_tr.cfg"
        config = load_config(repo_cfg)
        assert config.problem == "biweight"
        assert config.solver == "tr"
        assert config.n == 1000 and config.d == 50

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigurationError, match="gama"):
            parse_config_text("gama = 2.0\n")

    def test_comments_and_blanks_skipped(self):
        config = parse_config_text("# header\n\nsolver = arc  # inline\n")
        assert config.solver == "arc"

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config_text("solver = tr\nmax_iters = soon\n")

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("problem = quartic\nhessian = uniform\n")

    def test_missing_file(self):
        with pytest.raises(ConfigurationError):
            load_config("/nonexistent/path.cfg")

    ANNOTATED = {"str": str, "str | None": str, "int": int, "float": float,
                 "float | None": float}

    @pytest.mark.parametrize("field", fields(ExperimentConfig),
                             ids=lambda f: f.name)
    def test_field_parses_to_annotated_type(self, field):
        # "1" is legal for every numeric field, so an int field must not
        # come back as a float, nor a float field as an int.
        value = (field.default or "data.csv") if field.type.startswith("str") else "1"
        expected = self.ANNOTATED[field.type]
        parsed = getattr(parse_config_text(f"{field.name} = {value}\n"), field.name)
        assert type(parsed) is expected and parsed == expected(value)
        if field.type == "float | None":
            config = parse_config_text(f"{field.name} = none\n")
            assert getattr(config, field.name) is None


class TestRunExperiment:
    def test_quartic_saddle_summary(self, tmp_path):
        out = tmp_path / "trace.csv"
        config = parse_config_text(QUARTIC_CFG.format(out=out))
        code = run_experiment(config)
        assert code == EXIT_OK
        text = out.read_text()
        assert text.startswith("t,F,grad_norm,lambda_min_est,radius_or_sigma,rho,"
                               "accepted,sample_size,step_norm,eps_t,lambda_source\n")
        rows, footer = read_trace(text)
        # The quartic operator has no floor, so every row is probed.
        assert rows and all(row["lambda_source"] == "probe" for row in rows)
        assert footer["converged"] == "1"
        assert float(footer["f_final"]) == pytest.approx(-0.25, abs=1e-6)
        assert float(footer["lambda_min_dense_final"]) >= -1e-3

    def test_trace_bytes_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        text = ("problem = biweight\nsolver = arc\nhessian = uniform_wor\n"
                "n = 200\nd = 10\nk_max_target = 1.0\nmax_iters = 200\nseed = 5\n")
        config = parse_config_text(text)
        run_experiment(config, out_path=out_a)
        run_experiment(config, out_path=out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_intrinsic_mode_end_to_end(self, tmp_path):
        out = tmp_path / "trace.csv"
        text = ("problem = biweight\nsolver = arc\nhessian = intrinsic\n"
                "n = 300\nd = 10\nk_max_target = 1.0\nmax_iters = 300\n")
        config = parse_config_text(text)
        assert run_experiment(config, out_path=out) == EXIT_OK

    def test_not_converged_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        text = ("problem = biweight\nsolver = tr\nhessian = exact\n"
                "n = 100\nd = 8\nmax_iters = 2\neps_g = 1e-8\n")
        config = parse_config_text(text)
        code = run_experiment(config, out_path=out)
        assert code == EXIT_NOT_CONVERGED

    def test_quadratic_like_run_no_failures_after_warmup(self, tmp_path):
        # Exact-Hessian bi-weight from a mild start: after the first accepted
        # step, no rejected iterations (regression fixture).
        text = ("problem = biweight\nsolver = tr\nhessian = exact\n"
                "n = 300\nd = 10\nk_max_target = 1.0\nmax_iters = 300\nseed = 3\n")
        config = parse_config_text(text)
        problem = build_problem(config)
        result = run_solver(config, problem)
        assert result.converged
        first_accept = next(i for i, r in enumerate(result.records) if r.accepted)
        assert all(r.accepted for r in result.records[first_accept:])


class TestVerifyBounds:
    def test_loose_grid_passes_without_control(self):
        text = ("problem = biweight\nsolver = tr\nhessian = uniform_wor\n"
                "n = 400\nd = 8\nk_max_target = 1.0\ndata_seed = 2\n"
                "verify_eps = 0.5,0.35\nverify_delta = 0.15\nverify_trials = 150\n"
                "seed = 1\n")
        config = parse_config_text(text)
        rows, all_ok = verify_bounds(config)
        positives = [r for r in rows if not r.negative_control]
        assert len(positives) == 4  # 2 eps x 1 delta x 2 modes
        # Nothing capped: no negative control is emitted.
        assert not any(r.negative_control for r in rows)
        for row in positives:
            assert row.failure_rate <= row.delta
        assert all_ok

    def test_tight_grid_emits_failing_control(self):
        # eps=0.008 prescribes ~1700x the dataset: the quartered control
        # operates far outside the guarantee and must fail.
        text = ("problem = biweight\nsolver = tr\nhessian = uniform_wor\n"
                "n = 400\nd = 8\nk_max_target = 1.0\ndata_seed = 2\n"
                "verify_eps = 0.5,0.008\nverify_delta = 0.15\nverify_trials = 150\n"
                "seed = 1\n")
        config = parse_config_text(text)
        rows, all_ok = verify_bounds(config)
        controls = [r for r in rows if r.negative_control]
        assert len(controls) == 1
        assert controls[0].sample_size == 100
        assert controls[0].failure_rate > controls[0].delta
        assert all_ok

    def test_refuses_large_dimension(self):
        text = "problem = biweight\nn = 50\nd = 501\n"
        config = parse_config_text(text)
        with pytest.raises(ConfigurationError, match="too large"):
            verify_bounds(config)


def verify_grid(name):
    """``configs/sampling_check.cfg`` at 20 trials (seven rows at d = 20), or
    a ``VERIFIES`` grid of ``scripts/trace_digests.py``."""
    if name == "sampling_check":
        return replace(load_config(ROOT / "configs" / "sampling_check.cfg"),
                       verify_trials=20)
    return runpy.run_path(str(ROOT / "scripts" / "trace_digests.py"))["VERIFIES"][name]


class TestVerifyConcurrency:
    """The grid points run through ``run_claimed``: the rows are those of a
    serial run under every pool, and a row's failure reaches ``main``."""

    @staticmethod
    def inline(monkeypatch):
        monkeypatch.setattr(problems, "_pool", (os.getpid(), None, 0))

    @pytest.mark.parametrize("grid", ["sampling_check", "verify_striped"])
    def test_rows_do_not_depend_on_the_pool(self, monkeypatch, grid):
        config = verify_grid(grid)
        self.inline(monkeypatch)
        expected = verify_bounds(config)
        for make in (*POOLS, EagerPool):
            pool = use_pool(monkeypatch, make())
            assert verify_bounds(config) == expected
            pool.shutdown()
            assert pool.tasks > 0

    def test_rows_are_claimed_largest_first(self, monkeypatch):
        # With no helper the caller claims every row, in the claim order:
        # draws x |S| descending, a full sample without replacement one draw.
        config = verify_grid("sampling_check")
        self.inline(monkeypatch)
        claimed = []

        def recording(problem, x, scheme, trials, rng_seed):
            claimed.append(scheme)
            return verify_concentration(problem, x, scheme, trials, rng_seed=rng_seed)

        monkeypatch.setattr(harness, "verify_concentration", recording)
        rows, _ = verify_bounds(config)
        assert len(claimed) == len(rows) == 7
        costs = [(1 if s.mode == "uniform_wor" and s.resolved_size == 2000 else 20)
                 * s.resolved_size for s in claimed]
        assert costs == sorted(costs, reverse=True)
        assert (claimed[0].mode, claimed[0].resolved_size) == ("nonuniform", 2000)
        assert sorted((r.mode, r.epsilon, r.sample_size) for r in rows) == \
            sorted((s.mode, s.epsilon, s.resolved_size) for s in claimed)

    def test_a_striped_gram_runs_inside_a_helpers_row(self, monkeypatch):
        # Every row on the eager pool's helper thread: the draws of all
        # 4,000 rows at d = 64 map their two SYRK stripes from there.
        config = verify_grid("verify_striped")
        use_pool(monkeypatch, EagerPool())
        callers = []
        map_stripes = problems._map_stripes

        def recording(task, n, d):
            callers.append((n, threading.get_ident()))
            return map_stripes(task, n, d)

        monkeypatch.setattr(problems, "_map_stripes", recording)
        verify_bounds(config)
        main = threading.get_ident()
        assert any(n == 4000 and ident != main for n, ident in callers)

    def test_a_held_helper_leaves_every_row_to_the_caller(self, monkeypatch):
        # A real one-worker executor whose worker is held: the grid's helper
        # and each striped Gram's helper wait in its queue, and the caller
        # runs every row and stripe, cancels them and returns.
        config = verify_grid("verify_striped")
        self.inline(monkeypatch)
        expected = verify_bounds(config)
        pool, gate = use_pool(monkeypatch, CountingPool(1)), threading.Event()
        held = pool.submit(gate.wait, 60)
        outputs = verify_bounds(config)
        assert not held.done()
        gate.set()
        pool.shutdown()
        assert held.result() is True
        assert pool.tasks > 1 + 1  # the hold, the grid's helper, the stripes'
        assert outputs == expected

    def test_concurrent_callers_share_the_pool(self, monkeypatch):
        # More callers than CPUs, each running the striped grid's rows and
        # their striped Grams beside two shared helpers, with frequent thread
        # switches: none may deadlock, and each gets a lone caller's rows.
        config = verify_grid("verify_striped")
        self.inline(monkeypatch)
        expected = verify_bounds(config)
        pool = use_pool(monkeypatch, CountingPool(2))
        results = [None] * 4

        def call(k):
            results[k] = verify_bounds(config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        pool.shutdown()
        assert results == [expected] * 4

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(problems, "_pool", ())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        threads = set(threading.enumerate())
        verify_bounds(verify_grid("sampling_check"))
        assert problems._pool == (os.getpid(), None, 0)
        assert set(threading.enumerate()) <= threads

    def test_a_failing_row_aborts_with_the_first_failure_in_grid_order(
            self, tmp_path, monkeypatch, capsys):
        # Both nonuniform rows fail; the smaller, at eps = 0.5, is claimed
        # last but comes first in the grid.
        use_pool(monkeypatch, CountingPool(1))

        def failing(problem, x, scheme, trials, rng_seed):
            if scheme.mode == "nonuniform":
                raise NonFiniteError(f"row at eps = {scheme.epsilon}")
            return verify_concentration(problem, x, scheme, trials, rng_seed=rng_seed)

        monkeypatch.setattr(harness, "verify_concentration", failing)
        cfg = write_cfg(tmp_path, "problem = biweight\nn = 2000\nd = 20\n"
                                  "k_max_target = 1.0\ndata_seed = 3\n"
                                  "verify_eps = 0.5,0.004\nverify_trials = 5\n")
        assert main(["verify-sampling", "--config", str(cfg)]) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err == "verify-sampling aborted: row at eps = 0.5\n"


class TestCompare:
    def test_full_sample_reproduces_exact_trace_bitwise(self, tmp_path):
        # |S| = n without replacement builds the identical operator, so the
        # paired runs must coincide record for record, on both sides of
        # weighted_gram's GEMM/SYRK selection.
        for d in (8, 80):
            base = (f"problem = biweight\nsolver = arc\nn = 150\nd = {d}\n"
                    "k_max_target = 1.0\nmax_iters = 200\nseed = 11\n"
                    "eps_g = 1e-4\neps_h = 1e-2\n")
            cfg_exact = parse_config_text(base + "hessian = exact\n")
            cfg_sampled = parse_config_text(base + "hessian = uniform_wor\n")
            problem = build_problem(cfg_exact)
            res_exact = run_solver(cfg_exact, problem)
            res_sampled = run_solver(cfg_sampled, problem)
            assert res_exact.converged and res_sampled.converged
            assert len(res_exact.records) == len(res_sampled.records)
            for a, b in zip(res_exact.records, res_sampled.records):
                assert a.f_value == b.f_value
                assert a.grad_norm == b.grad_norm
                assert a.rho == b.rho
                assert a.step_norm == b.step_norm
                assert a.radius_or_sigma == b.radius_or_sigma
            assert np.array_equal(res_exact.x, res_sampled.x)

    def test_report_and_cost_proxy(self):
        text = ("problem = biweight\nsolver = tr\nhessian = uniform_wor\n"
                "n = 200\nd = 8\nk_max_target = 1.0\nmax_iters = 300\n"
                "trials = 3\nseed = 2\nx0_scale = 0.3\n")
        config = parse_config_text(text)
        runs, report = compare_exact_vs_sampled(config)
        assert len(runs) == 6
        sampled = [r for r in runs if r.hessian != "exact"]
        exact = [r for r in runs if r.hessian == "exact"]
        assert all(r.converged for r in exact)
        # Cost proxy: sampled iterations never charge more than n per build.
        n = 200
        for r in sampled:
            assert r.hessian_cost <= n * r.iterations
        assert "hessian cost ratio" in report

    def test_compare_requires_sampled_mode(self):
        config = parse_config_text("problem = biweight\nhessian = exact\n")
        with pytest.raises(ConfigurationError):
            compare_exact_vs_sampled(config)


class TestCLI:
    def test_solve_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        cfg = write_cfg(tmp_path, QUARTIC_CFG.format(out=out))
        code = main(["solve", "--config", str(cfg)])
        assert code == EXIT_OK
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        # An unknown key, a trial count below 1 and an empty or non-numeric
        # verification grid all exit 3 with a message naming the key, before
        # any work is done. An epsilon so small that the prescribed sample
        # size is not finite (epsilon**2 underflows to 0, or the quotient
        # overflows) exits 3 naming epsilon. A NaN, infinite or out-of-range
        # data, step-size or regularization value exits 3 naming the value.
        # A negative data seed, a compare run too wide for its dense
        # eigensolves, an eps_h so small that the default nu rounds to 1,
        # rows whose Hessian-Lipschitz bound overflows, a synthetic problem
        # too large to allocate (numpy refuses both shapes without allocating)
        # and synthetic targets that overflow exit 3 naming the cause.
        base = "problem = biweight\nhessian = uniform_wor\nn = 50\nd = 4\n"
        cases = [
            (["solve"], "gama = 2.0\n", "gama"),
            (["verify-sampling"], "verify_trials = 0\n", "verify_trials"),
            (["verify-sampling"], "verify_trials = -1\n", "verify_trials"),
            (["verify-sampling"], "verify_eps = abc\n", "verify_eps"),
            (["verify-sampling"], "verify_eps = ,\n", "verify_eps"),
            (["verify-sampling"], "verify_delta =\n", "verify_delta"),
            (["compare"], "trials = 0\n", "trials"),
            (["compare", "--trials", "0"], "", "trials"),
            (["solve"], "eps_cap = 1e-300\n", "epsilon=1e-300"),
            (["solve"], "eps_cap = 1e-160\n", "epsilon=1e-160"),
            (["verify-sampling"], "verify_eps = 1e-300\n", "epsilon=1e-300"),
            (["solve"], "k_max_target = -1\n", "k_max"),
            (["solve"], "k_max_target = 0\n", "k_max"),
            (["solve"], "gamma = nan\n", "gamma"),
            (["solve"], "solver = arc\ngamma = nan\n", "gamma"),
            (["solve"], "solver = arc\nsigma_min = inf\n", "sigma_min"),
            (["solve"], "solver = arc\nsigma_min = nan\n", "sigma_min"),
            (["solve"], "skew = nan\n", "skew"),
            (["solve"], "solver = arc\nhessian = exact\nl_estimate = inf\n",
             "l_estimate"),
            (["solve"], "noise = inf\n", "noise"),
            (["solve"], "x0_scale = nan\n", "x0_scale"),
            (["solve"], "data_seed = -1\n", "data_seed"),
            (["verify-sampling"], "data_seed = -1\n", "data_seed"),
            (["compare"], "d = 501\ntrials = 1\n", "d=501 too large"),
            (["solve"], "hessian = exact\neps_h = 1e-300\n",
             "default nu = 2K/(2K + eps_H) rounds to 1"),
            (["solve"], "solver = arc\nhessian = exact\neps_h = 1e-300\n",
             "eps_H=1e-300"),
            (["solve"], "solver = arc\nk_max_target = 1e300\n",
             "Hessian-Lipschitz bound"),
            (["solve"], "n = 1000000000000\nd = 10000000\n",
             "n=1000000000000, d=10000000"),
            (["verify-sampling"], f"n = {10 ** 30}\nd = 5\n", f"n={10 ** 30}, d=5"),
            (["solve"], "noise = 1e308\n", "noise=1e+308"),
            (["verify-sampling"], "noise = 1e308\n", "noise=1e+308"),
            (["compare"], "noise = 1e308\n", "noise=1e+308"),
            (["solve"], "n = 20000\nd = 5\nskew = 1e308\n", "skew=1e+308"),
        ]
        for i, (command, text, key) in enumerate(cases):
            cfg = write_cfg(tmp_path, base + text, f"case{i}.cfg")
            code = main([command[0], "--config", str(cfg), *command[1:]])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG_ERROR, (command, text, err)
            assert key in err, (command, text, err)

    def test_the_cli_loads_no_scipy(self, tmp_path):
        # numpy is the only runtime dependency: importing the CLI, and
        # running both solvers on both losses and a verification, loads no
        # scipy module (and no second BLAS build with it).
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        configs = [write_cfg(tmp_path, "n = 200\nd = 5\nmax_iters = 20\n"
                             f"verify_trials = 10\nout = {tmp_path / 'trace.csv'}\n"
                             + text, f"run{i}.cfg")
                   for i, text in enumerate(("problem = biweight\nhessian = uniform_wor\n",
                                             "problem = nls_logistic\nsolver = arc\n"))]
        script = ("import sys\n"
                  "def scipy():\n"
                  "    return sorted(m for m in sys.modules\n"
                  "                  if m == 'scipy' or m.startswith('scipy.'))\n"
                  "import subnewton.harness\n"
                  "print(scipy())\n"
                  "codes = [subnewton.harness.main([command, '--config', cfg])\n"
                  f"         for cfg in {[str(c) for c in configs]!r}\n"
                  "         for command in ('solve', 'verify-sampling')]\n"
                  "print(scipy(), *codes)\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "[]"
        loaded, *codes = lines[-1].split(" ")
        assert loaded == "[]"
        # Every run finishes: a verification may report an unmet expectation.
        assert codes[0::2] == [str(EXIT_OK)] * 2
        assert set(codes[1::2]) <= {str(EXIT_OK), str(EXIT_VERIFICATION_FAILURE)}

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        # Bad dataset contents, unreadable data or config paths and an
        # unwritable trace path all exit 3 with a message naming the cause:
        # for a non-finite or overflowing value or a repeated svmlight index,
        # the file and line; for rows whose curvature bound overflows, the row.
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1.0,2.0,0.5\n3.0,4.0,1.5\n5.0,6.0\n")
        not_utf8 = tmp_path / "latin1.csv"
        not_utf8.write_bytes(b"1.0,2.0,0.5\n3.0,\xe9,1.5\n")
        good = tmp_path / "good.csv"
        good.write_text("1.0,2.0,0.5\n3.0,4.0,1.5\n")
        folder = tmp_path / "folder"
        folder.mkdir()
        missing = tmp_path / "missing.csv"
        no_dir_out = tmp_path / "no_such_dir" / "trace.csv"

        def data_cfg(name, data, out=tmp_path / "trace.csv", fmt="csv"):
            return write_cfg(tmp_path, f"problem = biweight\ndata = {data}\n"
                                       f"format = {fmt}\nout = {out}\n", name)

        def dataset(name, text):
            path = tmp_path / name
            path.write_text(text)
            return data_cfg(f"{name}.cfg", path,
                            fmt="svmlight" if name.endswith(".svm") else "csv")

        cases = [
            (data_cfg("ragged.cfg", ragged), "line 3: expected 3 fields, got 2"),
            (data_cfg("missing.cfg", missing), str(missing)),
            (data_cfg("folder.cfg", folder), str(folder)),
            (data_cfg("latin1.cfg", not_utf8), str(not_utf8)),
            (folder, str(folder)),
            (data_cfg("no_dir_out.cfg", good, out=no_dir_out), str(no_dir_out)),
        ]
        for cfg, cause in cases:
            code = main(["solve", "--config", str(cfg)])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG_ERROR, (cfg, err)
            assert cause in err, (cfg, err)

        # Bad values exit 3 from verify-sampling as well, before any solver.
        cases = []
        for name, value in (("nan", "nan"), ("inf", "-inf"), ("huge", "1e400")):
            cases += [
                (dataset(f"{name}.csv", f"1.0,2.0,0.5\n3.0,{value},1.5\n"),
                 f"{name}.csv: line 2: non-finite value '{value}'"),
                (dataset(f"{name}_target.svm", f"1 1:0.5\n{value} 2:1.0\n"),
                 f"{name}_target.svm: line 2: non-finite value '{value}'"),
                (dataset(f"{name}.svm", f"1 1:0.5\n0 1:1.0 2:{value}\n"),
                 f"{name}.svm: line 2: non-finite value '{value}'"),
            ]
        cases += [
            (dataset("repeat.svm", "1 2:0.5\n0 1:0.5 1:0.7\n"),
             "repeat.svm: line 2: index 1 repeated"),
            (dataset("overflow.csv", "1.0,2.0,0.5\n3.0,1e300,1.5\n"),
             "overflow.csv: the curvature bounds sup|f''| * ||a_i||^2 overflow "
             "(the largest at row 1)"),
            (dataset("overflow.svm", "1 1:1e200\n0 2:1.0\n"),
             "overflow.svm: the curvature bounds sup|f''| * ||a_i||^2 overflow "
             "(the largest at row 0)"),
        ]
        for cfg, cause in cases:
            for command in ("solve", "verify-sampling"):
                code = main([command, "--config", str(cfg)])
                err = capsys.readouterr().err
                assert code == EXIT_CONFIG_ERROR, (command, cfg, err)
                assert cause in err, (command, cfg, err)

    def test_svmlight_dimension_exit_code(self, tmp_path, capsys):
        # An index whose rows or Hessian cannot be allocated exits 3 naming
        # the index and its line, before any array of that size is made; a
        # file with no index at all exits 3 too.
        for name, text, cause in (
                ("huge.svm", "1 1:0.5\n0 10000000:1\n",
                 "huge.svm: line 2: index 10000000 makes the rows or the Hessian too large"),
                ("bare.svm", "1\n0\n", "bare.svm: no features")):
            data = tmp_path / name
            data.write_text(text)
            cfg = write_cfg(tmp_path, f"problem = biweight\ndata = {data}\n"
                                      f"format = svmlight\nout = {tmp_path / 'o.csv'}\n")
            for command in ("solve", "verify-sampling"):
                assert main([command, "--config", str(cfg)]) == EXIT_CONFIG_ERROR
                err = capsys.readouterr().err
                assert cause in err, err

    def test_underflowing_failure_budget_exit_code(self, tmp_path, capsys):
        # eps_h**3 underflows, so the per-iteration failure probability is 0.
        # A sampled source refuses it, naming the schedule and the tolerances
        # behind it; an exact source never uses it and converges.
        base = (f"problem = biweight\nn = 50\nd = 4\neps_h = 1e-300\nnu = 0.5\n"
                f"out = {tmp_path / 'o.csv'}\n")
        for solver, schedule in (("tr", "tr_optimal"), ("arc", "arc_standard")):
            cfg = write_cfg(tmp_path, base + f"solver = {solver}\nhessian = uniform_wor\n")
            assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
            err = capsys.readouterr().err
            for part in ("per-iteration failure probability", f"{schedule} schedule",
                         "delta=0.1", "eps_g=0.0001", "eps_h=1e-300"):
                assert part in err, err
        cfg = write_cfg(tmp_path, base + "hessian = exact\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK

    def test_underflowing_accuracy_exit_code(self, tmp_path, capsys):
        # Every row saturates at this start, so K_H = 0, and 8*L*eps_g
        # underflows to 0 in ARC's fixed accuracy, whose surd
        # sqrt(K_H^2 + 8*L*eps_g) - K_H is then 0, not 0/0.
        out = tmp_path / "o.csv"
        cfg = write_cfg(tmp_path, "problem = nls_logistic\nsolver = arc\n"
                                  "hessian = exact\nn = 20\nd = 3\nx0_scale = 1e12\n"
                                  f"l_estimate = 1e-300\neps_g = 1e-30\nout = {out}\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_OK
        assert read_trace(out.read_text())[1]["message"] == "optimality certified"

    # Each run overflows a sub-problem step or its model value: the TR Eigen
    # step of length 1e300, or the ARC Cauchy or Eigen step at an extreme
    # sigma (at the subnormal one, 2 sigma ||g||^3 underflows to 0). The
    # NonFiniteError is raised before any certificate is computed, and no
    # RuntimeWarning is printed on the way.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text, reason", [
        ("problem = quartic\nsolver = tr\nradius0 = 1e300\n",
         "non-finite sub-problem solution: m(s)=-inf, ||s||=inf"),
        ("solver = arc\nsigma0 = 1e-300\n",
         "non-finite sub-problem solution: m(s)=nan, ||s||=inf"),
        ("solver = arc\nsigma0 = 1e300\nx0_scale = 1000\n",
         "non-finite sub-problem solution: m(s)=nan, ||s||=inf"),
        ("problem = biweight\nhessian = uniform_wor\nn = 50\nd = 4\n"
         "solver = arc\nsigma0 = 1e300\n",
         "the ARC Eigen decrease bound overflows: ||s_e||="),
        ("problem = quartic\nx0_scale = 1e200\n",
         "the quartic objective overflows at x=(2.2007"),
        ("problem = biweight\nn = 200\nd = 5\nsolver = arc\nhessian = uniform\n"
         "sigma0 = 5e-324\n",
         "non-finite sub-problem solution: m(s)=nan, ||s||=inf"),
        ((Path(__file__).resolve().parents[1] / "configs" / "saddle_arc.cfg").read_text()
         + "sigma0 = 5e-324\n",
         "non-finite sub-problem solution: m(s)=nan, ||s||=nan"),
    ], ids=["tr_huge_radius", "arc_tiny_sigma", "arc_huge_sigma_far_start",
            "arc_huge_sigma_eigen_bound", "quartic_huge_start",
            "arc_subnormal_sigma", "saddle_arc_subnormal_sigma"])
    def test_solver_abort_exit_code(self, tmp_path, capsys, text, reason):
        out = tmp_path / "abort.csv"
        cfg = write_cfg(tmp_path, text + f"out = {out}\n")
        code = main(["solve", "--config", str(cfg)])
        assert code == EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert "solver aborted" in err and reason in err
        # The aborted run still leaves its trace: the rows done so far and
        # the reason in the footer.
        rows, footer = read_trace(out.read_text())
        assert footer["converged"] == "0"
        message = err.strip().splitlines()[-1].removeprefix("solver aborted: ")
        assert footer["message"] == f"aborted: {message}"
        assert footer["iterations"] == str(len(rows))

    def test_verify_overflow_exit_code(self, tmp_path, capsys):
        # A target of 1e308 makes the least-squares loss, and so its f'',
        # overflow at every point; the report stops with exit 2 naming the
        # command and the value, not with an eigensolver traceback.
        data = tmp_path / "data.csv"
        data.write_text("1.0,2.0,1e308\n0.5,-1.0,0.0\n2.0,1.0,1.0\n")
        cfg = write_cfg(tmp_path, f"problem = nls_logistic\ndata = {data}\n"
                                  "x0_scale = 1\n")
        code = main(["verify-sampling", "--config", str(cfg)])
        assert code == EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert err.startswith("verify-sampling aborted: non-finite values "
                              "encountered in f''")
        assert "solver" not in err

    # At x0_scale = 1e300 every residual lies beyond 2^128, where the
    # bi-weight is evaluated in q = 1/r: F stays in [0, 1], every f' and f''
    # underflows to 0 and the start is certified. With a zero Hessian every
    # sample is exact, so verify-sampling emits no negative control. At
    # x0_scale = 1e308 the start itself overflows, quietly, and each command
    # refuses it.
    @pytest.mark.parametrize("command, n, d, scale, code, cause", [
        ("solve", 200, 5, 1e300, EXIT_OK, ""),
        ("verify-sampling", 200, 5, 1e300, EXIT_OK, ""),
        ("solve", 5000, 200, 1e300, EXIT_OK, ""),
        ("verify-sampling", 5000, 200, 1e300, EXIT_OK, ""),
        ("solve", 200, 5, 1e308, EXIT_NOT_CONVERGED,
         "solver aborted: non-finite values encountered in starting point"),
        ("verify-sampling", 200, 5, 1e308, EXIT_NOT_CONVERGED,
         "verify-sampling aborted: non-finite values encountered in starting point"),
        ("compare", 200, 5, 1e308, EXIT_NOT_CONVERGED,
         "solver aborted: non-finite values encountered in starting point"),
    ])
    def test_start_point_overflow_exit_code(self, tmp_path, capsys, command, n,
                                            d, scale, code, cause):
        cfg = write_cfg(tmp_path, f"problem = biweight\nn = {n}\nd = {d}\n"
                                  f"hessian = uniform\nx0_scale = {scale}\n"
                                  f"verify_trials = 2\nout = {tmp_path / 'o.csv'}\n")
        assert main([command, "--config", str(cfg)]) == code
        assert capsys.readouterr().err.startswith(cause)

    # A target of 1e308 makes the least-squares loss, its f' and its f''
    # overflow in every row. At 5000 x 200 the oracle's pass runs on the
    # stripe helpers' threads too, and numpy's error state is per thread, so
    # each stripe must keep the overflow quiet for the command to name it.
    @pytest.mark.parametrize("command, cause", [
        ("solve", "solver aborted: non-finite values encountered in objective "
                  "value at iteration 0"),
        ("verify-sampling", "verify-sampling aborted: non-finite values "
                            "encountered in f''"),
    ])
    def test_overflow_on_the_stripe_helpers(self, tmp_path, capsys, command, cause):
        data = tmp_path / "data.svm"
        data.write_text("".join(f"1e308 {1 + i % 199}:1 200:0.5\n" for i in range(5000)))
        cfg = write_cfg(tmp_path, f"problem = nls_logistic\ndata = {data}\n"
                                  f"format = svmlight\nx0_scale = 1\n"
                                  f"out = {tmp_path / 'o.csv'}\n")
        assert main([command, "--config", str(cfg)]) == EXIT_NOT_CONVERGED
        assert capsys.readouterr().err.startswith(cause)

    @pytest.mark.parametrize("hessian", ["uniform", "nonuniform", "intrinsic"])
    def test_underflowing_sample_size_exit_code(self, tmp_path, hessian):
        # K^2 underflows to 0, so every prescription lies below one row;
        # one row meets it.
        cfg = write_cfg(tmp_path, f"problem = biweight\nn = 200\nd = 5\n"
                                  f"k_max_target = 1e-300\nhessian = {hessian}\n"
                                  f"out = {tmp_path / 'o.csv'}\n")
        for command, *options in (["solve"], ["verify-sampling"],
                                  ["compare", "--trials", "2"]):
            assert main([command, "--config", str(cfg), *options]) == EXIT_OK

    def test_verification_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "verify_bounds", lambda config: ([], False))
        cfg = write_cfg(tmp_path, "problem = biweight\nn = 50\nd = 4\n")
        assert main(["verify-sampling", "--config", str(cfg)]) == EXIT_VERIFICATION_FAILURE

    def test_verify_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "problem = biweight\nn = 300\nd = 6\nk_max_target = 1.0\n"
            "verify_eps = 0.6\nverify_delta = 0.2\nverify_trials = 60\n"))
        code = main(["verify-sampling", "--config", str(cfg)])
        captured = capsys.readouterr().out
        assert "fail_rate" in captured
        assert code in (EXIT_OK, EXIT_VERIFICATION_FAILURE)

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, (
            "problem = biweight\nsolver = tr\nhessian = uniform_wor\n"
            "n = 150\nd = 6\nk_max_target = 1.0\nmax_iters = 200\nseed = 4\n"))
        code = main(["compare", "--config", str(cfg), "--trials", "2"])
        assert code == EXIT_OK
        assert "hessian" in capsys.readouterr().out


class TestTraceDeterminism:
    # Traces are byte-identical across reruns only at one BLAS thread count
    # (the Gram kernels' blocking follows it), so the count is set in each
    # child's environment before numpy loads. The stripe pool's worker count
    # does not matter.

    @staticmethod
    def rerun_traces(config, tmp_path, launchers=(("-m", "subnewton"),) * 2):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        traces = []
        for run, launcher in enumerate(launchers):
            out = tmp_path / f"trace{run}.csv"
            done = subprocess.run(
                [sys.executable, *launcher, "solve",
                 "--config", str(config), "--out", str(out)],
                cwd=root, env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == EXIT_OK, done.stderr
            traces.append(out.read_bytes())
        return traces

    def test_rerun_at_a_fixed_blas_thread_count_gives_the_same_bytes(self, tmp_path):
        # d = 50: every Gram takes weighted_gram's GEMM path.
        first, second = self.rerun_traces("configs/biweight_tr.cfg", tmp_path)
        assert first == second

    def test_rerun_on_the_syrk_side_gives_the_same_bytes(self, tmp_path):
        # d = 80: every Gram is formed by SYRK updates, and capped samples
        # share the exact one.
        config = write_cfg(tmp_path, "problem = biweight\nsolver = arc\n"
                           "hessian = uniform_wor\nn = 1500\nd = 80\n"
                           "k_max_target = 1.0\nseed = 3\n")
        first, second = self.rerun_traces(config, tmp_path)
        assert "lambda_min_dense_final" in read_trace(first.decode())[1]
        assert first == second

    def test_one_cpu_and_all_cpus_give_the_same_bytes(self, tmp_path):
        # 6000 x 80 spans three blocks, so the oracle, the row pass and the
        # SYRK Gram run their stripes with helpers: none in the child pinned
        # to one CPU, up to three unpinned.
        config = write_cfg(tmp_path, "problem = biweight\nsolver = tr\n"
                           "hessian = uniform_wor\nn = 6000\nd = 80\n"
                           "k_max_target = 1.0\nseed = 3\n")
        pinned = ("-c", "import os, runpy; "
                  "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                  "runpy.run_module('subnewton', run_name='__main__')")
        first, second = self.rerun_traces(config, tmp_path,
                                          (pinned, ("-m", "subnewton")))
        assert "lambda_min_dense_final" in read_trace(first.decode())[1]
        assert first == second


class TestTraceFormat:
    """``read_trace`` inverts the renderer ``format_trace`` writes through:
    rendering what it reads gives the text back byte for byte, and each row
    it reads equals its record on every schema field, floats included."""

    @staticmethod
    def assert_round_trip(result, text):
        rows, footer = read_trace(text)
        assert _render_trace(rows, footer.items()) == text
        records = [{field: getattr(record, field) for _, field in TRACE_SCHEMA}
                   for record in result.records]
        assert rows == records
        assert [list(map(type, row.values())) for row in rows] == \
            [list(map(type, record.values())) for record in records]

    def test_every_digest_solve(self):
        # runpy compiles the script in memory: no bytecode under scripts/.
        script = Path(__file__).resolve().parents[1] / "scripts" / "trace_digests.py"
        solves = runpy.run_path(str(script))["SOLVES"]
        assert len(solves) == 23
        for config in solves.values():
            problem = build_problem(config)
            result = run_solver(config, problem)
            self.assert_round_trip(result, format_trace(result, problem=problem))

    @pytest.mark.parametrize("setting, iterations, reason", [
        ("solver = tr\nradius0 = 1e-20\n", 452, "trust-region step exceeds the radius"),
        ("solver = arc\nsigma0 = 1e155\n", 0, "the ARC Eigen decrease bound overflows"),
    ], ids=["tr_tiny_radius", "arc_huge_sigma"])
    def test_aborted_runs_partial_trace(self, setting, iterations, reason):
        config = parse_config_text("problem = biweight\nn = 200\nd = 5\nx0_scale = 1\n"
                                   "max_iters = 1000\n" + setting)
        with pytest.raises(ABORT_ERRORS, match=reason) as aborted:
            run_solver(config, build_problem(config))
        result = aborted.value.partial_result
        assert len(result.records) == iterations
        self.assert_round_trip(result, format_trace(result))


# Values that have broken the exit-code contract or sit on a range's bound,
# tried on every config key.
HOSTILE_VALUES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "-1e-300",
                  "0", "1", "-1", "")
# Dataset fields: well-formed ones, ones whose squared row norms overflow, and
# non-finite ones or ones that overflow on parsing.
PLAIN_FIELDS = ("0", "0.5", "-2")
HUGE_FIELDS = ("1e300", "-1e200", "1e160")
NON_FINITE_FIELDS = ("nan", "-inf", "1e400")
# svmlight indices whose dimension's rows or Hessian cannot be allocated.
HUGE_INDICES = ("10000000", "1000000000000")
FUZZ_BASE = ("problem = biweight\nn = 30\nd = 3\nmax_iters = 20\ntrials = 2\n"
             "verify_trials = 10\nverify_eps = 0.5\n")
FUZZ_SETUPS = ("", "solver = arc\n", "solver = arc\narc_mode = optimal\n",
               "hessian = uniform\n", "hessian = uniform_wor\n",
               "hessian = nonuniform\n", "solver = arc\nhessian = intrinsic\n",
               "problem = quartic\n", "problem = nls_logistic\nsolver = arc\n",
               "n = 2\nhessian = uniform_wor\n")
FUZZ_KEYS = [f.name for f in fields(ExperimentConfig) if f.name not in ("data", "out")]
FUZZ_COMMANDS = ("solve", "verify-sampling", "compare")
CONTRACT_CODES = (EXIT_OK, EXIT_NOT_CONVERGED, EXIT_CONFIG_ERROR,
                  EXIT_VERIFICATION_FAILURE)
# The float-extremes sweep's setups: sampled TR, sampled ARC, the quartic
# under ARC.
EXTREME_SETUPS = ("hessian = uniform\n", "solver = arc\nhessian = uniform\n",
                  "problem = quartic\nsolver = arc\nhessian = exact\n")


@st.composite
def hostile_datasets(draw):
    """(format, text) of a dataset of up to four lines of one to four fields
    (target last in csv, first in svmlight), maybe ragged or empty, with
    hostile fields; half of them have no non-finite field."""
    pool = PLAIN_FIELDS + HUGE_FIELDS + draw(st.sampled_from(((), NON_FINITE_FIELDS)))
    lines = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                          max_size=4))
    if draw(st.booleans()):
        return "csv", "".join(",".join(line) + "\n" for line in lines)
    # svmlight, on request with every index 1 (repeated from two features
    # on) or with each line's last index one of HUGE_INDICES.
    indexing = draw(st.sampled_from(("plain", "repeat", *HUGE_INDICES)))

    def index(j, last):
        if indexing == "repeat":
            return 1
        return indexing if indexing != "plain" and j == last else j

    return "svmlight", "".join(
        line[0] + "".join(f" {index(j, len(line) - 1)}:{v}"
                          for j, v in enumerate(line[1:], start=1)) + "\n"
        for line in lines)


def run_every_command(cfg) -> list[tuple[str, object, list[str]]]:
    """(command, exit code or the exception's repr, RuntimeWarnings) of each
    of FUZZ_COMMANDS run on the config file ``cfg``."""
    runs = []
    for command in FUZZ_COMMANDS:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always", RuntimeWarning)
            try:
                code = main([command, "--config", str(cfg)])
            except Exception as exc:  # reported with the run
                code = repr(exc)
        runs.append((command, code, [str(w.message) for w in caught
                                     if issubclass(w.category, RuntimeWarning)]))
    return runs


class TestExitCodeContract:
    # Hostile config values and dataset files: every command must return a
    # contract exit code, never raise, and print no RuntimeWarning (the suite
    # turns one into an error). Examples are fixed and bounded, so the test
    # takes seconds.
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(command=st.sampled_from(FUZZ_COMMANDS),
           setup=st.sampled_from(FUZZ_SETUPS),
           overrides=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                                        st.sampled_from(HOSTILE_VALUES)), max_size=2),
           data=st.none() | hostile_datasets())
    def test_every_run_returns_a_contract_code(self, tmp_path_factory, command,
                                               setup, overrides, data):
        folder = tmp_path_factory.mktemp("fuzz")
        text = FUZZ_BASE + setup + f"out = {folder / 'trace.csv'}\n"
        if data is not None:
            fmt, contents = data
            (folder / "data.txt").write_text(contents)
            text += f"data = {folder / 'data.txt'}\nformat = {fmt}\n"
        text += "".join(f"{key} = {value}\n" for key, value in overrides)
        (folder / "fuzz.cfg").write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--config", str(folder / "fuzz.cfg")])
        assert code in CONTRACT_CODES, text

    @pytest.mark.parametrize("value", ["1e308", "5e-324"])
    @pytest.mark.parametrize("setup", EXTREME_SETUPS)
    def test_float_extremes_on_every_key(self, tmp_path, setup, value):
        # The largest float and the smallest subnormal, which the examples
        # above miss, on every key in turn under every command: 93 runs.
        failures = []
        for key in FUZZ_KEYS:
            cfg = write_cfg(tmp_path, FUZZ_BASE + setup + f"{key} = {value}\n"
                            f"out = {tmp_path / 'trace.csv'}\n")
            failures += [(key, *run) for run in run_every_command(cfg)
                         if run[1] not in CONTRACT_CODES or run[2]]
        assert not failures

    @pytest.mark.parametrize("noise", ["1e154", "1e200"])
    def test_huge_biweight_residuals(self, tmp_path, noise):
        # Residuals past 5.5e153 once made f'' NaN, which reached LAPACK
        # (exit 1), and past 1.3e154 made F overflow, though it lies in
        # [0, 1) (exit 2). Every f' now underflows to 0 at the start, which
        # is certified optimal.
        cfg = write_cfg(tmp_path, "problem = biweight\nn = 2\nd = 3\n"
                        f"hessian = uniform_wor\nnoise = {noise}\n"
                        f"out = {tmp_path / 'trace.csv'}\n")
        assert run_every_command(cfg) == [(command, EXIT_OK, [])
                                          for command in FUZZ_COMMANDS]
