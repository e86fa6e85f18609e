import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from subnewton.core import ConfigurationError
from subnewton.harness import (EXIT_CONFIG_ERROR, EXIT_NOT_CONVERGED, EXIT_OK,
                               EXIT_VERIFICATION_FAILURE, ExperimentConfig,
                               build_problem, compare_exact_vs_sampled,
                               load_config, main, parse_config_text,
                               run_experiment, run_solver, verify_bounds)

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
        lines = text.splitlines()
        assert lines[0] == ("t,F,grad_norm,lambda_min_est,radius_or_sigma,rho,"
                            "accepted,sample_size,step_norm,eps_t")
        footer = {line.split(":")[0][2:]: line.split(": ", 1)[1]
                  for line in lines if line.startswith("# ") and ": " in line}
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
        # any work is done.
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
        ]
        for i, (command, text, key) in enumerate(cases):
            cfg = write_cfg(tmp_path, base + text, f"case{i}.cfg")
            code = main([command[0], "--config", str(cfg), *command[1:]])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG_ERROR, (command, text, err)
            assert key in err, (command, text, err)

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        # Bad dataset contents, unreadable data or config paths and an
        # unwritable trace path all exit 3 with a message naming the cause.
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

        def data_cfg(name, data, out=tmp_path / "trace.csv"):
            return write_cfg(tmp_path, f"problem = biweight\ndata = {data}\n"
                                       f"format = csv\nout = {out}\n", name)

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

    @pytest.mark.parametrize("text, reason", [
        ("problem = quartic\nsolver = tr\nradius0 = 1e300\n",  # CertificateError
         "exceeds the radius"),
        # OverflowError in the Eigen point; its text is the platform's
        ("solver = arc\nsigma0 = 1e-300\n", "solver aborted"),
        # NonFiniteError on a non-finite model value
        ("solver = arc\nsigma0 = 1e300\nx0_scale = 1000\n", "non-finite"),
    ], ids=["tr_huge_radius", "arc_tiny_sigma", "arc_huge_sigma_far_start"])
    def test_solver_abort_exit_code(self, tmp_path, capsys, text, reason):
        out = tmp_path / "abort.csv"
        cfg = write_cfg(tmp_path, text + f"out = {out}\n")
        code = main(["solve", "--config", str(cfg)])
        assert code == EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        assert "solver aborted" in err and reason in err
        # The aborted run still leaves its trace: the rows done so far and
        # the reason in the footer.
        assert out.exists()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t,F,")
        assert "# converged: 0" in lines
        message = err.strip().splitlines()[-1].removeprefix("solver aborted: ")
        assert f"# message: aborted: {message}" in lines
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert f"# iterations: {len(rows)}" in lines

    def test_verify_overflow_exit_code(self, tmp_path, capsys):
        # f'' overflows at this point; the report stops with exit 2 naming
        # the value, not with an eigensolver traceback.
        cfg = write_cfg(tmp_path, "problem = biweight\nn = 200\nd = 5\n"
                                  "x0_scale = 1e300\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["verify-sampling", "--config", str(cfg)])
        assert code == EXIT_NOT_CONVERGED
        assert "non-finite values encountered in f''" in capsys.readouterr().err

    def test_verification_failure_exit_code(self, tmp_path, monkeypatch):
        import subnewton.harness as harness
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
    # child's environment before numpy loads.

    @staticmethod
    def rerun_traces(config, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        traces = []
        for run in range(2):
            out = tmp_path / f"trace{run}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "subnewton", "solve",
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
        # d = 80 with n > SYRK_BLOCK_ROWS: every Gram is formed by blocked
        # SYRK updates, and capped samples share the exact one.
        config = write_cfg(tmp_path, "problem = biweight\nsolver = arc\n"
                           "hessian = uniform_wor\nn = 1500\nd = 80\n"
                           "k_max_target = 1.0\nseed = 3\n")
        first, second = self.rerun_traces(config, tmp_path)
        assert "lambda_min_dense_final" in first.decode()
        assert first == second
