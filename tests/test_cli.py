import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptik
from adaptik import cli
from adaptik.cli import main
from adaptik.estimators import TikhonovSystem
from adaptik.harness import ExperimentSpec, RunRecord, prepare_cell, run_experiment
from adaptik.sieve import save_dataset_csv


def write_config(tmp_path, **overrides):
    doc = {
        "dgp": "npiv",
        "estimator": "trae",
        "strategies": ["dp", 0.01],
        "sizes": [200],
        "reps": 2,
        "seed": 4,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def declared_console_script():
    """The ``adaptik`` entry of ``[project.scripts]`` in the repo's pyproject."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name="adaptik", value=scripts["adaptik"], group="console_scripts")


def distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestDpCommand:
    def test_bundled_fixture_path_table(self, capsys):
        assert main(["dp"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "delta" in out
        # analytic single-mode walk: 2, 1, 0.5, 0.25 then stop
        assert "selected lambda: 0.25" in out
        assert "bracket_ok=True" in out
        assert out.count("\n") >= 5

    def test_with_config(self, tmp_path, capsys):
        assert main(["dp", "--config", write_config(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "selected lambda" in out

    @pytest.mark.parametrize("estimator", ["rdiv", "trae", "dr"])
    @pytest.mark.parametrize("dgp", ["npiv", "proxy_nc"])
    def test_config_search_is_the_experiment_dp_row(self, tmp_path, capsys,
                                                    dgp, estimator):
        # without flags, dp --config runs the searches of the config's own
        # experiment: its data, lambda0, rho and max_iters; for dr the
        # primal's search, whose lambda the row reports, then the dual's
        config = write_config(tmp_path, dgp=dgp, estimator=estimator,
                              lambda0=1.0, rho=0.7, max_iters=6, reps=1)
        assert main(["dp", "--config", config]) == 0
        out = capsys.readouterr().out
        matches = re.findall(r"selected lambda: (\S+) \((?:not )?converged, "
                             r"(\d+) grid points", out)
        spec = ExperimentSpec.from_dict(json.loads(Path(config).read_text()))
        row = next(r for r in run_experiment(spec).rows
                   if r["strategy"] == "dp" and r["n"] == spec.sizes[0]
                   and r["rep"] == 0)
        assert len(matches) == (2 if estimator == "dr" else 1)
        assert float(matches[0][0]) == pytest.approx(row["lambda_dp"], rel=1e-5)
        assert sum(int(points) for _, points in matches) == row["iters"]
        tables = [line for line in out.splitlines() if line.startswith("iter")]
        assert len(tables) == len(matches)
        first_lambda = float(out.splitlines()[1].split()[1])
        assert first_lambda == 1.0


class TestGenerate:
    @pytest.mark.parametrize("dgp", ["proxy_nc", "npiv"])
    def test_writes_csv_and_params(self, dgp, tmp_path, capsys):
        # the data of the sweep's first rep, and a params file that names
        # the spec it came from
        config = write_config(tmp_path, dgp=dgp, sizes=[50, 100])
        prefix = str(tmp_path / "data")
        assert main(["generate", "--config", config, "--seed", "3",
                     "--out", prefix]) == 0
        table = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
        assert table.shape[0] == 50
        spec = ExperimentSpec.from_dict(
            {**json.loads(Path(config).read_text()), "seed": 3})
        cell = prepare_cell(spec, spec.sizes[0], 0)
        save_dataset_csv(cell.data, tmp_path / "expected.csv")
        assert (Path(prefix + ".csv").read_bytes()
                == (tmp_path / "expected.csv").read_bytes())
        params = json.loads((tmp_path / "data.params.json").read_text())
        assert params["spec_hash"] == spec.spec_hash()
        assert ExperimentSpec.from_dict(params["config"]).spec_hash() == \
            params["spec_hash"]
        assert params["n"] == 50
        assert params["theta0"] == cell.theta0


class TestExperimentReportRates:
    def test_pipeline(self, tmp_path, capsys):
        config = write_config(tmp_path, sizes=[100, 200, 400], reps=2)
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 0
        record = RunRecord.from_csv(out + ".csv")
        assert len(record.rows) == 3 * 2 * 2
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["spec_hash"] == record.spec_hash

        assert main(["report", "--record", out + ".csv"]) == 0
        text = capsys.readouterr().out
        assert "fixed_0.01" in text

        assert main(["rates", "--record", out + ".csv"]) == 0
        text = capsys.readouterr().out
        assert "slope" in text

    def test_report_lists_the_failures_of_the_summary(self, tmp_path, capsys,
                                                      monkeypatch):
        solve = TikhonovSystem.solve

        def flaky(self, lam):
            if lam == 0.01:
                raise FloatingPointError("injected")
            return solve(self, lam)

        monkeypatch.setattr(TikhonovSystem, "solve", flaky)
        config = write_config(tmp_path, reps=1)
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 2
        capsys.readouterr()
        assert main(["report", "--record", out + ".csv"]) == 0
        text = capsys.readouterr().out
        assert "rows: 1  failures: 1" in text
        assert ("n=200 strategy=fixed_0.01 rep=0: FloatingPointError: injected"
                in text)

    def test_jobs_flag(self, tmp_path):
        config = write_config(tmp_path)
        out = str(tmp_path / "runp")
        assert main(["experiment", "--config", config, "--out", out,
                     "--jobs", "2"]) == 0
        assert len(RunRecord.from_csv(out + ".csv").rows) == 4

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        # the record, spec_hash line included, is the one of a config that
        # carries the flag's seed
        def record_lines(prefix):
            lines = Path(prefix + ".csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]  # less wall_ms

        flagged, carried = str(tmp_path / "flagged"), str(tmp_path / "carried")
        assert main(["experiment", "--config", write_config(tmp_path, seed=4),
                     "--out", flagged, "--seed", "9"]) == 0
        config = write_config(tmp_path, seed=9)
        assert main(["experiment", "--config", config, "--out", carried]) == 0
        assert record_lines(flagged) == record_lines(carried)
        spec = ExperimentSpec.from_dict(json.loads(Path(config).read_text()))
        assert record_lines(flagged)[0] == f"# spec_hash={spec.spec_hash()}"


class TestFitCommand:
    def test_single_fit(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["fit", "--config", config, "--lambda", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda"] == 0.05
        assert doc["iterations"] == 1
        assert {"coeffs", "empirical_loss", "norm_penalty",
                "abs_error"} <= set(doc)

    def test_dr_fit_prints_interval(self, tmp_path, capsys):
        config = write_config(tmp_path, estimator="dr", sizes=[300])
        assert main(["fit", "--config", config, "--lambda", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"theta_hat", "se", "ci_low", "ci_high",
                "lambda_primal", "lambda_dual"} <= set(doc)

    @pytest.mark.parametrize("estimator", ["rdiv", "trae", "dr"])
    @pytest.mark.parametrize("dgp", ["npiv", "proxy_nc"])
    def test_fit_is_the_sweep_fixed_lambda_row(self, tmp_path, capsys, dgp,
                                               estimator):
        # fit --lambda is the first row of the sweep's strategy at that
        # lambda: the same error, and one iteration (one solve per side)
        config = write_config(tmp_path, dgp=dgp, estimator=estimator,
                              strategies=[0.05], sizes=[300, 400], reps=2)
        assert main(["fit", "--config", config, "--lambda", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out)
        spec = ExperimentSpec.from_dict(json.loads(Path(config).read_text()))
        row = run_experiment(spec).rows[0]
        assert (row["n"], row["rep"]) == (300, 0)
        assert doc["abs_error"] == row["abs_error"]
        assert doc["iterations"] == row["iters"] == 1


    @pytest.mark.parametrize("estimator", ["rdiv", "trae", "dr"])
    def test_fit_json_names_the_sample_size(self, tmp_path, capsys, estimator):
        config = write_config(tmp_path, estimator=estimator, sizes=[300, 400])
        assert main(["fit", "--config", config, "--lambda", "0.05"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 300


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["experiment", "--config", "/nonexistent.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_config_that_is_not_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("dgp: npiv\n")
        assert main(["experiment", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "is not valid JSON" in err

    def test_jobs_below_1_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --jobs was checked")

        monkeypatch.setattr(cli, "run_experiment", no_work)
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", write_config(tmp_path),
                     "--out", out, "--jobs", "0"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--jobs must be at least 1" in err
        assert not (tmp_path / "run.csv").exists()

    def test_each_call_parses_on_its_own(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process; neither a call's usage
        # error nor its flags carry into the next call
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda spec, jobs: (
            calls.append((spec.seed, jobs)) or run_experiment(spec, jobs=jobs)))
        config, out = write_config(tmp_path, seed=4), str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--jobs", "two"]) == 1
        assert "invalid int value: 'two'" in capsys.readouterr().err
        assert main(["experiment", "--config", config, "--out", out,
                     "--jobs", "2", "--seed", "9"]) == 0
        assert main(["experiment", "--config", config, "--out", out]) == 0
        assert main(["report", "--record", out + ".csv"]) == 0
        assert calls == [(9, 2), (4, 1)]
        assert "rows: 4  failures: 0" in capsys.readouterr().out
        assert cli._build_parser() is cli._build_parser()

    def test_jobs_without_os_fork_is_usage_error(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.delattr(os, "fork")
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", write_config(tmp_path),
                     "--out", out, "--jobs", "2"]) == 1
        assert "usage error: --jobs 2 forks workers" in capsys.readouterr().err
        assert not Path(f"{out}.csv").exists()

    def test_bad_config_key_is_addressed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"estimator": "trae", "bogus_key": 1}))
        assert main(["experiment", "--config", str(path)]) == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_negative_lambda_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["fit", "--config", config, "--lambda", "-1"]) == 1

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, tmp_path, capsys, lam):
        config = write_config(tmp_path)
        assert main(["fit", "--config", config, "--lambda", lam]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_non_finite_strategy_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, strategies=["dp", float("nan")])
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "2"), ("--cd", "nan"), ("--max-iters", "0"),
        ("--lambda0", "inf")])
    def test_out_of_range_dp_flag_is_usage_error(self, tmp_path, capsys, flag,
                                                 value):
        assert main(["dp", "--config", write_config(tmp_path), flag, value]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--schedule", "fixed"), ("--cd", "1"), ("--lambda0", "1"),
        ("--rho", "0.7"), ("--max-iters", "5"), ("--seed", "3")])
    def test_dp_flag_without_config_is_usage_error(self, capsys, flag, value):
        # the demo problem has no spec for a flag to change
        assert main(["dp", flag, value]) == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--config" in captured.err
        assert captured.out == ""

    def test_unknown_dp_schedule_is_usage_error(self, tmp_path, capsys):
        assert main(["dp", "--config", write_config(tmp_path),
                     "--schedule", "rdiv"]) == 1
        assert "unknown schedule kind" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [None, "3"])
    @pytest.mark.parametrize("content", ["[1, 2]", "null", "5", '"abc"'])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys,
                                                         content, seed):
        path = tmp_path / "config.json"
        path.write_text(content)
        argv = ["experiment", "--config", str(path)]
        assert main(argv + (["--seed", seed] if seed else [])) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "must hold a JSON object" in err

    @pytest.mark.parametrize("key, value", [
        ("rho", 2.0), ("cd", float("nan")), ("lambda0", float("inf")),
        # sizes split cannot cut
        ("sizes", [3, 200]), ("sizes", [-5]),
        # counts that are not whole numbers
        ("reps", 2.5), ("max_iters", 2.5), ("sizes", [200.7, 300, 400]),
        # JSON true is not the number 1
        ("strategies", ["dp", True]), ("cd", True), ("lambda0", True)])
    def test_out_of_range_search_setting_is_usage_error(self, tmp_path, capsys,
                                                        key, value):
        config = write_config(tmp_path, **{key: value})
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_dgp_params_typo_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, dgp_params={"bogus": 1})
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "bogus" in err
        assert not (tmp_path / "run.csv").exists()

    @pytest.mark.parametrize("command", ["report", "rates"])
    @pytest.mark.parametrize("content, message", [
        (None, "not found"),
        ("a,b\n1,2\n", "not a run record"),
        ("n,strategy,rep,abs_error,strong_sq,weak_sq,lambda_dp,iters,wall_ms\n"
         "x,dp,0,1,1,1,1,1,1\n", "not a run record"),
        ("n,strategy,rep,abs_error,strong_sq,weak_sq,lambda_dp,iters,wall_ms\n"
         "200,dp\n", "not a run record"),
        # a config is not a record, even though it parses as a header-only CSV
        ('{"dgp": "npiv", "reps": 2}\n', "header is not")])
    def test_bad_record_is_usage_error(self, tmp_path, capsys, command,
                                       content, message):
        path = tmp_path / "record.csv"
        if content is not None:
            path.write_text(content)
        assert main([command, "--record", str(path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and message in err

    @pytest.mark.parametrize("command", ["experiment", "generate"])
    def test_out_into_a_missing_directory_is_usage_error(self, tmp_path, capsys,
                                                         monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        monkeypatch.setattr(cli, "run_experiment", no_work)
        monkeypatch.setattr(cli, "prepare_cell", no_work)
        argv = ["--config", write_config(tmp_path)]
        out = str(tmp_path / "nodir" / "run")
        assert main([command, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "nodir" in err
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("dgp", ["proxy_nc", "npiv"])
    @pytest.mark.parametrize("n", [3, 1, 0, -3])
    def test_too_few_records_is_usage_error(self, tmp_path, capsys, dgp, n):
        out = tmp_path / "data"
        config = write_config(tmp_path, dgp=dgp, sizes=[n])
        assert main(["generate", "--config", config, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "sizes must be at least 4" in err
        assert not (tmp_path / "data.csv").exists()

    def test_rates_of_fewer_than_three_sizes_is_usage_error(self, tmp_path,
                                                            capsys):
        config = write_config(tmp_path, sizes=[200, 300], reps=1)
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert main(["rates", "--record", out + ".csv"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "2 distinct n" in err

    def test_rates_of_a_header_only_record_is_usage_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "record.csv"
        RunRecord("0123456789abcdef", []).to_csv(path)
        assert main(["rates", "--record", str(path)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "has no rows" in err

    def test_rates_of_a_zero_error_curve_is_numerical_failure(self, tmp_path,
                                                               capsys):
        # a strategy whose mean abs_error is 0 has no log-log slope
        rows = [{"n": n, "strategy": strategy, "rep": 0,
                 "abs_error": 0.0 if strategy == "dp" else 1.0 / n,
                 "strong_sq": 1.0, "weak_sq": 1.0, "lambda_dp": 0.5,
                 "iters": 1, "wall_ms": 1.0}
                for n in (100, 200, 400) for strategy in ("fixed_0.01", "dp")]
        path = tmp_path / "record.csv"
        RunRecord("0123456789abcdef", rows).to_csv(path)
        assert main(["rates", "--record", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure:")
        assert "strictly positive" in captured.err
        assert "slope" not in captured.out

    @pytest.mark.parametrize("metric", ["strong_sq", "weak_sq"])
    def test_rates_of_a_metric_proxy_nc_does_not_record(self, tmp_path, capsys,
                                                        metric):
        config = write_config(tmp_path, dgp="proxy_nc", strategies=[0.01],
                              sizes=[300, 400, 500], reps=1)
        out = str(tmp_path / "run")
        assert main(["experiment", "--config", config, "--out", out]) == 0
        assert main(["rates", "--record", out + ".csv"]) == 0
        capsys.readouterr()
        assert main(["rates", "--record", out + ".csv", "--metric", metric]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and metric in err

    def test_console_script_installed(self, tmp_path):
        # The command an installer would generate from the declared entry
        # point, run the way a shell runs it: found on PATH, in a fresh
        # interpreter, judged by exit status and stderr alone.
        ep = declared_console_script()
        assert ep.load() is main

        bindir = tmp_path / "bin"
        bindir.mkdir()
        launcher = bindir / "adaptik"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            f"sys.exit({ep.attr}())\n")
        launcher.chmod(0o755)
        command = shutil.which("adaptik", path=str(bindir))
        assert command is not None

        # run the code this suite imported, installed or not
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(adaptik.__file__).parent.parent),
                        env.get("PYTHONPATH")) if p)

        def run(*args):
            return subprocess.run([command, *args], env=env, cwd=tmp_path,
                                  capture_output=True, text=True, timeout=120)

        ok = run("dp")
        assert ok.returncode == 0, ok.stderr
        # an uncaught exception also exits 1, so the message must be checked
        bad = run("frobnicate")
        assert bad.returncode == 1, bad.stderr
        assert "usage error" in bad.stderr

    @pytest.mark.skipif(
        not distribution_installed("adaptik"),
        reason="the adaptik distribution is not installed "
               "(importlib.metadata.PackageNotFoundError)")
    def test_console_script_on_path(self):
        dist = importlib.metadata.distribution("adaptik")
        installed = dist.entry_points.select(
            group="console_scripts", name="adaptik")
        assert [ep.value for ep in installed] == [declared_console_script().value]
        assert shutil.which("adaptik") is not None
