"""The experiment scripts run end to end at their smallest arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_coverage_study(tmp_path):
    lines = run_script("coverage_study.py", ["--n", "300", "--reps", "3"], tmp_path)
    assert lines[-1].startswith("reps=3 level=0.95 coverage=")
    assert "mean CI width=" in lines[-1]


def test_spectral_rates(tmp_path):
    lines = run_script(
        "spectral_rates.py",
        ["--d", "20", "--betas", "1.0", "--exponents", "3", "5", "--seeds", "2"],
        tmp_path)
    assert lines[0].split() == ["beta", "strong2", "slope", "target", "weak2",
                                "slope", "lambda", "slope", "lam", "band"]
    assert len(lines) == 2 and lines[1].split()[0] == "1.0"


@pytest.mark.parametrize("estimator", ["trae", "dr"])
def test_proxy_nc_comparison(tmp_path, estimator):
    lines = run_script(
        "proxy_nc_comparison.py",
        ["--estimators", estimator, "--sizes", "300", "--reps", "1",
         "--out", "run"],
        tmp_path)
    assert lines[0] == f"== {estimator} (written to run_{estimator}.csv)"
    assert "rows: 4  failures: 0" in lines
    assert (tmp_path / f"run_{estimator}.csv").is_file()
