"""Tests of the benchmark itself (not of adaptik).

    python3 -m pytest perfbench/tests -q

Workloads run here at reduced size (fewer reps or seeds per round), so
the tests check tracing, counts and the command's contract, not the
paper numbers, which need the full sizes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Layers each workload must exercise; together they cover every layer.
EXPECTED_LAYERS = {
    "proxy_nc_sweep": {"dgp", "sieve", "estimators", "discrepancy",
                       "functional", "harness"},
    "npiv_dr_coverage": {"dgp", "sieve", "estimators", "discrepancy",
                         "functional"},
    "spectral_rates": {"spectral"},
    "cli_sweep_jobs2": {"cli", "harness", "sieve", "estimators"},
}

EXACT_COUNTS = ("dgp.draws_per_cell", "sieve.evaluate.calls_per_cell",
                "sieve.evaluate.rows", "sieve.gram.calls", "sieve.gram.flops",
                "estimators.stage1.calls_per_cell", "estimators.fit.calls",
                "estimators.fallbacks", "dp.searches", "dp.fits_per_search",
                "dp.converged_frac", "dp.bracket_ok_frac", "spectral.selects",
                "spectral.solves_per_select", "trace.cells", "trace.spans")


def small(name):
    wl = type(workloads.WORKLOADS[name])()
    if name == "proxy_nc_sweep":
        wl.reps = 2
    elif name == "npiv_dr_coverage":
        wl.reps = 20
    elif name == "spectral_rates":
        wl.seeds = 2
        wl.trace_rounds = 1
    else:
        wl.reps = 1
    return wl


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced replays of round 0 per workload, plus the untraced round."""
    out = {}
    for name in run.NAMES:
        wl = small(name)
        ctx = wl.setup(7, tmp_path_factory.mktemp(name))
        untraced = wl.run_round(ctx, 0)
        replays = [run.traced_replay(wl, ctx, 1) for _ in range(2)]
        out[name] = (untraced, replays)
    return out


def test_every_layer_records_spans_on_its_workload(traced_twice):
    covered = set()
    for name, (_, replays) in traced_twice.items():
        tracer = replays[0][0]
        layers = {rec[0].split(".", 1)[0] for rec in tracer.spans}
        missing = EXPECTED_LAYERS[name] - layers
        assert not missing, f"{name}: no spans from {sorted(missing)}"
        covered |= layers
    assert covered == set(tracing.LAYERS)


def test_exact_counts_repeat_across_traced_runs(traced_twice):
    for name, (_, replays) in traced_twice.items():
        first, second = (tracing.layer_metrics(r[0]) for r in replays)
        for key in EXACT_COUNTS:
            assert first[key] == second[key], (name, key)


def test_traced_replay_reproduces_untraced_outputs(traced_twice):
    for name, (untraced, replays) in traced_twice.items():
        for _, rounds, _ in replays:
            assert rounds[0].output == untraced.output, name
            assert rounds[0].failed == 0, name


def test_counts_follow_the_harness_cell_structure(traced_twice):
    metrics = tracing.layer_metrics(traced_twice["proxy_nc_sweep"][1][0][0])
    # 2 estimators x 4 strategies x 2 reps, one draw per cell
    assert metrics["trace.cells"] == 16
    assert metrics["dgp.draws_per_cell"] == 1.0
    assert metrics["dp.searches"] == 4
    assert metrics["estimators.stage1.calls_per_cell"] > 1.0
    spectral = tracing.layer_metrics(traced_twice["spectral_rates"][1][0][0])
    assert spectral["spectral.selects"] == 3 * 7 * 2
    assert spectral["trace.cells"] == spectral["spectral.selects"]


def test_scaled_workloads_time_the_kernel_next_to_every_unit(traced_twice):
    npiv = traced_twice["npiv_dr_coverage"][0]
    assert len(npiv.unit_rates) == len(npiv.kernel_s) == npiv.cells // 10
    spectral = traced_twice["spectral_rates"][0]
    assert len(spectral.unit_rates) == len(spectral.kernel_s) == 1
    assert spectral.unit_rates[0] == pytest.approx(reference.scaled_rate(
        spectral.cells, spectral.seconds, spectral.kernel_s[0]))
    assert traced_twice["proxy_nc_sweep"][0].unit_rates == []
    rounds = [workloads.Round(10, 0, 2.0, None),
              workloads.Round(10, 0, 1.0, None, unit_rates=[7.0, 9.0])]
    assert run.unit_rates(rounds) == [5.0, 7.0, 9.0]
    assert reference.scaled_rate(10, 2.0, 2 * reference.NOMINAL_S) == 10.0


def test_install_patches_every_alias_and_uninstall_restores():
    import adaptik
    from adaptik import cli, estimators, functional, harness, sieve

    originals = (harness.run_dp, functional.trae_fit, estimators.empirical_gram,
                 cli.run_experiment, adaptik.run_dp, sieve.SieveBasis.evaluate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from adaptik import dgp, discrepancy

        assert harness.run_dp is discrepancy.run_dp
        assert harness.gen_proxy_nc is dgp.gen_proxy_nc
        assert functional.trae_fit is estimators.trae_fit
        assert functional.trae_dual_fit is estimators.trae_dual_fit
        assert estimators.empirical_gram is sieve.empirical_gram
        assert cli.run_experiment is harness.run_experiment
        assert adaptik.run_dp is discrepancy.run_dp
        for wrapped in (harness.run_dp, functional.trae_fit,
                        estimators.empirical_gram, cli.run_experiment,
                        sieve.SieveBasis.evaluate):
            assert hasattr(wrapped, "__wrapped__")
    finally:
        tracer.uninstall()
    assert (harness.run_dp, functional.trae_fit, estimators.empirical_gram,
            cli.run_experiment, adaptik.run_dp,
            sieve.SieveBasis.evaluate) == originals


def test_benchmark_json_matches_the_emitted_metrics(traced_twice):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    emitted = tracing.layer_metrics(traced_twice["spectral_rates"][1][0][0])
    emitted.update({"harness.jobs2_speedup": 0.0, "trace.overhead_frac": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.unit_of(name) for name in emitted}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral_rates",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
