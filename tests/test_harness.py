import ctypes
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from folds import fold_system

from adaptik import harness
from adaptik.dgp import gen_proxy_nc
from adaptik.discrepancy import DpConfig, NoiseSchedule, run_dp
from adaptik.estimators import (
    RdivEstimator,
    TikhonovSystem,
    TraeEstimator,
    outcome_moment,
    trae_dual_fit,
    trae_fit,
)
from adaptik.functional import (
    DrEvaluation,
    DrFold,
    DrPipelineConfig,
    adaptive_dr_pipeline,
    split,
)
from adaptik.harness import (
    ExperimentSpec,
    RunRecord,
    fit_rate,
    fit_rate_by_strategy,
    report_text,
    run_experiment,
    strategy_label,
)
from adaptik.sieve import Dataset, SieveBasis, empirical_gram


def cell_handle(spec, cell):
    """The rdiv or trae handle of a cell, built here as the paper states
    the estimators: RDIV over basis_x, TRAE of the outcome moment over
    basis_x against basis_z."""
    if spec.estimator == "rdiv":
        return RdivEstimator(cell.basis_x)
    return TraeEstimator(outcome_moment(), cell.basis_x, cell.basis_z)


def cell_dr_config(spec, cell):
    """The DR pipeline of a cell: h over basis_x against basis_z, q over
    basis_z against basis_x, both tuned by the spec's search."""
    return DrPipelineConfig(
        basis_h=cell.basis_x, basis_f=cell.basis_z,
        basis_q=cell.basis_z, basis_s=cell.basis_x,
        outcome_moment=outcome_moment(), target_moment=cell.target,
        dp_primal=spec.dp_config(), dp_dual=spec.dp_config(),
        split_plan=cell.split_plan)


def tiny_spec(**overrides):
    base = dict(
        dgp="npiv",
        estimator="trae",
        strategies=("dp", 0.0, 0.01),
        sizes=(200,),
        reps=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_round_trip(self):
        spec = tiny_spec()
        back = ExperimentSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.spec_hash() == spec.spec_hash()

    def test_hash_ignores_the_output_path(self):
        # the output path draws no data: specs that differ only in it
        # share a hash, and a spec without one keeps its earlier hash
        assert ExperimentSpec().spec_hash() == "7814eb39849efb7f"
        assert ExperimentSpec(out="a/b").spec_hash() == "7814eb39849efb7f"
        assert tiny_spec(out="x").spec_hash() == tiny_spec().spec_hash()
        assert tiny_spec(seed=6).spec_hash() != tiny_spec().spec_hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentSpec.from_dict({"bogus": 1})

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(estimator="nope")
        with pytest.raises(ValueError):
            tiny_spec(sizes=())
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite nonnegative"):
                tiny_spec(strategies=("dp", bad))
        with pytest.raises(ValueError):
            tiny_spec(reps=0)
        # split needs at least 4 records
        for sizes in ((3,), (0,), (-5,)):
            with pytest.raises(ValueError, match="at least 4"):
                tiny_spec(sizes=sizes)
        # counts are whole numbers; 200.0 is 200, but 200.7 is not 200
        for key, bad in (("reps", 2.5), ("reps", True), ("reps", "3"),
                         ("sizes", (200.7, 300)), ("sizes", (True, 300))):
            with pytest.raises(ValueError, match="whole numbers"):
                tiny_spec(**{key: bad})
        # the seed too: "3" would hash apart from 3 and draw other data
        for bad in ("3", True, None, 1.5):
            with pytest.raises(ValueError, match="seed must be whole"):
                tiny_spec(seed=bad)
        assert tiny_spec(seed=5.0).spec_hash() == tiny_spec().spec_hash()
        with pytest.raises(ValueError, match="out must be a path string"):
            tiny_spec(out=5)
        spec = tiny_spec(reps=2.0, sizes=(200.0, 300))
        assert (spec.reps, spec.sizes) == (2, (200, 300))
        assert type(spec.reps) is int
        assert tiny_spec(max_iters=20.0).max_iters == 20
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="max_iters must be whole"):
                tiny_spec(max_iters=bad)
        for bad in (2.5, 20.0, True):
            with pytest.raises(ValueError, match="max_iters must be an int"):
                DpConfig(NoiseSchedule("fixed", 1.0), max_iters=bad)
        # a bool is not a number, though it compares like 0 or 1
        for key, bad, match in (("strategies", ("dp", True), "strategy must"),
                                ("strategies", ("dp", False), "strategy must"),
                                ("cd", True, "c_d must"),
                                ("lambda0", True, "lambda0 must")):
            with pytest.raises(ValueError, match=match):
                tiny_spec(**{key: bad})
        with pytest.raises(ValueError, match="c_d must"):
            NoiseSchedule("fixed", True)
        with pytest.raises(ValueError, match="lambda0 must"):
            DpConfig(NoiseSchedule("fixed", 1.0), lambda0=True)

    @pytest.mark.parametrize("key, value", [
        ("rho", 2.0), ("cd", math.nan), ("lambda0", math.inf),
        ("max_iters", 0), ("schedule_kind", "bogus")])
    def test_search_settings_checked_at_construction(self, key, value):
        with pytest.raises(ValueError):
            tiny_spec(**{key: value})

    @pytest.mark.parametrize("key, values, dup", [
        ("sizes", (300, 300), "300"), ("sizes", (200, 300, 200.0), "200"),
        ("strategies", ("dp", 0.01, "dp"), "'dp'"),
        ("strategies", ("dp", 0, 0.0), "0.0")])
    def test_duplicates_rejected_at_construction(self, key, values, dup):
        # a copy would be counted as another rep by report and aggregate
        with pytest.raises(ValueError, match=f"^{key} lists {dup} twice$"):
            tiny_spec(**{key: values})

    @pytest.mark.parametrize("dgp, params", [
        ("npiv", {"bogus": 1}), ("proxy_nc", {"master_seed": 1, "bogus": 1})])
    def test_dgp_params_checked_at_construction(self, monkeypatch, dgp, params):
        def no_draw(*args, **kwargs):
            raise AssertionError("data drawn for an invalid spec")

        monkeypatch.setattr(harness, "gen_npiv", no_draw)
        monkeypatch.setattr(harness, "gen_proxy_nc", no_draw)
        with pytest.raises(TypeError, match="bogus"):
            tiny_spec(dgp=dgp, dgp_params=params)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sweep_builds_no_search_config(self, monkeypatch, jobs):
        # the spec's DpConfig, built once, serves every row
        spec = tiny_spec(reps=1)

        def no_config(*args, **kwargs):
            raise AssertionError("DpConfig built during the sweep")

        monkeypatch.setattr(harness, "DpConfig", no_config)
        record = run_experiment(spec, jobs=jobs)
        assert not record.failures and len(record.rows) == 3

    def test_default_schedules(self):
        assert tiny_spec(estimator="rdiv").schedule().kind == "rdiv_sqrt"
        assert tiny_spec(estimator="rdiv").schedule().c_d == 30.0
        assert tiny_spec(estimator="trae").schedule().c_d == 15.0
        assert tiny_spec(schedule_kind="fixed", cd=0.5).schedule().kind == "fixed"

    def test_strategy_labels(self):
        assert strategy_label("dp") == "dp"
        assert strategy_label(0.0) == "fixed_0.0"
        assert strategy_label(0.01) == "fixed_0.01"


class TestRunExperiment:
    def test_row_count_and_columns(self):
        spec = tiny_spec(strategies=(0.01,), reps=1)
        record = run_experiment(spec)
        assert len(record.rows) == 1
        row = record.rows[0]
        assert row["strategy"] == "fixed_0.01"
        assert row["lambda_dp"] == 0.01
        assert row["iters"] == 1
        assert row["abs_error"] >= 0.0

    def test_full_grid_row_count(self):
        spec = tiny_spec(sizes=(100, 200), strategies=("dp", 0.0), reps=3)
        record = run_experiment(spec)
        assert len(record.rows) == 2 * 2 * 3
        assert not record.failures

    def test_rerun_is_identical(self, tmp_path):
        spec = tiny_spec()
        r1 = run_experiment(spec)
        r2 = run_experiment(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.to_csv(p1)
        r2.to_csv(p2)
        # identical up to the wall_ms column (last)
        a = [",".join(line.split(",")[:-1]) for line in p1.read_text().splitlines()]
        b = [",".join(line.split(",")[:-1]) for line in p2.read_text().splitlines()]
        assert a == b

    def test_npiv_rows_carry_metrics(self):
        spec = tiny_spec(strategies=(0.01,), reps=1)
        record = run_experiment(spec)
        row = record.rows[0]
        assert math.isfinite(row["strong_sq"]) and row["strong_sq"] >= 0.0
        assert math.isfinite(row["weak_sq"]) and row["weak_sq"] >= 0.0
        assert row["weak_sq"] <= row["strong_sq"] + 1e-12

    def test_proxy_rows_have_nan_metrics(self):
        spec = tiny_spec(dgp="proxy_nc", sizes=(300,), strategies=(0.01,), reps=1)
        record = run_experiment(spec)
        assert math.isnan(record.rows[0]["strong_sq"])

    def test_dr_estimator_runs(self):
        spec = tiny_spec(estimator="dr", sizes=(300,), strategies=("dp", 0.01),
                         reps=1)
        record = run_experiment(spec)
        assert len(record.rows) == 2
        assert not record.failures

    def test_parallel_matches_serial(self):
        spec = tiny_spec(sizes=(150,), reps=3)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            for key in ("n", "strategy", "rep", "abs_error", "strong_sq",
                        "weak_sq", "lambda_dp", "iters"):
                assert a[key] == b[key] or (
                    isinstance(a[key], float) and math.isnan(a[key])
                    and math.isnan(b[key])
                )

    @pytest.mark.parametrize("sizes, reps, workers", [
        ((150,), 2, [1]), ((150, 100), 1, [1]), ((150,), 1, []),
        ((150, 100, 120), 2, [2, 1, 1])])
    def test_pool_starts_no_idle_worker(self, monkeypatch, sizes, reps,
                                        workers):
        # at jobs=4, min(4, units) - 1 workers, as the caller runs a share,
        # and none for a single (n, rep); `workers` lists the units each
        # worker is given (6 units: the caller runs 2).  The fake pool runs
        # in-process, so no process starts, and the rows equal jobs=1's
        events = []
        monkeypatch.setattr(harness, "_ForkedWorkers",
                            lambda: InProcessPool(events))
        spec = tiny_spec(sizes=sizes, reps=reps, strategies=("dp", 0.01))
        record = run_experiment(spec, jobs=4)
        assert events == [("submit", units) for units in workers]
        assert _row_cells(record.rows) == _row_cells(
            run_experiment(spec, jobs=1).rows)

    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_real_pool_rows_equal_jobs_1_on_uneven_sizes(self, jobs):
        # jobs=5 runs more processes than a 2-core host has cores
        spec = tiny_spec(sizes=(120, 300, 200), reps=2)
        record = run_experiment(spec, jobs=jobs)
        assert not record.failures
        assert _row_cells(record.rows) == _row_cells(
            run_experiment(spec, jobs=1).rows)

    @pytest.mark.parametrize("jobs", [2, 3, 5])
    def test_every_unit_runs_exactly_once(self, monkeypatch, tmp_path, jobs):
        # the caller and each worker log "pid n rep" per unit they run
        spec = tiny_spec(sizes=(150, 100, 120), reps=4, strategies=(0.01,))
        clean = run_experiment(spec)
        log, run_rep = tmp_path / "units", harness._run_rep

        def run(payload):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{os.getpid()} {payload[1]} {payload[2]}\n".encode())
            os.close(fd)
            return run_rep(payload)

        monkeypatch.setattr(harness, "_run_rep", run)
        record = run_experiment(spec, jobs=jobs)
        lines = [line.split() for line in log.read_text().splitlines()]
        assert sorted((int(n), int(rep)) for _, n, rep in lines) == sorted(
            (n, rep) for n in spec.sizes for rep in range(4))
        assert len({pid for pid, _, _ in lines}) == jobs
        assert _row_cells(record.rows) == _row_cells(clean.rows)
        assert _no_child_left()

    @pytest.mark.parametrize("jobs, message", [
        (0, "at least 1"), (-3, "at least 1"), (1.5, "whole numbers"),
        (True, "whole numbers"), (False, "whole numbers"),
        ("2", "whole numbers"), (None, "whole numbers")])
    def test_jobs_must_be_a_whole_number_of_at_least_1(self, monkeypatch, jobs,
                                                       message):
        def no_draw(*args, **kwargs):
            raise AssertionError("data drawn for an invalid jobs")

        monkeypatch.setattr(harness, "gen_npiv", no_draw)
        with pytest.raises(ValueError, match=f"^jobs must be {message}"):
            run_experiment(tiny_spec(), jobs=jobs)

    def test_csv_round_trip_and_aggregation(self, tmp_path):
        spec = tiny_spec(reps=3)
        record = run_experiment(spec)
        path = tmp_path / "run.csv"
        record.to_csv(path)
        back = RunRecord.from_csv(path)
        assert back.spec_hash == record.spec_hash
        assert len(back.rows) == len(record.rows)
        for a, b in zip(back.rows, record.rows):
            assert a["abs_error"] == b["abs_error"]
        # aggregation equals independent recomputation
        agg = back.aggregate()
        for cell in agg:
            rows = [r for r in back.rows
                    if r["n"] == cell["n"] and r["strategy"] == cell["strategy"]]
            errs = np.array([r["abs_error"] for r in rows])
            assert cell["mean_abs_error"] == pytest.approx(errs.mean(), abs=1e-12)
            assert cell["se_abs_error"] == pytest.approx(
                errs.std(ddof=1) / math.sqrt(len(errs)), abs=1e-12
            )

    def test_aggregation_is_bit_identical_per_group_on_uneven_groups(self):
        # groups of 1, 2, 3, 9 and 130 rows, a NaN column and signed
        # zeros: every statistic equals the group's own 1-d reduction
        rng = np.random.default_rng(5)
        rows = []
        for n, strategy, count in ((100, "dp", 3), (100, "fixed_0.1", 1),
                                   (200, "dp", 9), (200, "fixed_0.1", 130),
                                   (300, "dp", 2), (300, "fixed_0.1", 3)):
            for rep in range(count):
                rows.append({"n": n, "strategy": strategy, "rep": rep,
                             "abs_error": abs(rng.standard_normal()) * 1e3,
                             "strong_sq": float("nan"),
                             "weak_sq": rng.choice([0.0, -0.0, 1e-300]),
                             "lambda_dp": float(rng.random()),
                             "iters": int(rng.integers(0, 40)), "wall_ms": 1.0})
        cells = RunRecord("h", rows).aggregate()
        assert [(c["n"], c["strategy"]) for c in cells] == [
            (100, "dp"), (100, "fixed_0.1"), (200, "dp"), (200, "fixed_0.1"),
            (300, "dp"), (300, "fixed_0.1")]
        for cell in cells:
            group = [r for r in rows if (r["n"], r["strategy"])
                     == (cell["n"], cell["strategy"])]
            col = {c: np.array([r[c] for r in group]) for c in group[0]}
            errs = col["abs_error"]
            expected = {
                "n": cell["n"], "strategy": cell["strategy"], "reps": len(group),
                "mean_abs_error": float(errs.mean()),
                "se_abs_error": float(errs.std(ddof=1) / math.sqrt(len(errs)))
                if len(errs) > 1 else 0.0,
                "median_abs_error": float(np.median(errs)),
                "mean_lambda_dp": float(col["lambda_dp"].mean()),
                "median_lambda_dp": float(np.median(col["lambda_dp"])),
                "mean_iters": float(col["iters"].mean()),
                "mean_strong_sq": float(col["strong_sq"].mean()),
                "mean_weak_sq": float(col["weak_sq"].mean()),
            }
            assert repr(cell) == repr(expected)

    def test_report_text_mentions_all_strategies(self):
        record = run_experiment(tiny_spec())
        text = report_text(record)
        for label in ("dp", "fixed_0.0", "fixed_0.01"):
            assert label in text


def _cell_ids(rows):
    return [(r["n"], r["strategy"], r["rep"]) for r in rows]


class TestPerRepContract:
    """One task per (n, rep): shared set-up, per-strategy rows."""

    def test_failed_solve_fails_only_its_row(self, monkeypatch):
        spec = tiny_spec()
        clean = run_experiment(spec)
        solve = TikhonovSystem.solve
        calls = []

        def flaky(self, lam):
            if lam == 0.01:
                calls.append(lam)
                if len(calls) == 2:  # the fixed_0.01 solve of rep 1
                    raise FloatingPointError("injected")
            return solve(self, lam)

        monkeypatch.setattr(TikhonovSystem, "solve", flaky)
        record = run_experiment(spec)
        assert _cell_ids(record.failures) == [(200, "fixed_0.01", 1)]
        assert record.failures[0]["error"] == "FloatingPointError: injected"
        kept = [r for r in clean.rows
                if (r["strategy"], r["rep"]) != ("fixed_0.01", 1)]
        assert _cell_ids(record.rows) == _cell_ids(kept)
        for a, b in zip(record.rows, kept):
            assert a["abs_error"] == b["abs_error"]
            assert a["lambda_dp"] == b["lambda_dp"]

    def test_failed_setup_fails_every_strategy_of_the_rep(self, monkeypatch):
        spec = tiny_spec(sizes=(150, 200))
        clean = run_experiment(spec)
        prepare = harness.prepare_cell

        def flaky(spec, n, rep):
            if (n, rep) == (150, 1):
                raise ValueError("injected draw failure")
            return prepare(spec, n, rep)

        monkeypatch.setattr(harness, "prepare_cell", flaky)
        record = run_experiment(spec)
        assert _cell_ids(record.failures) == [
            (150, label, 1) for label in ("dp", "fixed_0.0", "fixed_0.01")]
        assert all(f["error"] == "ValueError: injected draw failure"
                   for f in record.failures)
        kept = [r for r in clean.rows if (r["n"], r["rep"]) != (150, 1)]
        assert _cell_ids(record.rows) == _cell_ids(kept)
        assert [r["abs_error"] for r in record.rows] == [
            r["abs_error"] for r in kept]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_come_back_in_n_strategy_rep_order(self, jobs):
        spec = tiny_spec(sizes=(150, 100), strategies=(0.01, "dp"), reps=3)
        record = run_experiment(spec, jobs=jobs)
        assert not record.failures
        assert _cell_ids(record.rows) == [
            (n, label, rep) for n in (150, 100)
            for label in ("fixed_0.01", "dp") for rep in range(3)]


class TestSharedFits:
    @pytest.mark.parametrize("estimator", ["rdiv", "trae"])
    @pytest.mark.parametrize("dgp", ["npiv", "proxy_nc"])
    def test_system_from_the_cell_gram_is_the_handles_own(self, dgp, estimator):
        # the system the rep's fitter solves, factored from prepare_cell's
        # stacked Gram, has the bits of the one the handle builds from the
        # fit fold itself
        spec = tiny_spec(dgp=dgp, estimator=estimator)
        cell = harness.prepare_cell(spec, spec.sizes[0], 0)
        handle = cell_handle(spec, cell)
        shared = handle.system_from(cell.fit_gram)
        own = fold_system(handle, cell.fit_fold, cell.basis_z)
        for name in ("vecs", "mu", "p", "l_min", "floor"):
            assert np.array_equal(getattr(shared, name), getattr(own, name)), name
        assert (shared.adversary is None) == (own.adversary is None)
        for a, b in zip(shared.adversary or (), own.adversary or ()):
            assert np.array_equal(a, b)


def _expected_row(spec, cell, strategy, rep, theta, coeffs, lam, iters):
    """The sweep row of a strategy's estimate theta and h coefficients."""
    npiv = spec.dgp == "npiv"
    return {
        "n": cell.data.n, "strategy": strategy_label(strategy), "rep": rep,
        "abs_error": abs(theta - cell.theta0),
        "strong_sq": cell.truth.strong_sq(coeffs) if npiv else math.nan,
        "weak_sq": cell.truth.weak_sq(coeffs) if npiv else math.nan,
        "lambda_dp": lam, "iters": iters,
    }


class TestDrRows:
    """A dr rep shares its systems and eval matrices across strategies."""

    @staticmethod
    def _pipeline_rows(spec):
        """The rows of calling adaptive_dr_pipeline once per DP strategy,
        and the public fit and estimate steps once per fixed lambda."""
        rows = []
        for n in spec.sizes:
            for strategy in spec.strategies:
                for rep in range(spec.reps):
                    cell = harness.prepare_cell(spec, n, rep)
                    config = cell_dr_config(spec, cell)
                    if strategy == "dp":
                        result = adaptive_dr_pipeline(cell.data, config)
                        theta = result.estimate.theta_hat
                        coeffs = result.h_fit.coeffs
                        lam = result.dp_primal.lambda_dp
                        iters = (result.dp_primal.iterations
                                 + result.dp_dual.iterations)
                    else:
                        fit_fold, eval_fold = split(cell.data, config.split_plan)
                        h_fit = trae_fit(fit_fold, config.outcome_moment,
                                         config.basis_h, config.basis_f, strategy)
                        q_fit = trae_dual_fit(fit_fold, config.target_moment,
                                              config.basis_q, config.basis_s,
                                              strategy)
                        theta = DrEvaluation.of(
                            eval_fold, config.basis_h, config.basis_q,
                            config.target_moment, config.outcome_moment,
                        ).estimate(h_fit, q_fit).theta_hat
                        coeffs, lam, iters = h_fit.coeffs, strategy, 1
                    rows.append(_expected_row(spec, cell, strategy, rep, theta,
                                              coeffs, lam, iters))
        return rows

    @pytest.mark.parametrize("dgp, jobs", [("npiv", 1), ("npiv", 2), ("proxy_nc", 1)])
    def test_rows_equal_the_pipeline_per_strategy(self, dgp, jobs):
        spec = tiny_spec(dgp=dgp, estimator="dr", sizes=(300,),
                         strategies=("dp", 0.0, 0.01), reps=2)
        record = run_experiment(spec, jobs=jobs)
        assert not record.failures

        def cells(rows):
            return [[repr(r[c]) for c in harness.CSV_COLUMNS if c != "wall_ms"]
                    for r in rows]

        assert cells(record.rows) == cells(self._pipeline_rows(spec))


class TestPlugInRows:
    """An rdiv or trae rep's rows are its fold system's, tuned per strategy
    and averaged over the eval fold's target matrix."""

    @staticmethod
    def _public_rows(spec):
        """The rows of fold_system on the fit fold's records, run_dp per
        DP strategy or one solve per fixed lambda, and the mean of the
        eval fold's target moment."""
        rows = []
        for n in spec.sizes:
            for strategy in spec.strategies:
                for rep in range(spec.reps):
                    cell = harness.prepare_cell(spec, n, rep)
                    system = fold_system(cell_handle(spec, cell),
                                         cell.fit_fold, cell.basis_z)
                    if strategy == "dp":
                        outcome = run_dp(system, cell.fit_fold.n,
                                         spec.dp_config())
                        fit, iters = outcome.fit, outcome.iterations
                    else:
                        fit, iters = system.solve(strategy), 1
                    eval_fold = cell.eval_fold
                    target = cell.target.matrix(eval_fold.x, eval_fold.y,
                                                cell.basis_x)
                    theta = float((target @ fit.coeffs).mean())
                    rows.append(_expected_row(spec, cell, strategy, rep, theta,
                                              fit.coeffs, fit.lam, iters))
        return rows

    @pytest.mark.parametrize("estimator", ["rdiv", "trae"])
    @pytest.mark.parametrize("dgp, jobs", [("npiv", 1), ("npiv", 2), ("proxy_nc", 1)])
    def test_rows_equal_the_public_steps_per_strategy(self, dgp, jobs, estimator):
        spec = tiny_spec(dgp=dgp, estimator=estimator, sizes=(300,),
                         strategies=("dp", 0.0, 0.01), reps=2)
        record = run_experiment(spec, jobs=jobs)
        assert not record.failures
        assert _row_cells(record.rows) == _row_cells(self._public_rows(spec))


def _numpy_openblas_get():
    """Thread-count getter of numpy's OpenBLAS, found among the libraries
    mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        pytest.skip("/proc/self/maps is not readable, so the mapped "
                    "libraries cannot be listed")
    for line in maps.splitlines():
        path = Path(line.split()[-1])
        if path.parent.name == "numpy.libs" and "openblas" in path.name:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            getter = lib.scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            return getter
    pytest.skip("numpy's OpenBLAS is not mapped into this process")


def _mapped_openblas_threads() -> int:
    """Thread count of numpy's OpenBLAS, read apart from harness's lookup."""
    return _numpy_openblas_get()()


def _thread_ids() -> set:
    """Ids of the threads of this process."""
    try:
        return set(os.listdir("/proc/self/task"))
    except OSError:
        pytest.skip("/proc/self/task is not readable, so the threads of "
                    "this process cannot be listed")


def _new_threads(before: set) -> set:
    """Ids of this process's threads not in `before`.  A sweep starts no
    thread: its workers are forked processes, reaped before it returns,
    so any new thread is one that stays, such as a parked OpenBLAS
    worker."""
    return _thread_ids() - before


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS set to 2 threads; the old count comes back after."""
    saved = harness._BLAS_GET()
    harness._BLAS_SET(2)
    yield
    harness._BLAS_SET(saved)


class TestOneBlasThread:
    def test_every_mapped_copy_reads_one_inside(self, two_blas_threads):
        # only numpy's copy is pinned; scipy's, mapped here by the tests'
        # own scipy import, is not adaptik's
        assert _mapped_openblas_threads() == 2
        with harness._one_blas_thread():
            assert _mapped_openblas_threads() == 1
        assert _mapped_openblas_threads() == 2

    def test_counts_restored_when_the_body_raises(self, two_blas_threads):
        before = _mapped_openblas_threads()
        with pytest.raises(KeyError):
            with harness._one_blas_thread():
                raise KeyError("body failed")
        assert _mapped_openblas_threads() == before
        run_experiment(tiny_spec(strategies=(0.01,), reps=1))
        assert _mapped_openblas_threads() == before

    def test_a_forked_worker_reads_one_thread(self, two_blas_threads,
                                              monkeypatch):
        # the worker sets no count itself: it runs on the pin it inherits,
        # and the caller runs its own share on the same pin
        _tag_rows(monkeypatch, _mapped_openblas_threads)
        record = run_experiment(tiny_spec(strategies=(0.01,)), jobs=2)
        assert _tags(record.rows, worker=True) == [1]
        assert _tags(record.rows, worker=False) == [1]
        assert _mapped_openblas_threads() == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_later_sweep_looks_up_no_library(self, two_blas_threads,
                                               monkeypatch, jobs):
        # numpy's OpenBLAS is looked up once per process, at import, so
        # neither the caller nor a forked worker opens a library
        get = _numpy_openblas_get()
        run_experiment(tiny_spec(strategies=(0.01,), reps=1))

        def no_lookup(*args, **kwargs):
            raise AssertionError("ctypes.CDLL called during a sweep")

        _tag_rows(monkeypatch, get)
        with monkeypatch.context() as patch:
            patch.setattr(ctypes, "CDLL", no_lookup)
            record = run_experiment(tiny_spec(strategies=(0.01,)), jobs=jobs)
        assert not record.failures
        assert _tags(record.rows, worker=False) == [1]
        assert _tags(record.rows, worker=True) == ([1] if jobs > 1 else [])
        assert get() == 2

    def test_no_thread_outlives_a_pool_run(self, two_blas_threads):
        # a fork stops OpenBLAS's thread pool and a later set-count call
        # would start one whose idle threads spin in the caller
        before = _thread_ids()
        counts = _mapped_openblas_threads()
        run_experiment(tiny_spec(strategies=(0.01,), reps=2), jobs=2)
        assert not _new_threads(before)
        assert _mapped_openblas_threads() == counts
        a = np.random.default_rng(0).standard_normal((4000, 60))
        assert np.allclose(a.T @ a, np.einsum("ij,ik->jk", a, a))


def _no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _share_that_fails_in_a_worker(monkeypatch, fail):
    """harness._run_share, but a forked worker calls fail() instead."""
    parent, run_share = os.getpid(), harness._run_share
    monkeypatch.setattr(harness, "_run_share", lambda payloads: (
        run_share(payloads) if os.getpid() == parent else fail()))


def _tag_rows(monkeypatch, tag):
    """harness._run_share, but every row carries tag(), taken in the
    process that ran its share, under "tag", and under "worker" whether
    that process was a forked worker."""
    parent, run_share = os.getpid(), harness._run_share

    def share(payloads):
        done = run_share(payloads)
        worker = os.getpid() != parent
        return [[{**row, "tag": tag(), "worker": worker} for row in rows]
                for rows in done]

    monkeypatch.setattr(harness, "_run_share", share)


def _tags(rows, worker: bool) -> list:
    """The distinct tags of the rows _tag_rows made in workers, or in the
    caller."""
    tags = []
    for row in rows:
        if row.get("worker") is worker and row["tag"] not in tags:
            tags.append(row["tag"])
    return tags


class TestForkedWorkers:
    def test_a_worker_that_raises_fails_the_sweep_with_its_traceback(
            self, monkeypatch):
        def fail():
            raise ZeroDivisionError("share failed in the worker")

        _share_that_fails_in_a_worker(monkeypatch, fail)
        with pytest.raises(RuntimeError, match=r"sweep worker pid \d+ failed "
                           r"\(wait status 256, exit code 1\)") as info:
            run_experiment(tiny_spec(strategies=(0.01,)), jobs=2)
        assert "ZeroDivisionError: share failed in the worker" in str(info.value)
        assert "Traceback" in str(info.value)
        assert _no_child_left()

    def test_a_worker_that_exits_fails_the_sweep(self, monkeypatch):
        _share_that_fails_in_a_worker(monkeypatch, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match=r"sweep worker pid \d+ failed "
                           r"\(wait status 768, exit code 3\), sending no rows"):
            run_experiment(tiny_spec(strategies=(0.01,)), jobs=2)
        assert _no_child_left()

    def test_workers_are_killed_when_the_caller_fails(self, monkeypatch):
        # the workers would sleep for a minute; the caller's own share
        # raises, so they are killed and reaped, not waited for
        parent = os.getpid()

        def share(payloads):
            if os.getpid() == parent:
                raise KeyError("the caller's share failed")
            time.sleep(60)

        monkeypatch.setattr(harness, "_run_share", share)
        start = time.monotonic()
        with pytest.raises(KeyError, match="the caller's share failed"):
            run_experiment(tiny_spec(strategies=(0.01,), sizes=(150, 100)),
                           jobs=3)
        assert time.monotonic() - start < 30
        assert _no_child_left()

    def test_a_fork_that_fails_closes_its_pipe(self, monkeypatch):
        # the second fork fails as under a process limit: its pipe is
        # closed and the first worker is killed and reaped
        fork, forks = os.fork, []

        def fork_once():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        fds = set(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            run_experiment(tiny_spec(strategies=(0.01,), sizes=(150, 100)),
                           jobs=3)
        assert set(os.listdir("/proc/self/fd")) == fds
        assert _no_child_left()

    def test_no_child_is_left_after_a_sweep(self):
        record = run_experiment(tiny_spec(strategies=(0.01,), reps=3), jobs=3)
        assert len(record.rows) == 3
        assert _no_child_left()

    def test_jobs_2_needs_os_fork(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("data drawn for jobs the platform cannot fork")

        monkeypatch.delattr(os, "fork")
        with monkeypatch.context() as patch:
            patch.setattr(harness, "gen_npiv", no_draw)
            with pytest.raises(ValueError, match="no os.fork; use jobs=1"):
                run_experiment(tiny_spec(), jobs=2)
        assert len(run_experiment(tiny_spec(), jobs=1).rows) == 6

    def test_buffered_output_is_written_once(self):
        # a line the caller buffered before the fork, on stdout and
        # stderr alike, is written by the caller alone
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)  # so both streams buffer
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(harness.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _PRINT_THEN_SWEEP],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("buffered before the sweep") == 1
        assert proc.stdout.count("rows: 6") == 1
        assert proc.stderr.count("partial stderr line") == 1


_PRINT_THEN_SWEEP = """
import sys
from adaptik.harness import ExperimentSpec, run_experiment

print("buffered before the sweep")
sys.stderr.write("partial stderr line")
spec = ExperimentSpec(dgp="npiv", estimator="trae", strategies=(0.01,),
                      sizes=(150, 100, 120), reps=2, seed=5)
print("rows:", len(run_experiment(spec, jobs=2).rows))
"""


class InProcessPool:
    """Stands in for harness._ForkedWorkers: logs ("submit", units) to
    `events`, and runs a share in-process when its result is asked for."""

    def __init__(self, events):
        self.events = events
        self.shares = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, payloads):
        self.events.append(("submit", len(payloads)))
        self.shares.append(payloads)
        return len(self.shares) - 1

    def result(self, task):
        return harness._run_share(self.shares[task])


def _row_cells(rows):
    return [[repr(r[c]) for c in harness.CSV_COLUMNS if c != "wall_ms"]
            for r in rows]


class TestThreadCountIndependence:
    """Gram blocks from one SYRK, and the systems factored from them, have
    the same bits under one and two OpenBLAS threads; a GEMM cross
    product over m >= 1000 rows does not."""

    def test_dr_rows_at_n_2000_equal_the_pipeline_at_two_threads(
            self, two_blas_threads):
        # the sweep pins one thread; the public steps run at two
        assert _mapped_openblas_threads() == 2
        spec = _proxy_spec(estimator="dr", sizes=(2000,), reps=1)
        record = run_experiment(spec)
        assert not record.failures
        assert _mapped_openblas_threads() == 2
        assert _row_cells(record.rows) == _row_cells(
            TestDrRows._pipeline_rows(spec))

    @pytest.mark.parametrize("estimator", ["rdiv", "trae"])
    def test_systems_at_n_2000_are_bit_identical(self, two_blas_threads,
                                                 estimator):
        assert _mapped_openblas_threads() == 2
        spec = _proxy_spec(estimator=estimator, sizes=(2000,))
        cell = harness.prepare_cell(spec, 2000, 0)
        handle = cell_handle(spec, cell)
        two = fold_system(handle, cell.fit_fold, cell.basis_z)
        with harness._one_blas_thread():
            one = fold_system(handle, cell.fit_fold, cell.basis_z)
        for name in ("vecs", "mu", "p", "l_min", "floor"):
            assert np.array_equal(getattr(one, name), getattr(two, name)), name
        for a, b in zip(one.adversary or (), two.adversary or ()):
            assert np.array_equal(a, b)
        assert np.array_equal(one.solve(0.01).coeffs, two.solve(0.01).coeffs)


def _proxy_spec(**overrides):
    return tiny_spec(**{"dgp": "proxy_nc", "sizes": (400,),
                        "strategies": ("dp", 0.0, 0.01), **overrides})


class TestProxyRep:
    @pytest.mark.parametrize("estimator", ["rdiv", "trae"])
    def test_four_basis_evaluations_per_rep(self, monkeypatch, estimator):
        # basis_x(x) and basis_z(z) of the fit fold while normalizing,
        # which the system reuses, then basis_x at the treated and the
        # untreated eval-fold points for the target moment
        shapes = []
        evaluate = SieveBasis.evaluate

        def counting(self, points):
            shapes.append(points.shape)
            return evaluate(self, points)

        monkeypatch.setattr(SieveBasis, "evaluate", counting)
        record = run_experiment(_proxy_spec(estimator=estimator, reps=1))
        assert not record.failures
        assert shapes == [(200, 17), (200, 31), (200, 17), (200, 17)]

    def test_eight_basis_evaluations_per_dr_rep(self, monkeypatch):
        # basis_x(x) and basis_z(z) of the fit fold while normalizing,
        # which the DrFold factors from; basis_x at the fit fold's treated
        # and untreated points for the dual's ate moment; then basis_x(x),
        # basis_z(z) and the treated and untreated points of the eval fold
        shapes = []
        evaluate = SieveBasis.evaluate

        def counting(self, points):
            shapes.append(points.shape)
            return evaluate(self, points)

        monkeypatch.setattr(SieveBasis, "evaluate", counting)
        record = run_experiment(_proxy_spec(estimator="dr", reps=1))
        assert not record.failures
        assert shapes == [(200, 17), (200, 31), (200, 17), (200, 17),
                          (200, 17), (200, 31), (200, 17), (200, 17)]

    @pytest.mark.parametrize("block, col, value", [
        ("x", 1, 0.7), ("x", 1, 0.0), ("z", 1, -1.3), ("z", 1, 0.0)])
    @pytest.mark.parametrize("estimator", ["rdiv", "trae", "dr"])
    def test_constant_feature(self, monkeypatch, block, col, value, estimator):
        # a constant column makes sieve functions duplicate the intercept
        # or vanish; fits stay finite and of minimum G-norm, or fail typed
        def draw(params, n, rng):
            data, theta0 = gen_proxy_nc(params, n, rng)
            x, z = np.array(data.x), np.array(data.z)
            (x if block == "x" else z)[:, col] = value
            return Dataset(x, z, data.y, data.w_extra), theta0

        monkeypatch.setattr(harness, "gen_proxy_nc", draw)
        spec = _proxy_spec(estimator=estimator)
        record = run_experiment(spec)
        assert len(record.rows) + len(record.failures) == 6
        assert all(f["error"].startswith("NumericalError")
                   for f in record.failures)
        for row in record.rows:
            assert math.isfinite(row["abs_error"])
            assert math.isfinite(row["lambda_dp"])

        cell = harness.prepare_cell(spec, 400, 0)
        if estimator == "dr":
            fold = DrFold.of(cell.fit_fold, cell.eval_fold,
                             cell_dr_config(spec, cell))
            result = fold.run(0.0)
            fits = [(result.h_fit, cell.basis_x, "x"),
                    (result.q_fit, cell.basis_z, "z")]
        else:
            fit = fold_system(cell_handle(spec, cell),
                              cell.fit_fold, cell.basis_z).solve(0.0)
            fits = [(fit, cell.basis_x, "x")]
        for fit, basis, fit_block in fits:
            gram = empirical_gram(basis.evaluate(getattr(cell.fit_fold, fit_block)))
            s, u = np.linalg.eigh(gram)
            null = u[:, s <= np.sqrt(np.finfo(float).eps) * s.max()]
            # the fitted side's Gram is singular exactly when it reads
            # the constant column
            assert (null.shape[1] > 0) == (fit_block == block)
            assert np.all(np.isfinite(fit.coeffs))
            assert np.all(np.abs(null.T @ fit.coeffs)
                          <= 1e-9 * np.linalg.norm(fit.coeffs))


    @pytest.mark.parametrize("estimator", ["rdiv", "trae", "dr"])
    def test_all_treated_fit_fold(self, monkeypatch, estimator):
        # A = 1 on every fit-fold record: the treatment function of each
        # basis duplicates its intercept there, while the eval fold keeps
        # both arms; rows stay finite or fail typed, and the lambda = 0
        # fit has no weight on the duplicated direction
        def treated_split(data, plan):
            fit_fold, eval_fold = split(data, plan)
            x, z = np.array(fit_fold.x), np.array(fit_fold.z)
            x[:, 0] = z[:, 0] = 1.0
            return Dataset(x, z, fit_fold.y, fit_fold.w_extra), eval_fold

        monkeypatch.setattr(harness, "split", treated_split)
        spec = _proxy_spec(estimator=estimator)
        record = run_experiment(spec)
        assert len(record.rows) + len(record.failures) == 6
        assert all(f["error"].startswith("NumericalError")
                   for f in record.failures)
        for row in record.rows:
            assert math.isfinite(row["abs_error"])
            assert math.isfinite(row["lambda_dp"])

        cell = harness.prepare_cell(spec, 400, 0)
        assert np.all(cell.fit_fold.x[:, 0] == 1.0)
        assert 0.0 < cell.eval_fold.x[:, 0].mean() < 1.0
        if estimator == "dr":
            fold = DrFold.of(cell.fit_fold, cell.eval_fold,
                             cell_dr_config(spec, cell))
            result = fold.run(0.0)
            fits = [(result.h_fit, cell.basis_x), (result.q_fit, cell.basis_z)]
        else:
            fits = [(fold_system(cell_handle(spec, cell),
                                 cell.fit_fold, cell.basis_z).solve(0.0),
                     cell.basis_x)]
        for fit, basis in fits:
            # intercept minus treatment, each in the basis's own scale
            null = np.zeros(basis.n_funcs)
            null[:2] = 1.0 / basis.normalization[:2]
            null[1] *= -1.0
            assert np.all(np.isfinite(fit.coeffs))
            assert (abs(null @ fit.coeffs)
                    <= 1e-9 * np.linalg.norm(null) * np.linalg.norm(fit.coeffs))


def _has_mallopt() -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "malloc_trim")


# Minor page faults per proxy rep beyond a sweep's first, measured in a
# fresh interpreter, whose allocator has not yet adapted to earlier work.
_FAULTS_PER_REP = """
import resource
from adaptik.harness import ExperimentSpec, run_experiment

def faults(reps):
    spec = ExperimentSpec(dgp="proxy_nc", estimator="trae",
                          strategies=("dp", 0.01), sizes=(5000,),
                          reps=reps, seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_experiment(spec)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(1)
print((faults(4) - faults(1)) / 3)
"""


class TestFreedMemoryReuse:
    @pytest.mark.skipif(not _has_mallopt(), reason="no glibc mallopt and "
                        "malloc_trim, so the allocator keeps its defaults")
    def test_reps_reuse_the_memory_of_earlier_reps(self):
        # an n = 5000 proxy rep touches ~7 MB; with glibc's default
        # thresholds each rep faulted ~3.7k pages in again, now only the
        # first rep of a sweep does
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(harness.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_REP], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 200

    def test_workers_start_before_the_caller_keeps_freed_memory(
            self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_MALLOPT", lambda param, value: calls.append(
            ("mallopt", param, value)))
        monkeypatch.setattr(harness, "_MALLOC_TRIM", lambda pad: calls.append(
            ("malloc_trim", pad)))
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_ForkedWorkers", lambda: InProcessPool(calls))
            run_experiment(tiny_spec(strategies=(0.01,)), jobs=2)
        # the worker is forked at its submit, before the caller's first
        # mallopt, so it inherits no heap kept by this sweep
        assert calls == [("submit", 1),
                         ("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20),
                         ("malloc_trim", 0)]
        calls.clear()
        # a real worker's rows carry the calls made in it: its own two,
        # none of the caller's
        _tag_rows(monkeypatch, lambda: list(calls))
        record = run_experiment(tiny_spec(strategies=(0.01,)), jobs=2)
        assert _tags(record.rows, worker=True) == [
            [("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20)]]
        calls.clear()
        run_experiment(tiny_spec(strategies=(0.01,)))
        assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 256 << 20),
                         ("malloc_trim", 0)]


class TestFitRate:
    def test_exact_power_law(self):
        x = np.array([1e-3, 1e-2, 1e-1, 1.0])
        rate = fit_rate(x, x**0.5)
        assert rate.slope == pytest.approx(0.5, abs=1e-12)
        assert rate.stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant_curve(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        rate = fit_rate(x, np.full(4, 3.0))
        assert rate.slope == pytest.approx(0.0, abs=1e-12)

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_rate(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_requires_two_distinct_x(self):
        with pytest.raises(ValueError, match="2 distinct x"):
            fit_rate(np.full(3, 100.0), np.array([1.0, 2.0, 3.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0]))

    def test_by_strategy(self):
        record = RunRecord("h", [
            {"n": n, "strategy": "dp", "rep": r, "abs_error": 10.0 / n,
             "strong_sq": math.nan, "weak_sq": math.nan, "lambda_dp": 0.1,
             "iters": 1, "wall_ms": 0.0}
            for n in (100, 200, 400) for r in range(2)
        ])
        rates = fit_rate_by_strategy(record)
        assert rates["dp"].slope == pytest.approx(-1.0, abs=1e-12)
