import math

import numpy as np
import pytest

from adaptik.harness import (
    ExperimentSpec,
    RunRecord,
    fit_rate,
    fit_rate_by_strategy,
    report_text,
    run_experiment,
    strategy_label,
)


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
        with pytest.raises(ValueError):
            tiny_spec(strategies=("dp", -1.0))
        with pytest.raises(ValueError):
            tiny_spec(reps=0)

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

    def test_report_text_mentions_all_strategies(self):
        record = run_experiment(tiny_spec())
        text = report_text(record)
        for label in ("dp", "fixed_0.0", "fixed_0.01"):
            assert label in text


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
