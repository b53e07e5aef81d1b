"""Configuration-driven Monte Carlo experiment runner.

A spec names a data-generating process, an estimator pipeline and a set
of lambda strategies, sample sizes and repetitions.  Every cell
(n, strategy, rep) owns an independent random stream derived from the
spec hash and the cell coordinates, so runs are reproducible cell by
cell and embarrassingly parallel with order-independent output.

Raw rows go to a CSV with fixed columns
    n, strategy, rep, abs_error, strong_sq, weak_sq, lambda_dp, iters, wall_ms
(floats in shortest round-trip form, so reruns are byte-identical up to
the wall_ms column); aggregates go to a JSON summary.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adaptik.discrepancy import DpConfig, NoiseSchedule, run_dp
from adaptik.dgp import NpivParams, ProxyNcParams, gen_npiv, gen_proxy_nc
from adaptik.estimators import (
    RdivEstimator,
    TraeEstimator,
    ate_moment,
    mean_moment,
    outcome_moment,
)
from adaptik.functional import DrPipelineConfig, SplitPlan, adaptive_dr_pipeline, split
from adaptik.sieve import additive_basis, normalize_basis
from adaptik.util import stream_rng

__all__ = [
    "ExperimentSpec",
    "CellSetup",
    "RunRecord",
    "RateFit",
    "prepare_cell",
    "estimator_handle",
    "dr_config",
    "run_experiment",
    "fit_rate",
    "fit_rate_by_strategy",
    "report_text",
]

CSV_COLUMNS = (
    "n", "strategy", "rep", "abs_error", "strong_sq", "weak_sq",
    "lambda_dp", "iters", "wall_ms",
)

DEFAULT_CD = {"rdiv": 30.0, "trae": 15.0, "dr": 15.0}
DEFAULT_SCHEDULE = {"rdiv": "rdiv_sqrt", "trae": "trae_squared", "dr": "trae_squared"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: dgp x estimator x lambda strategies x sizes x reps."""

    dgp: str = "proxy_nc"
    dgp_params: dict = field(default_factory=dict)
    estimator: str = "trae"
    strategies: tuple = ("dp", 0.0, 0.01, 0.1)
    sizes: tuple = (1000, 2000, 3000, 5000)
    reps: int = 50
    seed: int = 0
    schedule_kind: str | None = None
    cd: float | None = None
    lambda0: float = 2.0
    rho: float = 0.5
    max_iters: int = 20
    out: str | None = None

    def __post_init__(self):
        if self.dgp not in ("proxy_nc", "npiv"):
            raise ValueError(f"unknown dgp {self.dgp!r}")
        if self.estimator not in ("rdiv", "trae", "dr"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if not self.sizes or not self.strategies:
            raise ValueError("sizes and strategies must be nonempty")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        strategies = tuple(
            s if s == "dp" else float(s) for s in self.strategies
        )
        for s in strategies:
            if s != "dp" and (not isinstance(s, float) or s < 0.0):
                raise ValueError(f"strategy must be 'dp' or a nonnegative lambda, got {s!r}")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "dgp_params", dict(self.dgp_params))

    def to_dict(self) -> dict:
        return {
            "dgp": self.dgp,
            "dgp_params": self.dgp_params,
            "estimator": self.estimator,
            "strategies": list(self.strategies),
            "sizes": list(self.sizes),
            "reps": self.reps,
            "seed": self.seed,
            "schedule_kind": self.schedule_kind,
            "cd": self.cd,
            "lambda0": self.lambda0,
            "rho": self.rho,
            "max_iters": self.max_iters,
            "out": self.out,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        doc = dict(doc)
        for key in ("strategies", "sizes"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)

    def spec_hash(self) -> str:
        """Hash of everything but the output path, which draws no data."""
        canon = json.dumps({**self.to_dict(), "out": None}, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def schedule(self) -> NoiseSchedule:
        kind = self.schedule_kind or DEFAULT_SCHEDULE[self.estimator]
        cd = self.cd if self.cd is not None else DEFAULT_CD[self.estimator]
        return NoiseSchedule(kind, cd)

    def dp_config(self) -> DpConfig:
        return DpConfig(self.schedule(), self.lambda0, self.rho, self.max_iters)


def strategy_label(strategy) -> str:
    return "dp" if strategy == "dp" else f"fixed_{strategy!r}"


# -- cell pipelines -------------------------------------------------------------

def _make_dgp(spec: ExperimentSpec):
    if spec.dgp == "proxy_nc":
        params = ProxyNcParams.default(**spec.dgp_params)
        return lambda n, rng: gen_proxy_nc(params, n, rng)
    params = NpivParams(**spec.dgp_params)
    return lambda n, rng: gen_npiv(params, n, rng)


def _proxy_bases(fit_fold):
    # cube terms invert the observation transform, so the latent-linear
    # bridge and conditional means are spanned per coordinate; squares on
    # the instrument side would only inflate the adversary dimension
    d_x = fit_fold.x.shape[1]
    d_z = fit_fold.z.shape[1]
    bx = additive_basis(d_x, powers=(1, 2, 3), treat_col=0,
                        interact_cols=tuple(range(1, d_x)))
    bz = additive_basis(d_z, powers=(1, 3), treat_col=0)
    return normalize_basis(bx, fit_fold.x), normalize_basis(bz, fit_fold.z)


@dataclass(frozen=True)
class CellSetup:
    """Data, folds, bases and target moment for one (n, rep) cell."""

    data: object
    truth: object
    theta0: float
    split_plan: SplitPlan
    fit_fold: object
    eval_fold: object
    basis_x: object
    basis_z: object
    target: object


def prepare_cell(spec: ExperimentSpec, n: int, rep: int) -> CellSetup:
    """Draw the cell's dataset, split it, and build its sieve bases.

    Data and split streams depend only on (spec hash, n, rep), so the
    lambda strategies of a rep are compared on the same draw.
    """
    rng = stream_rng(int(spec.spec_hash(), 16), n, rep)
    data_seed = int(rng.integers(2**63))
    split_seed = int(rng.integers(2**63))
    data, truth = _make_dgp(spec)(n, stream_rng(data_seed))
    theta0 = truth if isinstance(truth, float) else truth.theta0
    plan = SplitPlan(split_seed)
    fit_fold, eval_fold = split(data, plan)
    if spec.dgp == "proxy_nc":
        target = ate_moment(treatment_col=0)
        bx, bz = _proxy_bases(fit_fold)
    else:
        target = mean_moment()
        bx = bz = truth.basis
    return CellSetup(data, truth, theta0, plan, fit_fold, eval_fold, bx, bz,
                     target)


def estimator_handle(spec: ExperimentSpec, cell: CellSetup):
    if spec.estimator == "rdiv":
        return RdivEstimator(cell.basis_x, cell.basis_z)
    return TraeEstimator(outcome_moment(), cell.basis_x, cell.basis_z)


def dr_config(spec: ExperimentSpec, cell: CellSetup,
              fixed_lambda: float | None) -> DrPipelineConfig:
    """The cell's DR pipeline; fixed_lambda None tunes both sides by DP."""
    return DrPipelineConfig(
        basis_h=cell.basis_x, basis_f=cell.basis_z,
        basis_q=cell.basis_z, basis_s=cell.basis_x,
        outcome_moment=outcome_moment(), target_moment=cell.target,
        dp_primal=spec.dp_config(), dp_dual=spec.dp_config(),
        split_plan=cell.split_plan,
        fixed_lambda_primal=fixed_lambda, fixed_lambda_dual=fixed_lambda,
    )


def _run_cell(spec: ExperimentSpec, n: int, strat_idx: int, rep: int) -> dict:
    strategy = spec.strategies[strat_idx]
    start = time.perf_counter()
    cell = prepare_cell(spec, n, rep)

    lam_dp = math.nan
    iters = 1

    if spec.estimator == "dr":
        fixed = None if strategy == "dp" else strategy
        result = adaptive_dr_pipeline(cell.data, dr_config(spec, cell, fixed))
        theta_hat = result.estimate.theta_hat
        h_coeffs = result.h_fit.coeffs
        if strategy == "dp":
            lam_dp = result.dp_primal.lambda_dp
            iters = result.dp_primal.iterations + result.dp_dual.iterations
        else:
            lam_dp = float(strategy)
    else:
        handle = estimator_handle(spec, cell)
        if strategy == "dp":
            outcome = run_dp(handle, cell.fit_fold, spec.dp_config())
            fit = outcome.fit
            lam_dp = outcome.lambda_dp
            iters = outcome.iterations
        else:
            fit = handle.system(cell.fit_fold).solve(float(strategy))
            lam_dp = float(strategy)
        h_coeffs = fit.coeffs
        theta_hat = float(
            cell.target.per_record(cell.eval_fold, cell.basis_x, "x",
                                   fit.coeffs).mean()
        )

    strong_sq = weak_sq = math.nan
    if spec.dgp == "npiv":
        strong_sq = cell.truth.strong_sq(h_coeffs)
        weak_sq = cell.truth.weak_sq(h_coeffs)

    wall_ms = (time.perf_counter() - start) * 1e3
    return {
        "n": n,
        "strategy": strategy_label(strategy),
        "rep": rep,
        "abs_error": abs(theta_hat - cell.theta0),
        "strong_sq": strong_sq,
        "weak_sq": weak_sq,
        "lambda_dp": lam_dp,
        "iters": iters,
        "wall_ms": wall_ms,
    }


def _cell_worker(payload) -> dict:
    spec_doc, n, strat_idx, rep = payload
    spec = ExperimentSpec.from_dict(spec_doc)
    try:
        return _run_cell(spec, n, strat_idx, rep)
    except Exception as exc:  # per-cell failures must not kill the sweep
        return {
            "n": n,
            "strategy": strategy_label(spec.strategies[strat_idx]),
            "rep": rep,
            "error": f"{type(exc).__name__}: {exc}",
        }


@dataclass
class RunRecord:
    spec_hash: str
    rows: list
    failures: list = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# spec_hash={self.spec_hash}\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])

    @classmethod
    def from_csv(cls, path: str | Path) -> "RunRecord":
        spec_hash = ""
        rows = []
        with open(path, newline="") as fh:
            first = fh.readline()
            if first.startswith("# spec_hash="):
                spec_hash = first.strip().split("=", 1)[1]
            else:
                fh.seek(0)
            reader = csv.DictReader(fh)
            for rec in reader:
                rows.append({
                    "n": int(rec["n"]),
                    "strategy": rec["strategy"],
                    "rep": int(rec["rep"]),
                    "abs_error": float(rec["abs_error"]),
                    "strong_sq": float(rec["strong_sq"]),
                    "weak_sq": float(rec["weak_sq"]),
                    "lambda_dp": float(rec["lambda_dp"]),
                    "iters": int(rec["iters"]),
                    "wall_ms": float(rec["wall_ms"]),
                })
        return cls(spec_hash, rows)

    def aggregate(self) -> list:
        """Per-(n, strategy) means and standard errors, in row order."""
        groups: dict[tuple, list] = {}
        order = []
        for row in self.rows:
            key = (row["n"], row["strategy"])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        out = []
        for key in order:
            rows = groups[key]
            errs = np.array([r["abs_error"] for r in rows])
            lams = np.array([r["lambda_dp"] for r in rows])
            summary = {
                "n": key[0],
                "strategy": key[1],
                "reps": len(rows),
                "mean_abs_error": float(errs.mean()),
                "se_abs_error": float(errs.std(ddof=1) / math.sqrt(len(errs)))
                if len(errs) > 1 else 0.0,
                "median_abs_error": float(np.median(errs)),
                "mean_lambda_dp": float(lams.mean()),
                "median_lambda_dp": float(np.median(lams)),
                "mean_iters": float(np.mean([r["iters"] for r in rows])),
            }
            for col in ("strong_sq", "weak_sq"):
                vals = np.array([r[col] for r in rows])
                summary[f"mean_{col}"] = float(vals.mean())
            out.append(summary)
        return out

    def summary_json(self) -> str:
        return json.dumps(
            {"spec_hash": self.spec_hash, "cells": self.aggregate(),
             "failures": self.failures},
            indent=2,
        )


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> RunRecord:
    """Run every (n, strategy, rep) cell; failures are recorded, not raised."""
    cells = [
        (n, si, rep)
        for n in spec.sizes
        for si in range(len(spec.strategies))
        for rep in range(spec.reps)
    ]
    spec_doc = spec.to_dict()
    payloads = [(spec_doc, n, si, rep) for n, si, rep in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_cell_worker, payloads, chunksize=4))
    else:
        results = [_cell_worker(p) for p in payloads]
    rows = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]
    return RunRecord(spec.spec_hash(), rows, failures)


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(y) on log(x) with its standard error."""

    slope: float
    intercept: float
    stderr: float
    n_points: int


def fit_rate(x: np.ndarray, y: np.ndarray) -> RateFit:
    """OLS in log-log space; needs >= 3 points and strictly positive data."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d vectors of equal length")
    if x.size < 3:
        raise ValueError("rate fits need at least 3 points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("rate fits need strictly positive values")
    lx, ly = np.log(x), np.log(y)
    xc = lx - lx.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ ly / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = x.size - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else math.nan
    if not math.isfinite(slope):
        raise ValueError("rate fit produced a non-finite slope")
    return RateFit(slope, intercept, stderr, x.size)


def fit_rate_by_strategy(record: RunRecord, metric: str = "abs_error") -> dict:
    """Per-strategy slope of log mean(metric) against log n."""
    cells = record.aggregate()
    strategies = []
    for cell in cells:
        if cell["strategy"] not in strategies:
            strategies.append(cell["strategy"])
    out = {}
    for strat in strategies:
        pts = [(c["n"], c[f"mean_{metric}"]) for c in cells if c["strategy"] == strat]
        pts.sort()
        xs = np.array([p[0] for p in pts], dtype=np.float64)
        ys = np.array([p[1] for p in pts], dtype=np.float64)
        out[strat] = fit_rate(xs, ys)
    return out


def report_text(record: RunRecord) -> str:
    """Human-readable aggregate table plus the lambda_dp distribution."""
    lines = [f"spec_hash: {record.spec_hash}",
             f"rows: {len(record.rows)}  failures: {len(record.failures)}", ""]
    header = (f"{'n':>6} {'strategy':>12} {'reps':>5} {'mean|err|':>12} "
              f"{'se':>10} {'median|err|':>12} {'med lambda':>12} {'iters':>7}")
    lines.append(header)
    for cell in record.aggregate():
        lines.append(
            f"{cell['n']:>6} {cell['strategy']:>12} {cell['reps']:>5} "
            f"{cell['mean_abs_error']:>12.6g} {cell['se_abs_error']:>10.4g} "
            f"{cell['median_abs_error']:>12.6g} {cell['median_lambda_dp']:>12.6g} "
            f"{cell['mean_iters']:>7.2f}"
        )
    dp_lams = [r["lambda_dp"] for r in record.rows if r["strategy"] == "dp"]
    if dp_lams:
        arr = np.array(dp_lams)
        lines.append("")
        lines.append(
            f"selected lambda distribution (dp): min={arr.min():.6g} "
            f"median={np.median(arr):.6g} max={arr.max():.6g}"
        )
    if record.failures:
        lines.append("")
        lines.append("failed cells:")
        for f in record.failures:
            lines.append(f"  n={f['n']} strategy={f['strategy']} rep={f['rep']}: {f['error']}")
    return "\n".join(lines)
