"""Configuration-driven Monte Carlo experiment runner.

A spec names a data-generating process, an estimator pipeline and a set
of lambda strategies, sample sizes and repetitions.  The unit of work
is the (n, rep): it owns an independent random stream derived from the
spec hash and (n, rep), draws and splits its data and builds its bases
once, and every lambda strategy is fitted on that same draw, from
factored systems built once (for dr, the primal and the dual).  Runs
are therefore reproducible rep by rep and embarrassingly parallel with
order-independent output.
Sweeps pin numpy's OpenBLAS, looked up once at import, to one thread.
With `jobs` J the units are dealt round robin into at most J shares; a
worker forked by os.fork runs each share but the first, which the
calling process runs, and sends its rows back pickled through a pipe.
A worker that fails or dies makes the sweep raise RuntimeError with its
traceback, after every other worker is killed and reaped, so no process
outlives the call.

Raw rows, one per (n, strategy, rep), go to a CSV with fixed columns
    n, strategy, rep, abs_error, strong_sq, weak_sq, lambda_dp, iters, wall_ms
(floats in shortest round-trip form, so reruns are byte-identical up to
the wall_ms column); aggregates go to a JSON summary.  wall_ms is the
rep's shared set-up (draw, split, bases, factorization) plus the
strategy's own fit time, so rows of one rep share the set-up share; as
a timing it stays out of every determinism comparison.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import json
import math
import numbers
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# run_dp is not called here; it stays importable as harness.run_dp, the
# alias perfbench/tests/test_perfbench.py checks the tracer patches.
from adaptik.discrepancy import DpConfig, NoiseSchedule, run_dp, tune  # noqa: F401
from adaptik.dgp import NpivParams, ProxyNcParams, gen_npiv, gen_proxy_nc
from adaptik.estimators import (
    RdivEstimator,
    TraeEstimator,
    ate_moment,
    mean_moment,
    outcome_moment,
)
from adaptik.functional import DrFold, DrPipelineConfig, SplitPlan, split
from adaptik.sieve import additive_basis, normalize_basis, scale_gram, stacked_gram
from adaptik.util import stream_rng

__all__ = [
    "ExperimentSpec",
    "CellSetup",
    "RunRecord",
    "RateFit",
    "prepare_cell",
    "shared_fits",
    "iterations",
    "run_experiment",
    "fit_rate",
    "fit_rate_by_strategy",
    "report_text",
]

CSV_COLUMNS = (
    "n", "strategy", "rep", "abs_error", "strong_sq", "weak_sq",
    "lambda_dp", "iters", "wall_ms",
)
_CSV_TYPES = {"n": int, "strategy": str, "rep": int, "iters": int}  # else float
# columns RunRecord.aggregate averages; the first two also get medians
_AGGREGATED = ("abs_error", "lambda_dp", "iters", "strong_sq", "weak_sq")

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
        for key in ("reps", "max_iters", "seed"):
            object.__setattr__(self, key, _whole(getattr(self, key), key))
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string, got {self.out!r}")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        for s in self.strategies:
            if s != "dp" and (isinstance(s, bool) or not 0.0 <= float(s) < math.inf):
                raise ValueError("strategy must be 'dp' or a finite nonnegative "
                                 f"lambda, got {s!r}")
        strategies = tuple(
            s if s == "dp" else float(s) for s in self.strategies
        )
        sizes = tuple(_whole(n, "sizes") for n in self.sizes)
        if min(sizes) < 4:  # the fewest records split can cut
            raise ValueError(f"sizes must be at least 4, got {min(sizes)}")
        for key, values in (("sizes", sizes), ("strategies", strategies)):
            dups = [v for i, v in enumerate(values) if v in values[:i]]
            if dups:
                raise ValueError(f"{key} lists {dups[0]!r} twice")
        object.__setattr__(self, "strategies", strategies)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "dgp_params", dict(self.dgp_params))
        # built once, so a bad search setting or DGP parameter fails
        # here, not in every row
        object.__setattr__(self, "_dp", DpConfig(
            self.schedule(), self.lambda0, self.rho, self.max_iters))
        object.__setattr__(self, "_dgp_params", (
            ProxyNcParams.default if self.dgp == "proxy_nc" else NpivParams
        )(**self.dgp_params))

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**doc, "strategies": list(self.strategies),
                "sizes": list(self.sizes)}

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
        return self._dp

    def draw(self, n: int, rng):
        """(dataset, truth) of size n from the spec's DGP."""
        gen = gen_proxy_nc if self.dgp == "proxy_nc" else gen_npiv
        return gen(self._dgp_params, n, rng)


def _whole(value, key: str) -> int:
    """A count given as a whole number (3 or 3.0, not 2.5, True or "3")."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{key} must be whole numbers, got {value!r}")
    return int(value)


def strategy_label(strategy) -> str:
    return "dp" if strategy == "dp" else f"fixed_{strategy!r}"


# -- cell pipelines -------------------------------------------------------------

def _proxy_bases(d_x: int, d_z: int):
    """The proxy_nc sieves, before normalization."""
    # cube terms invert the observation transform, so the latent-linear
    # bridge and conditional means are spanned per coordinate; squares on
    # the instrument side would only inflate the adversary dimension
    return (additive_basis(d_x, powers=(1, 2, 3), treat_col=0,
                           interact_cols=tuple(range(1, d_x))),
            additive_basis(d_z, powers=(1, 3), treat_col=0))


@dataclass
class CellSetup:
    """Data, folds, bases and target moment for one (n, rep) cell, and the
    fit fold's stacked Gram of [basis_x(x) | basis_z(z) | y], which every
    fit of the cell is built from (for dr also the unscaled values it was
    stacked from)."""

    data: object
    truth: object
    theta0: float
    split_plan: SplitPlan
    fit_fold: object
    eval_fold: object
    basis_x: object
    basis_z: object
    target: object
    fit_gram: np.ndarray
    fit_values: tuple | None = None


def prepare_cell(spec: ExperimentSpec, n: int, rep: int) -> CellSetup:
    """Draw the cell's dataset, split it, build its sieve bases and the
    fit fold's stacked Gram.

    The unscaled bases are evaluated once and stacked by one SYRK, then
    scaled; proxy_nc first normalizes its bases by the diagonal of that
    Gram.  Data and split streams depend only on (spec hash, n, rep), so
    the lambda strategies of a rep are compared on the same draw.
    """
    rng = stream_rng(int(spec.spec_hash(), 16), n, rep)
    data_seed = int(rng.integers(2**63))
    split_seed = int(rng.integers(2**63))
    data, truth = spec.draw(n, stream_rng(data_seed))
    theta0 = truth if isinstance(truth, float) else truth.theta0
    plan = SplitPlan(split_seed)
    fit_fold, eval_fold = split(data, plan)
    if spec.dgp == "proxy_nc":
        target = ate_moment(treatment_col=0)
        bx, bz = _proxy_bases(fit_fold.x.shape[1], fit_fold.z.shape[1])
    else:
        target = mean_moment()
        bx = bz = truth.basis
    # dr's DrFold reuses the values; otherwise each block is freed once
    # stacked
    keep_values = spec.estimator == "dr"
    values = (b.unscaled().evaluate(p)
              for b, p in ((bx, fit_fold.x), (bz, fit_fold.z)))
    values = tuple(values) if keep_values else values
    gram = stacked_gram(values, fit_fold.y, (bx, bz))
    if spec.dgp == "proxy_nc":
        moments = np.diag(gram)
        bx = normalize_basis(bx, moments[:bx.n_funcs])
        bz = normalize_basis(bz, moments[bx.n_funcs:-1])
        gram = scale_gram(gram, (bx, bz))
    return CellSetup(data, truth, theta0, plan, fit_fold, eval_fold, bx, bz,
                     target, gram, values if keep_values else None)


def shared_fits(spec: ExperimentSpec, cell: CellSetup):
    """The rep's fitter, fit(strategy) -> (theta_hat, h_fit, searches,
    estimate), on what it builds once: for dr the cell's DrFold, both
    sides tuned by the spec's search (estimate is its FunctionalEstimate),
    otherwise the fit fold's factored RDIV or TRAE system and the eval
    fold's target matrix (estimate is None).  This is the one place the
    estimator is chosen.  searches holds the DpOutcome of each search
    run: none for a fixed lambda, the primal's and the dual's for dr.
    The cell may be that of a spec differing only in its search
    settings; spec's settings tune it."""
    bx, bz = cell.basis_x, cell.basis_z
    if spec.estimator == "dr":
        config = DrPipelineConfig(
            basis_h=bx, basis_f=bz, basis_q=bz, basis_s=bx,
            outcome_moment=outcome_moment(), target_moment=cell.target,
            dp_primal=spec.dp_config(), dp_dual=spec.dp_config(),
            split_plan=cell.split_plan)
        values, cell.fit_values = cell.fit_values, None
        fold = DrFold.of(cell.fit_fold, cell.eval_fold, config, values,
                         cell.fit_gram)

        def fit(strategy):
            r = fold.run(strategy)
            searches = () if r.dp_primal is None else (r.dp_primal, r.dp_dual)
            return r.estimate.theta_hat, r.h_fit, searches, r.estimate
        return fit
    handle = (RdivEstimator(bx) if spec.estimator == "rdiv"
              else TraeEstimator(outcome_moment(), bx, bz))
    system = handle.system_from(cell.fit_gram)
    target = cell.target.matrix(cell.eval_fold.x, cell.eval_fold.y, bx)

    def fit(strategy):
        h_fit, outcome = tune(system, cell.fit_fold.n, spec.dp_config(), strategy)
        searches = () if outcome is None else (outcome,)
        return float((target @ h_fit.coeffs).mean()), h_fit, searches, None
    return fit


def iterations(searches) -> int:
    """The grid points the searches tested, or 1 for a fixed lambda's solve."""
    return sum(s.iterations for s in searches) if searches else 1


def _run_rep(payload) -> list:
    """One row per strategy of the (n, rep), in strategy order.

    The draw, split, bases, the factored system(s) and the eval fold's
    target matrices are built once and shared by every strategy.  A
    failure there fails every row of the rep; a failure in one strategy
    fails only its row.
    """
    spec, n, rep = payload
    start = time.perf_counter()
    try:
        cell = prepare_cell(spec, n, rep)
        fit = shared_fits(spec, cell)
    except Exception as exc:  # per-rep failures must not kill the sweep
        return [_error_row(n, s, rep, exc) for s in spec.strategies]
    shared_s = time.perf_counter() - start

    rows = []
    for strategy in spec.strategies:
        t0 = time.perf_counter()
        try:
            theta_hat, h_fit, searches, _ = fit(strategy)
            strong_sq = weak_sq = math.nan
            if spec.dgp == "npiv":
                strong_sq = cell.truth.strong_sq(h_fit.coeffs)
                weak_sq = cell.truth.weak_sq(h_fit.coeffs)
        except Exception as exc:  # per-cell failures must not kill the sweep
            rows.append(_error_row(n, strategy, rep, exc))
            continue
        rows.append({
            "n": n,
            "strategy": strategy_label(strategy),
            "rep": rep,
            "abs_error": abs(theta_hat - cell.theta0),
            "strong_sq": strong_sq,
            "weak_sq": weak_sq,
            "lambda_dp": h_fit.lam,
            "iters": iterations(searches),
            "wall_ms": (shared_s + time.perf_counter() - t0) * 1e3,
        })
    return rows


def _run_share(payloads: list) -> list:
    """_run_rep of each (spec, n, rep), in order."""
    return [_run_rep(p) for p in payloads]


def _error_row(n: int, strategy, rep: int, exc: Exception) -> dict:
    return {
        "n": n,
        "strategy": strategy_label(strategy),
        "rep": rep,
        "error": f"{type(exc).__name__}: {exc}",
    }


# -- BLAS threads ---------------------------------------------------------------
#
# Sweep matrices are K <= ~70, so threaded BLAS only adds synchronization;
# parallelism comes from the `jobs` processes, the caller and its forked
# workers; unpinned, the cli_sweep_jobs2 benchmark ran 55 cells/s against
# 673 pinned (2-core Xeon).  Only numpy's own OpenBLAS is pinned: adaptik
# never imports scipy, whose wheel maps another copy.  numpy's calls are
# looked up once, at import; a forked worker inherits them and the pin.
#
# A fork takes down OpenBLAS's thread pool in parent and child alike, and
# the next set-count call starts a new one whose idle threads spin for
# ~0.1 s.  So every count change here stops the pool again
# (`blas_thread_shutdown_`, the library's own fork handler); OpenBLAS
# restarts it at its next multi-threaded call.  Without this, restoring
# the counts after a sweep with workers left two spinning threads in the
# caller, which took CPU from whatever ran next.

def _openblas_thread_calls():
    """(get, set) thread-count calls of numpy's OpenBLAS, or None where
    numpy maps none; `set` also stops the library's thread pool."""
    root = Path(np.__file__).parent
    for lib_dir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:  # RTLD_NOLOAD: a handle only if the library is mapped
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = lib.scipy_openblas_get_num_threads64_
                put = lib.scipy_openblas_set_num_threads64_
            except (AttributeError, OSError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            stop = getattr(lib, "blas_thread_shutdown_", None)

            def set_count(count: int) -> None:
                put(count)
                if stop is not None:
                    stop()
            return get, set_count
    return None


# without numpy's OpenBLAS the pin does nothing
_BLAS_GET, _BLAS_SET = _openblas_thread_calls() or (lambda: 1, lambda count: None)


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread; restore its count on exit."""
    count = _BLAS_GET()
    if count != 1:
        _BLAS_SET(1)
    try:
        yield
    finally:
        if _BLAS_GET() != count:
            _BLAS_SET(count)


# -- allocator -------------------------------------------------------------------
#
# A proxy rep (n = 5000) frees and allocates again a ~7 MB working set.
# Under glibc's default mmap and trim thresholds every rep faulted it in
# afresh: ~147k minor page faults, ~0.3 s of a ~1.1 s proxy_nc_sweep
# round.  So a process that runs reps (the caller and each worker) keeps
# freed memory, with an mmap threshold of 32 MiB and a
# trim threshold of 256 MiB, and the caller trims when its sweep ends:
# ~5k faults a round.  Workers are forked before the caller keeps freed
# memory, so they inherit no heap retained by this sweep.  Without
# glibc's mallopt this does nothing.

def _malloc_calls():
    """glibc's (mallopt, malloc_trim), or None where they are missing."""
    try:
        libc = ctypes.CDLL(None)
        opt, trim = libc.mallopt, libc.malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    opt.argtypes, opt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return opt, trim


_MALLOPT, _MALLOC_TRIM = _malloc_calls() or (None, None)


def _keep_freed_memory() -> None:
    if _MALLOPT is not None:
        _MALLOPT(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _MALLOPT(-1, 256 << 20)  # M_TRIM_THRESHOLD


# -- workers ---------------------------------------------------------------------
#
# Each worker gets exactly one share, so a worker is one os.fork and one
# pipe, with no executor thread or queue.  The child inherits the spec,
# its share and the caller's one-thread BLAS pin, so nothing is pickled
# on the way in and the fork does not depend on a multiprocessing start
# method.

class _ForkedWorkers:
    """submit(share) forks a worker that keeps freed memory and runs
    _run_share(share), and returns its pid; result(pid) reads the
    worker's pipe to EOF, reaps it and returns the rows, or raises
    RuntimeError naming the worker.  Leaving the block kills and reaps
    every worker not yet reaped."""

    def __init__(self):
        self._pipes = {}  # pid -> read end, until the worker is reaped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pid, pipe in self._pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def submit(self, share):
        for stream in (sys.stdout, sys.stderr):  # else both copies flush it
            if stream is not None:
                stream.flush()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _worker_main(share, write_fd)
        os.close(write_fd)
        self._pipes[pid] = open(read_fd, "rb")
        return pid

    def result(self, pid: int) -> list:
        with self._pipes[pid] as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        del self._pipes[pid]
        try:
            result = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):  # empty or cut short
            result = None
        if status == 0 and isinstance(result, list):
            return result
        detail = f":\n{result}" if isinstance(result, str) else ", sending no rows"
        raise RuntimeError(
            f"sweep worker pid {pid} failed (wait status {status}, exit code "
            f"{os.waitstatus_to_exitcode(status)}){detail}")


def _worker_main(share, write_fd: int):
    """A forked worker's whole life.  It leaves by os._exit, so it never
    returns into the caller's stack, runs the parent's exit handlers or
    flushes buffers the parent also holds."""
    code = 1
    try:
        try:
            _keep_freed_memory()
            payload, ok = _run_share(share), True
        except BaseException:
            import traceback
            payload, ok = traceback.format_exc(), False
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0 if ok else 1
    finally:
        with contextlib.suppress(Exception):
            sys.stderr.flush()
        os._exit(code)


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
        with open(path, newline="") as fh:
            first = fh.readline()
            if first.startswith("# spec_hash="):
                spec_hash = first.strip().split("=", 1)[1]
            else:
                fh.seek(0)
            reader = csv.DictReader(fh)
            if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
                raise ValueError(f"header is not {','.join(CSV_COLUMNS)}")
            rows = [{c: _CSV_TYPES.get(c, float)(rec[c]) for c in CSV_COLUMNS}
                    for rec in reader]
        return cls(spec_hash, rows)

    def aggregate(self) -> list:
        """Per-(n, strategy) means and standard errors, in row order.

        Groups with the same row count are stacked and each statistic is
        taken along the last axis in one call, which gives every group
        the bits a reduction of its own column gives.
        """
        groups: dict[tuple, list] = {}
        for row in self.rows:
            groups.setdefault((row["n"], row["strategy"]), []).append(row)
        by_count: dict[int, list] = {}
        for key, rows in groups.items():
            by_count.setdefault(len(rows), []).append(key)
        out = {}
        for count, keys in by_count.items():
            cols = np.array([[[r[c] for r in groups[key]] for c in _AGGREGATED]
                             for key in keys], dtype=np.float64)
            means = cols.mean(axis=2).tolist()
            medians = np.median(cols[:, :2], axis=2).tolist()
            ses = ((cols[:, 0].std(axis=1, ddof=1) / math.sqrt(count)).tolist()
                   if count > 1 else [0.0] * len(keys))
            for key, mean, median, se in zip(keys, means, medians, ses):
                out[key] = {
                    "n": key[0],
                    "strategy": key[1],
                    "reps": count,
                    "mean_abs_error": mean[0],
                    "se_abs_error": se,
                    "median_abs_error": median[0],
                    "mean_lambda_dp": mean[1],
                    "median_lambda_dp": median[1],
                    "mean_iters": mean[2],
                    "mean_strong_sq": mean[3],
                    "mean_weak_sq": mean[4],
                }
        return [out[key] for key in groups]

    def summary_json(self) -> str:
        """Aggregates and failures as strict JSON: a non-finite aggregate,
        such as proxy_nc's NaN mean_strong_sq, is written as null."""
        cells = [{k: v if not isinstance(v, float) or math.isfinite(v) else None
                  for k, v in cell.items()} for cell in self.aggregate()]
        return json.dumps({"spec_hash": self.spec_hash, "cells": cells,
                           "failures": self.failures}, indent=2, allow_nan=False)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> RunRecord:
    """Run every (n, rep) on one BLAS thread; failures are recorded, not raised.

    Rows and failures come back in (n, strategy, rep) order.  The units
    are dealt round robin into min(jobs, units) shares; a worker is
    forked for each share but the first, which the calling process runs,
    so jobs=1 or a single (n, rep) forks nothing.  A worker that fails
    raises RuntimeError with its traceback; jobs >= 2 needs os.fork.
    """
    jobs = _whole(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs={jobs} forks workers, and this platform has "
                         "no os.fork; use jobs=1")
    payloads = [(spec, n, rep) for n in spec.sizes for rep in range(spec.reps)]
    count = min(jobs, len(payloads))
    shares = [payloads[k::count] for k in range(count)]
    with _one_blas_thread(), _ForkedWorkers() as pool:
        pids = [pool.submit(share) for share in shares[1:]]
        _keep_freed_memory()
        done = [_run_share(shares[0])] + [pool.result(pid) for pid in pids]
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)
    by_rep = [None] * len(payloads)
    for k, share in enumerate(done):
        by_rep[k::count] = share
    results = [
        by_rep[i * spec.reps + rep][si]
        for i in range(len(spec.sizes))
        for si in range(len(spec.strategies))
        for rep in range(spec.reps)
    ]
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
    """OLS in log-log space; needs >= 3 points, 2 distinct x, positive data."""
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
    if not sxx > 0.0:
        raise ValueError("rate fits need at least 2 distinct x values")
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
    strategies = dict.fromkeys(cell["strategy"] for cell in cells)
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
