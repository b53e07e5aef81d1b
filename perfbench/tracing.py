"""Span tracing of adaptik from outside the program.

`Tracer.install()` replaces every public function and public method of
the layer modules with a wrapper that records a span (name, start, end,
parent span, cell id, observed detail) in memory.  The program itself is
not edited: the wrappers are set as module and class attributes, and
every module of the package that re-imported one of the wrapped
functions under its own name gets the wrapper too, so no alias bypasses
its layer.  `Tracer.uninstall()` restores the originals.

A layer's self time is the duration of its spans minus the time covered
by their child spans.  Span names are "<layer>.<function>" or
"<layer>.<Class>.<method>", and the layer is the module name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("dgp", "sieve", "estimators", "discrepancy", "functional",
          "harness", "spectral", "cli")

# Each harness cell begins with exactly one prepare_cell call, so that
# call marks the cell boundary for the harness-driven workloads.
CELL_START = "harness.prepare_cell"

FIT_FUNCTIONS = ("estimators.rdiv_fit", "estimators.trae_fit",
                 "estimators.trae_dual_fit")
FIT_SPANS = FIT_FUNCTIONS + ("estimators.RdivEstimator.fit",
                             "estimators.TraeEstimator.fit",
                             "estimators.TraeDualEstimator.fit")


def _shape_rows(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    return len(pts)


def _gram_flops(args, kwargs):
    shape = getattr(args[0], "shape", ())
    return shape[0] * shape[1] ** 2 if len(shape) == 2 else 0


def _dp_outcome(args, kwargs, result):
    return (result.iterations, result.converged, result.bracket_ok)


def _jobs(args, kwargs):
    return kwargs.get("jobs", args[1] if len(args) > 1 else 1)


def _subcommand(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


# Detail recorded with a span, read from its arguments (before the call)
# or from its result (after the call).
BEFORE = {
    "sieve.SieveBasis.evaluate": _shape_rows,
    "sieve.empirical_gram": _gram_flops,
    "harness.run_experiment": _jobs,
    "cli.main": _subcommand,
}
AFTER = {
    "discrepancy.run_dp": _dp_outcome,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index, cell id, detail]
        self.spans: list[list] = []
        self.cell = -1
        self.fallbacks = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin_cell(self) -> None:
        self.cell += 1

    @property
    def cells(self) -> int:
        return self.cell + 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        before, after = BEFORE.get(name), AFTER.get(name)
        starts_cell = name == CELL_START
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if starts_cell:
                self.cell += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell,
                   before(args, kwargs) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[5] = after(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"adaptik.{layer}")
            for attr in getattr(mod, "__all__", ("main",)):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(f"{layer}.{attr}", obj)
        # every module that imported a wrapped function under its own name
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "adaptik" or mod_name.startswith("adaptik.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrapped.get(id(val))
                if wrapper is not None and val is not wrapper:
                    self._set(mod, attr, wrapper)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children."""
        selfs = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                selfs[rec[3]] -= rec[2] - rec[1]
        return selfs


def count_fallbacks(log) -> int:
    """Rank-deficiency fallbacks among warnings recorded with the "always"
    filter; each is one solve retried by minimum-norm least squares."""
    return sum("rank-deficient" in str(w.message) for w in log)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of a traced run, as plain numbers.

    Counts are exact: they depend only on the work done, not on timing.
    Times are in seconds; `*.self_s` are self times, and the record,
    rate-fit and cli times are whole span durations.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    count = defaultdict(int)
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    layer_self = defaultdict(float)
    details = defaultdict(list)
    for rec, own in zip(spans, selfs):
        name = rec[0]
        count[name] += 1
        self_by[name] += own
        total_by[name] += rec[2] - rec[1]
        layer_self[name.split(".", 1)[0]] += own
        if rec[5] is not None:
            details[name].append(rec[5])

    cells = tracer.cells
    searches = details["discrepancy.run_dp"]
    pool_wait = sum(own for rec, own in zip(spans, selfs)
                    if rec[0] == "harness.run_experiment" and rec[5] > 1)
    cli_time = defaultdict(float)
    for rec in spans:
        if rec[0] == "cli.main":
            cli_time[rec[5]] += rec[2] - rec[1]
    selects = count["spectral.classical_dp_select"]
    solves_in_select = sum(
        1 for rec in spans if rec[0] == "spectral.tikhonov_solve"
        and rec[3] >= 0 and spans[rec[3]][0] == "spectral.classical_dp_select")
    rdiv_cells = len({rec[4] for rec in spans
                      if rec[0] == "estimators.rdiv_stage1"})

    return {
        "dgp.draws_per_cell": _ratio(
            count["dgp.gen_proxy_nc"] + count["dgp.gen_npiv"], cells),
        "dgp.self_s": layer_self["dgp"],
        "sieve.evaluate.calls_per_cell": _ratio(
            count["sieve.SieveBasis.evaluate"], cells),
        "sieve.evaluate.rows": sum(details["sieve.SieveBasis.evaluate"]),
        "sieve.evaluate.self_s": self_by["sieve.SieveBasis.evaluate"],
        "sieve.normalize.self_s": self_by["sieve.normalize_basis"],
        "sieve.gram.calls": count["sieve.empirical_gram"],
        "sieve.gram.flops": sum(details["sieve.empirical_gram"]),
        "sieve.gram.self_s": self_by["sieve.empirical_gram"],
        "sieve.self_s": layer_self["sieve"],
        "estimators.stage1.calls_per_cell": _ratio(
            count["estimators.rdiv_stage1"], rdiv_cells),
        "estimators.stage1.self_s": self_by["estimators.rdiv_stage1"],
        "estimators.fit.calls": sum(count[n] for n in FIT_FUNCTIONS),
        "estimators.fit.self_s": sum(self_by[n] for n in FIT_SPANS),
        "estimators.fallbacks": tracer.fallbacks,
        "estimators.self_s": layer_self["estimators"],
        "dp.searches": len(searches),
        "dp.fits_per_search": _ratio(sum(d[0] for d in searches),
                                     len(searches)),
        "dp.converged_frac": _ratio(sum(d[1] for d in searches),
                                    len(searches)),
        "dp.bracket_ok_frac": _ratio(sum(d[2] for d in searches),
                                     len(searches)),
        "dp.self_s": layer_self["discrepancy"],
        "functional.split.self_s": self_by["functional.split"],
        "functional.dr_estimate.self_s": self_by["functional.dr_estimate"],
        "functional.pipeline.self_s":
            self_by["functional.adaptive_dr_pipeline"],
        "functional.self_s": layer_self["functional"],
        "harness.prepare_cell.self_s": self_by["harness.prepare_cell"],
        "harness.pool_wait_s": pool_wait,
        "harness.record_write_s": total_by["harness.RunRecord.to_csv"],
        "harness.record_read_s": total_by["harness.RunRecord.from_csv"],
        "harness.rate_fit_s": total_by["harness.fit_rate_by_strategy"],
        "harness.self_s": layer_self["harness"],
        "spectral.selects": selects,
        "spectral.solves_per_select": _ratio(solves_in_select, selects),
        "spectral.self_s": layer_self["spectral"],
        "cli.experiment_s": cli_time["experiment"],
        "cli.report_s": cli_time["report"],
        "cli.rates_s": cli_time["rates"],
        "cli.self_s": layer_self["cli"],
        "trace.cells": cells,
        "trace.spans": len(spans),
    }
