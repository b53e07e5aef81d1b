"""Command-line interface.

Subcommands: generate | fit | dp | experiment | rates | report.
generate, fit and dp --config act on a config's first rep, the data and
fitter behind the first rows of its sweep.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

from adaptik.discrepancy import DpConfig, DpFitError, NoiseSchedule, run_dp
from adaptik.estimators import NumericalError
from adaptik.harness import (
    ExperimentSpec,
    RunRecord,
    fit_rate_by_strategy,
    iterations,
    prepare_cell,
    report_text,
    run_experiment,
    shared_fits,
)
from adaptik.sieve import save_dataset_csv
from adaptik.spectral import exact_observation, make_source_problem, residual_system

# dp's search flags, named as the ExperimentSpec fields they replace
_SEARCH_FLAGS = ("schedule_kind", "cd", "lambda0", "rho", "max_iters")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # parse_args keeps no state, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="adaptik", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="write a config's first dataset and params")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("fit", help="single estimator run at a given lambda")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("dp", help="adaptive lambda search with a printed path table")
    p.add_argument("--config", default=None,
                   help="experiment config; without it a one-mode spectral problem "
                   "runs (squared residual, delta 0.0625) and takes no flags")
    p.add_argument("--schedule", dest="schedule_kind", default=None,
                   help="noise schedule kind: rdiv_sqrt, trae_squared or fixed")
    p.add_argument("--cd", type=float, default=None)
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("experiment", help="run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1, metavar="J",
                   help="processes that share the (n, rep) units: J-1 forked "
                   "workers plus this one (default 1, no fork)")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("rates", help="log-log error slopes from a run record")
    p.add_argument("--record", required=True)
    p.add_argument("--metric", default="abs_error",
                   choices=["abs_error", "strong_sq", "weak_sq"])

    p = sub.add_parser("report", help="aggregate table from a run record")
    p.add_argument("--record", required=True)
    return parser


def _load_spec(path: str, seed_override: int | None) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    try:
        return ExperimentSpec.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad config {path}: {exc}") from None


def _load_record(path: str) -> RunRecord:
    try:
        record = RunRecord.from_csv(path)
        summary = Path(path).with_suffix(".summary.json")
        if summary.exists():  # the CSV holds no failed rows; the summary does
            record.failures = json.loads(summary.read_text())["failures"]
        return record
    except FileNotFoundError:
        raise UsageError(f"record file not found: {path}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a run record: {exc!r}") from None


def _out_prefix(out: str) -> str:
    if not Path(out).parent.is_dir():
        raise UsageError(f"--out directory {Path(out).parent} does not exist")
    return out


def _cmd_generate(args) -> int:
    spec = _load_spec(args.config, args.seed)
    out = _out_prefix(args.out)
    cell = prepare_cell(spec, spec.sizes[0], rep=0)
    save_dataset_csv(cell.data, f"{out}.csv")
    params = {"config": spec.to_dict(), "spec_hash": spec.spec_hash(),
              "n": spec.sizes[0], "theta0": cell.theta0}
    Path(f"{out}.params.json").write_text(json.dumps(params, indent=2) + "\n")
    print(f"wrote {out}.csv and {out}.params.json")
    return 0


def _cmd_fit(args) -> int:
    spec = _load_spec(args.config, args.seed)
    if not 0.0 <= args.lam < math.inf:
        raise UsageError(f"--lambda must be finite and nonnegative, got {args.lam}")
    n = spec.sizes[0]
    cell = prepare_cell(spec, n, rep=0)
    theta, h_fit, searches, estimate = shared_fits(spec, cell)(args.lam)
    if estimate is None:
        record = h_fit.to_record()
    else:  # dr: the estimate and interval, both sides at the one lambda
        record = {**estimate.to_record(), "lambda_primal": args.lam,
                  "lambda_dual": args.lam}
    record.update(iterations=iterations(searches), n=n, theta_hat=theta,
                  abs_error=abs(theta - cell.theta0))
    print(json.dumps(record, indent=2))
    return 0


def _cmd_dp(args) -> int:
    flags = {k: getattr(args, k) for k in _SEARCH_FLAGS
             if getattr(args, k) is not None}
    if args.config is None:
        if flags or args.seed is not None:
            raise UsageError("--seed and the search flags need --config")
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        system = residual_system(prob, exact_observation(prob, delta=0.25))
        searches = [run_dp(system, None, DpConfig(NoiseSchedule("fixed", 0.0625)))]
    else:
        # the flags tune the search only; the data stay the config's
        spec = _load_spec(args.config, args.seed)
        try:
            tuned = dataclasses.replace(spec, **flags)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        cell = prepare_cell(spec, spec.sizes[0], rep=0)
        searches = shared_fits(tuned, cell)("dp")[2]
    for outcome in searches:  # dr: the primal's search, then the dual's
        print(outcome.table())
        status = "converged" if outcome.converged else "not converged"
        print(f"selected lambda: {outcome.lambda_dp:.6g} ({status}, "
              f"{outcome.iterations} grid points, bracket_ok={outcome.bracket_ok})")
    return 0


def _cmd_experiment(args) -> int:
    spec = _load_spec(args.config, args.seed)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if args.jobs > 1 and not hasattr(os, "fork"):
        raise UsageError(f"--jobs {args.jobs} forks workers, and this "
                         "platform has no os.fork; use --jobs 1")
    out = _out_prefix(args.out or spec.out or "run")
    record = run_experiment(spec, jobs=args.jobs)
    record.to_csv(f"{out}.csv")
    Path(f"{out}.summary.json").write_text(record.summary_json() + "\n")
    print(f"wrote {out}.csv ({len(record.rows)} rows, "
          f"{len(record.failures)} failures) and {out}.summary.json")
    return 0 if not record.failures else 2


def _cmd_rates(args) -> int:
    record = _load_record(args.record)
    if not record.rows:
        raise UsageError(f"record {args.record} has no rows")
    sizes = len({row["n"] for row in record.rows})
    if sizes < 3:
        raise UsageError(f"record {args.record} has {sizes} distinct n, rates need 3")
    if all(math.isnan(row[args.metric]) for row in record.rows):
        raise UsageError(f"record {args.record} has no {args.metric} values "
                         "(the column is NaN, as for proxy_nc runs)")
    try:
        rates = fit_rate_by_strategy(record, metric=args.metric)
    except ValueError as exc:
        raise NumericalError(str(exc)) from None
    print(f"{'strategy':>12} {'slope':>10} {'stderr':>10} {'points':>7}")
    for strat, rate in rates.items():
        print(f"{strat:>12} {rate.slope:>10.4f} {rate.stderr:>10.4f} "
              f"{rate.n_points:>7}")
    return 0


def _cmd_report(args) -> int:
    record = _load_record(args.record)
    print(report_text(record))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "dp": _cmd_dp,
    "experiment": _cmd_experiment,
    "rates": _cmd_rates,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, DpFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
