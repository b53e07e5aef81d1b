"""Command-line interface.

Subcommands: generate | fit | dp | experiment | rates | report.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from adaptik.discrepancy import DpConfig, DpFitError, NoiseSchedule, run_dp
from adaptik.dgp import NpivParams, ProxyNcParams, gen_npiv, gen_proxy_nc
from adaptik.estimators import NumericalError
from adaptik.harness import (
    ExperimentSpec,
    RunRecord,
    estimator_handle,
    fit_rate_by_strategy,
    prepare_cell,
    report_text,
    run_experiment,
    shared_fits,
)
from adaptik.sieve import save_dataset_csv
from adaptik.spectral import (GridExhaustedError, exact_observation,
                              make_source_problem, residual_system)
from adaptik.util import stream_rng

_SCHEDULE_FLAG = {"rdiv": "rdiv_sqrt", "trae": "trae_squared", "fixed": "fixed"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="adaptik", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="write a dataset CSV and its params file")
    p.add_argument("--dgp", choices=["proxy_nc", "npiv"], default="proxy_nc")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix")

    p = sub.add_parser("fit", help="single estimator run at a given lambda")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("dp", help="adaptive lambda search with a printed path table")
    p.add_argument("--config", default=None,
                   help="experiment config; without it a one-mode spectral problem "
                   "runs (squared residual, delta 0.0625)")
    p.add_argument("--schedule", choices=sorted(_SCHEDULE_FLAG), default=None)
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
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    _out_prefix(args.out)
    rng = stream_rng(args.seed)
    if args.dgp == "proxy_nc":
        params = ProxyNcParams.default(args.master_seed)
        data, theta0 = gen_proxy_nc(params, args.n, rng)
        params_doc = {
            "dgp": "proxy_nc",
            "master_seed": args.master_seed,
            "d_s": params.d_s, "d_q": params.d_q, "d_w": params.d_w,
            "transform": params.transform,
            "theta0": theta0,
        }
    else:
        params = NpivParams()
        data, truth = gen_npiv(params, args.n, rng)
        params_doc = {
            "dgp": "npiv",
            "h0_coeffs": list(params.h0_coeffs),
            "decay_p": params.decay_p,
            "smoothing": params.smoothing,
            "noise_sd": params.noise_sd,
            "endogeneity": params.endogeneity,
            "theta0": truth.theta0,
        }
    params_doc["seed"] = args.seed
    params_doc["n"] = args.n
    csv_path = f"{args.out}.csv"
    save_dataset_csv(data, csv_path)
    Path(f"{args.out}.params.json").write_text(json.dumps(params_doc, indent=2) + "\n")
    print(f"wrote {csv_path} and {args.out}.params.json")
    return 0


def _cmd_fit(args) -> int:
    spec = _load_spec(args.config, args.seed)
    if not 0.0 <= args.lam < math.inf:
        raise UsageError(f"--lambda must be finite and nonnegative, got {args.lam}")
    n = spec.sizes[0]
    cell = prepare_cell(spec, n, rep=0)
    theta, h_fit, _, estimate = shared_fits(spec, cell)(args.lam)
    if estimate is None:
        record = h_fit.to_record()
        record.update(iterations=1, n=n, theta_hat=theta)
    else:  # dr: the estimate and interval, both sides at the one lambda
        record = estimate.to_record()
        record.update(lambda_primal=args.lam, lambda_dual=args.lam,
                      iterations=2)
    record["abs_error"] = abs(theta - cell.theta0)
    print(json.dumps(record, indent=2))
    return 0


def _dp_config(args, base: DpConfig) -> DpConfig:
    """base with the search flags that were given applied on top."""
    flags = {"lambda0": args.lambda0, "rho": args.rho, "max_iters": args.max_iters}
    try:
        schedule = NoiseSchedule(
            _SCHEDULE_FLAG[args.schedule] if args.schedule else base.schedule.kind,
            args.cd if args.cd is not None else base.schedule.c_d,
        )
        return dataclasses.replace(
            base, schedule=schedule,
            **{k: v for k, v in flags.items() if v is not None},
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_dp(args) -> int:
    if args.config is None:
        prob = make_source_problem(1, 1.0, 1.0, [1.0])
        system = residual_system(prob, exact_observation(prob, delta=0.25))
        n, base = None, DpConfig(NoiseSchedule("fixed", 0.0625))
    else:
        # the flags tune the search only: the spec, and so the drawn
        # data and the system, stay exactly those of the config's
        # experiment
        spec = _load_spec(args.config, args.seed)
        cell = prepare_cell(spec, spec.sizes[0], rep=0)
        system = estimator_handle(spec, cell).system_from(cell.fit_gram)
        n, base = cell.fit_fold.n, spec.dp_config()
    outcome = run_dp(system, n, _dp_config(args, base))
    print(outcome.table())
    status = "converged" if outcome.converged else "not converged"
    print(f"selected lambda: {outcome.lambda_dp:.6g} ({status}, "
          f"{outcome.iterations} grid points, bracket_ok={outcome.bracket_ok})")
    return 0


def _cmd_experiment(args) -> int:
    spec = _load_spec(args.config, args.seed)
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
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
    except (NumericalError, GridExhaustedError, DpFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
