"""adaptik benchmark: Monte Carlo throughput, set-up time and paper-number
checks on four workloads, with per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One run repeats rounds of the workload untraced until --seconds have
passed and the workload's minimum round count is reached, then checks
the paper numbers of every round.  With --trace 0 it also times
repeated cold starts and prints the end-to-end metrics.  With --trace 1
it replays the first rounds with every public function of the layer
modules wrapped, checks that the replay reproduces the untraced outputs
exactly, and prints the per-layer metrics and the tracing overhead.
BLAS threading is left as the libraries set it.  cells_per_s is the
median rate over the run's timing units; spectral_rates and
npiv_dr_coverage scale each unit's rate to a fixed host speed with the
reference kernel timed around it (reference.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload untraced and traced, each in its own interpreter, and ends with
a summary table.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
COLD_STARTS = 5
NAMES = ("proxy_nc_sweep", "npiv_dr_coverage", "spectral_rates", "cli_sweep_jobs2")
END_TO_END = {"cells_per_s": "cells/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_cell"):
        return "count/cell"
    if name.endswith("_per_search"):
        return "count/search"
    if name.endswith("_per_select"):
        return "count/select"
    if name.endswith(("_frac", "_speedup")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("flops"):
        return "flop"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of its waited-for
    children (the harness pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cold_start_seconds(name: str, seed: int, workdir: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to the workload's first
    ready cell, once per cold start."""
    out = []
    for _ in range(COLD_STARTS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return out


def unit_rates(rounds) -> list:
    """Rate of every timing unit of a run; a round without units of its
    own is one unit at cells / seconds."""
    return [rate for r in rounds for rate in (r.unit_rates or [r.cells / r.seconds])]


def run_rounds(wl, ctx, seconds: float, min_rounds: int):
    rounds, walls = [], []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(wl.run_round(ctx, len(rounds)))
        walls.append(time.perf_counter() - t0)
    return rounds, walls


def traced_replay(wl, ctx, count: int):
    """Replay rounds 0..count-1 with every layer wrapped."""
    from tracing import Tracer, count_fallbacks

    tracer = Tracer()
    try:
        tracer.install()
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            start = time.perf_counter()
            rounds = [wl.run_round(ctx, i, tracer) for i in range(count)]
            wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.fallbacks = count_fallbacks(log)
    return tracer, rounds, wall


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(args) -> int:
    import environment
    import reference
    import workloads
    from tracing import layer_metrics

    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        ctx = wl.setup(args.seed, workdir)
        print("environment " + json.dumps(environment.record()))
        min_rounds = max(wl.min_rounds, wl.trace_rounds if args.trace else 0)
        rounds, walls = run_rounds(wl, ctx, args.seconds, min_rounds)
        rss = peak_rss_mb()
        rates = unit_rates(rounds)
        p10, p90 = (statistics.quantiles(rates, n=10, method="inclusive")[::8]
                    if len(rates) > 1 else rates * 2)
        print(f"{len(rounds)} round(s) of {rounds[0].cells} cells, "
              f"{sum(r.failed for r in rounds)} failed; cells/s over "
              f"{len(rates)} timing unit(s): min {min(rates):.4f}, "
              f"p10 {p10:.4f}, median {statistics.median(rates):.4f}, "
              f"p90 {p90:.4f}, max {max(rates):.4f}, "
              f"all cells / all seconds "
              f"{sum(r.cells for r in rounds) / sum(r.seconds for r in rounds):.4f}")
        kernels = [k for r in rounds for k in r.kernel_s]
        if kernels:
            print(f"unit rates are scaled to the reference kernel's "
                  f"{reference.NOMINAL_S} s; around the {len(kernels)} units "
                  f"it took median {statistics.median(kernels):.6f} s, min "
                  f"{min(kernels):.6f} s, max {max(kernels):.6f} s")
        check = wl.check(ctx, rounds)
        print(f"check {'passed' if check.ok else 'FAILED'}")
        for note in check.notes:
            print(f"  {note}")

        attempted = sum(r.cells for r in rounds)
        failed = sum(r.failed for r in rounds)
        correct = check.ok and failed == 0
        speedup = 0.0
        if "jobs1_s" in rounds[0].extra:
            speedup = rounds[0].extra["jobs1_s"] / statistics.median(
                r.extra["jobs2_s"] for r in rounds)

        if args.trace:
            tracer, traced, traced_wall = traced_replay(wl, ctx, wl.trace_rounds)
            attempted += sum(r.cells for r in traced)
            failed += sum(r.failed for r in traced)
            same = all(t.output == r.output for t, r in zip(traced, rounds))
            print(f"traced replay of {len(traced)} round(s) reproduced the "
                  f"untraced outputs: {same}")
            correct = correct and same
            metrics = layer_metrics(tracer)
            untraced_wall = sum(walls[:len(traced)])
            metrics["harness.jobs2_speedup"] = speedup
            metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
            print("per-layer metrics (traced replay):")
            for name, value in metrics.items():
                print(f"  {name:34s} {_fmt(value):>14s} {unit_of(name)}")
            print(f"tracing overhead: {traced_wall:.3f} s traced vs "
                  f"{untraced_wall:.3f} s untraced, "
                  f"{100 * metrics['trace.overhead_frac']:+.1f}%")
            units = {name: unit_of(name) for name in metrics}
        else:
            starts = cold_start_seconds(wl.name, args.seed, workdir)
            metrics = {
                "cells_per_s": statistics.median(rates),
                "setup_s": statistics.median(starts),
                "peak_rss_mb": rss,
            }
            units = dict(END_TO_END)
            print("end-to-end metrics:")
            for name, value in metrics.items():
                print(f"  {name:14s} {_fmt(value):>12s} {units[name]}")
            for name, value in check.stats.items():
                unit = "exponent" if name == "slope_err" else "ratio"
                print(f"  {name:14s} {_fmt(value):>12s} {unit}")
            if speedup:
                print(f"  jobs-1 leg / median jobs-2 leg: {speedup:.4f}")
            print("  cold starts (s): " + ", ".join(f"{s:.4f}" for s in starts))
        if not correct:
            failed = attempted
        print(f"failed_frac {_fmt(failed / attempted)} ratio "
              f"({failed} of {attempted} cells)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, each in a fresh interpreter."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace {trace} exited with {proc.returncode}")
                return proc.returncode
            results[name, trace] = json.loads(proc.stdout.splitlines()[-1])
            print()
    print("summary")
    print(f"{'workload':18s} {'correct':>7s} {'failed':>9s} "
          f"{'cells_per_s':>12s} {'setup_s':>8s} {'peak_rss_mb':>11s} "
          f"{'trace overhead':>14s}")
    ok = True
    for name in NAMES:
        untraced, traced = results[name, 0], results[name, 1]
        m = untraced["metrics"]
        correct = untraced["correct"] and traced["correct"]
        ok = ok and correct
        overhead = traced["metrics"]["trace.overhead_frac"]["value"]
        print(f"{name:18s} {str(correct):>7s} "
              f"{untraced['failed']:>4d}/{untraced['attempted']:<4d} "
              f"{m['cells_per_s']['value']:>12.4f} {m['setup_s']['value']:>8.4f} "
              f"{m['peak_rss_mb']['value']:>11.1f} {100 * overhead:>+13.1f}%")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adaptik" / "__init__.py").is_file():
        print(f"error: the adaptik sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
