"""A fixed reference kernel that measures the host's current speed.

The benchmark host is shared: the same work runs up to twice as fast in
one second as in the next, and its speed drifts by a fifth over minutes.
`seconds()` times a fixed piece of interpreter-bound work (a Python loop
over small elementwise numpy operations, no BLAS and no adaptik code), so
a change to the program cannot change it.  A workload whose own work is
of the same kind times the kernel next to each timing unit and reports
the unit's rate scaled by kernel time / NOMINAL_S: cells per second on a
host that runs the kernel in NOMINAL_S seconds.

The kernel runs up to twice as slow right after multi-threaded BLAS work,
while OpenBLAS's worker threads still spin, so workloads dominated by
BLAS or by a process pool do not use it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU x86_64 host of the seed measurement.
NOMINAL_S = 0.00315

_X = np.random.default_rng(0).standard_normal(200)


def _kernel() -> float:
    acc = 0.0
    for i in range(400):
        y = _X * (1.0 / (1.0 + 0.01 * i)) + 0.5
        acc += float(np.sqrt((y * y).sum()))
        acc += sum(j * 0.5 for j in range(20))
    return acc


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled_rate(cells: int, unit_seconds: float, kernel_seconds: float) -> float:
    """cells / unit_seconds at the host speed where the kernel takes
    NOMINAL_S."""
    return cells / unit_seconds * (kernel_seconds / NOMINAL_S)
