"""Latency summaries: median, the tail-percentile rule, and run metadata."""

from __future__ import annotations

import math
import os
import platform

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a tail percentile must have strictly beyond it.
TAIL_BEYOND = 10

#: BLAS / OpenMP thread-count variables the benchmark pins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of ``n``
    samples beyond it; the median when even it has fewer."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def pin_threads() -> None:
    """Pin every BLAS/OpenMP thread count to one thread, which is at most
    nproc on any machine.

    The ops work on 4x4 and 2x2 matrices, where extra BLAS threads only
    contend with the single closed-loop caller. Must run before numpy loads.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def metadata(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
