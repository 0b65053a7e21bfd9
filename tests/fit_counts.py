"""Exact counts of the likelihood fits of the ``tomo_bootstrap`` schedules.

    PYTHONPATH=src python tests/fit_counts.py [SEED ...]

Replays each seed's schedule (0, 1 and 401 by default) through ``cli.main``,
as ``tests/test_bench_gates.py`` does, and prints one table row per seed: the
fits (``tomography.minimize`` calls), their likelihood evaluations and Newton
steps, their step checks, the checks that fell back to ``np.linalg.eigh``, and
the fits that ended unconverged. Every number is a count, so it repeats from
run to run and from machine to machine with the same numpy build.
"""

import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from entdyn import tomography  # noqa: E402
from test_bench_gates import _play  # noqa: E402

SEEDS = (0, 1, 401)


class FitCount(NamedTuple):
    """One fit: evaluations, Newton steps and ``converged`` as ``minimize``
    returned them, and the ``np.linalg`` calls it made for its step checks."""

    evals: int
    steps: int
    converged: bool
    checks: int
    eigh: int


def schedule_fits(seed: int, tmp_path: Path, monkeypatch) -> list[FitCount]:
    """Every fit of the ``tomo_bootstrap`` schedule at ``seed``, in call
    order. Each step check runs one ``cholesky`` test and, when that fails,
    one ``eigh``; a search without the test runs one ``eigh`` per check, so
    a check count is the larger of the two."""
    fits = []
    calls = None  # {"cholesky": n, "eigh": n} while a minimize call runs

    def counting(name, function):
        def call(*args, **kwargs):
            if calls is not None:
                calls[name] += 1
            return function(*args, **kwargs)
        return call

    def counted_minimize(*args, **kwargs):
        nonlocal calls
        calls = {"cholesky": 0, "eigh": 0}
        try:
            out = minimize(*args, **kwargs)
        finally:
            made, calls = calls, None
        _, _, evals, steps, converged = out
        fits.append(FitCount(evals, steps, converged, max(made.values()), made["eigh"]))
        return out

    minimize = tomography.minimize
    monkeypatch.setattr(tomography, "minimize", counted_minimize)
    for name in ("cholesky", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for _, op, code, *_ in _play("tomo_bootstrap", tmp_path, monkeypatch, seed):
        assert code == 0, op["argv"]
    return fits


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or SEEDS
    print("| seed | fits | evaluations | Newton steps | step checks | eigh fallbacks | unconverged |")
    print("|---|---|---|---|---|---|---|")
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
            fits = schedule_fits(seed, Path(tmp), monkeypatch)
        totals = [sum(column) for column in zip(*fits)]
        evals, steps, converged, checks, eigh = totals
        print(f"| {seed} | {len(fits)} | {evals} | {steps} | {checks} | {eigh} | {len(fits) - converged} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
