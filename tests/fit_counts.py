"""Exact counts of the likelihood fits of the ``tomo_bootstrap`` schedules.

    PYTHONPATH=src python tests/fit_counts.py [SEED ...]

Replays each seed's schedule (0, 1 and 401 by default) through ``cli.main``,
as ``tests/test_bench_gates.py`` does, and prints one table row per seed: the
fits (``tomography.minimize`` calls), their likelihood evaluations and Newton
steps, their step checks, the checks whose step came from ``np.linalg.eigh``
rather than the Cholesky-certified solve, and the fits that ended
unconverged. Every number is a count, so it repeats from run to run and from
machine to machine with the same numpy build.
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
    returned them, its step checks, and those whose step came from eigh."""

    evals: int
    steps: int
    converged: bool
    checks: int
    eigh: int


def schedule_fits(seed: int, tmp_path: Path, monkeypatch) -> list[FitCount]:
    """Every fit of the ``tomo_bootstrap`` schedule at ``seed``, in call
    order. A step check runs the Cholesky test (``_certified_step``), an
    ``eigh``, or both, on the projected Hessian of its step; the calls on one
    matrix are one check, and a check whose test certified no step fell back
    to its ``eigh``."""
    fits = []
    events = None  # [(projected Hessian bytes, certified)] while a minimize call runs

    def certified_step(tangent, *args):
        step = certify(tangent, *args)
        if events is not None:
            events.append((tangent.tobytes(), step is not None))
        return step

    def counted_eigh(matrix, *args, **kwargs):
        if events is not None:
            events.append((np.asarray(matrix).tobytes(), False))
        return eigh(matrix, *args, **kwargs)

    def counted_minimize(*args, **kwargs):
        nonlocal events
        events = []
        try:
            out = minimize(*args, **kwargs)
        finally:
            made, events = events, None
        checks = {}  # projected Hessian -> certified; a dict keeps the checks in order
        for key, certified in made:
            checks[key] = checks.get(key, False) or certified
        _, _, evals, steps, converged = out
        fits.append(FitCount(evals, steps, converged, len(checks),
                             sum(not certified for certified in checks.values())))
        return out

    minimize, certify, eigh = tomography.minimize, tomography._certified_step, np.linalg.eigh
    monkeypatch.setattr(tomography, "minimize", counted_minimize)
    monkeypatch.setattr(tomography, "_certified_step", certified_step)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
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
