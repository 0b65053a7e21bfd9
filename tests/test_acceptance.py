"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete; the tomography pipeline criterion dominates the
runtime (a few minutes).
"""

import math
import time

import numpy as np
import pytest

from entdyn.channels import (
    apply_one_sided,
    apply_two_sided,
    channel_for,
    chi_from_radii,
    is_completely_positive,
)
from entdyn.dynamics import (
    InitialStateSpec,
    breaking_point,
    concurrence,
    factorization_prediction,
    lambda_two_sided,
    make_initial,
    mixed_evolution_prediction,
    predict_two_sided,
)
from entdyn.harness import Pipeline, SweepConfig, run_pes_sweep, run_sweep
from entdyn.sampling import random_pauli_channel, random_pure_ket, random_unital_channel
from entdyn.states import bell_state


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {name}" + (f"  ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {name} ({detail})"


def test_criterion_1_one_sided_law():
    t0 = time.perf_counter()
    bell = bell_state("phi_plus")
    grid = [0.05 * i for i in range(21)]
    worst = 0.0
    for family in ("isotropic", "two-field"):
        for p in grid:
            rho = apply_one_sided(channel_for(family, p), bell, target=1)
            worst = max(worst, abs(concurrence(rho).c - max(1.0 - 2.0 * p, 0.0)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "one-sided concurrence law on 21-point grid",
        worst < 1e-9 and elapsed < 1.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_two_sided_spectrum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    bell = bell_state("phi_plus")
    worst = 0.0
    for _ in range(1000):
        channel = random_pauli_channel(rng)
        closed = np.sort(lambda_two_sided(channel))[::-1]
        numeric = concurrence(apply_two_sided(channel, bell)).lambdas
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "two-sided spin-flip spectrum closed form, 1000 channels",
        worst < 1e-10 and elapsed < 10.0,
        f"max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_breaking_points():
    targets = {
        ("two-field", "one_sided"): 0.5,
        ("isotropic", "one_sided"): 0.5,
        ("two-field", "two_sided"): 1.0 / 3.0,
        ("isotropic", "two_sided"): (3.0 - math.sqrt(3.0)) / 4.0,
    }
    worst = max(
        abs(breaking_point(family, mode) - value) for (family, mode), value in targets.items()
    )
    report(3, "bisection breaking points", worst < 1e-6, f"max dev {worst:.2e}")


def test_criterion_4_cp_tetrahedron_oracle():
    rng = np.random.default_rng(404)
    samples = rng.uniform(-1.0, 1.0, size=(100_000, 3))
    disagreements = sum(
        is_completely_positive(r) != (chi_from_radii(r).min() >= -1e-12) for r in samples
    )
    report(
        4,
        "CP tetrahedron vs chi-eigenvalue oracle, 1e5 samples",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_5_factorization_law():
    rng = np.random.default_rng(505)
    states = [random_pure_ket(rng, 4) for _ in range(100)]
    channels = [random_pauli_channel(rng) for _ in range(100)]
    worst = 0.0
    for psi in states:
        rho = np.outer(psi, psi.conj())
        for channel in channels:
            direct = concurrence(apply_one_sided(channel, rho, target=1)).c
            worst = max(worst, abs(factorization_prediction(rho, channel) - direct))
    report(
        5,
        "factorization law, 100 states x 100 channels",
        worst < 1e-9,
        f"max dev {worst:.2e}",
    )


def test_criterion_6_mixed_pes_law():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        delta = rng.uniform(0.0, math.pi / 8)
        p_deph = rng.uniform(0.0, 1.0)
        p_iso = rng.uniform(0.0, 1.0)
        sigma = make_initial(InitialStateSpec(kind="pure_pes", delta=delta))
        prep = channel_for("dephasing", p_deph)
        channel = channel_for("isotropic", p_iso)
        rho_mixed = apply_one_sided(prep, sigma, target=1)
        direct = concurrence(apply_one_sided(channel, rho_mixed, target=1)).c
        worst = max(worst, abs(mixed_evolution_prediction(sigma, prep, channel) - direct))

    # equal initial concurrence 0.5: the dephasing-prepared state breaks first
    delta_half = math.asin(0.5) / 4.0
    config = SweepConfig(
        family="isotropic",
        mode="one_sided",
        p_grid=tuple(np.linspace(0.0, 0.6, 121)),
        pipeline=Pipeline(kind="analytic"),
        initials=(
            InitialStateSpec(kind="pure_pes", delta=delta_half),
            InitialStateSpec(kind="mixed_pes", delta=math.radians(22.5), dephasing=0.25),
        ),
    )
    tables = run_pes_sweep(config)
    zeros = {
        label: next(r.p for r in rows if r.concurrence <= 1e-12)
        for label, rows in tables.items()
    }
    z_pure = next(v for k, v in zeros.items() if k.startswith("pure"))
    z_mixed = next(v for k, v in zeros.items() if k.startswith("mixed"))
    report(
        6,
        "mixed-PES law vs direct simulation; earlier breaking for mixed state",
        worst < 1e-9 and z_mixed < z_pure,
        f"max dev {worst:.2e}; zeros mixed {z_mixed:.3f} < pure {z_pure:.3f}",
    )


def test_criterion_7_singlet_equality_and_upper_bound():
    rng = np.random.default_rng(707)
    singlet = bell_state("psi_minus")
    bell = bell_state("phi_plus")
    worst_eq = 0.0
    worst_excess = -1.0
    for _ in range(1000):
        channel = random_unital_channel(rng)
        prediction = predict_two_sided(channel.radii)
        worst_eq = max(
            worst_eq, abs(concurrence(apply_two_sided(channel, singlet)).c - prediction)
        )
        worst_excess = max(
            worst_excess, concurrence(apply_two_sided(channel, bell)).c - prediction
        )
    report(
        7,
        "singlet equality and two-sided upper bound, 1000 rotated unital channels",
        worst_eq < 1e-9 and worst_excess <= 1e-10,
        f"equality dev {worst_eq:.2e}, bound excess {worst_excess:.2e}",
    )


def test_criterion_8_tomography_pipeline():
    t0 = time.perf_counter()
    config = SweepConfig(
        family="isotropic",
        mode="one_sided",
        initial=InitialStateSpec(kind="bell", bell="phi_plus"),
        p_grid=tuple(np.round(np.linspace(0.0, 1.0, 11), 10)),
        pipeline=Pipeline(kind="shot_noise", n_per_setting=10_000, trials=50, seed=88),
    )
    rows = run_sweep(config)
    within = [abs(r.concurrence - r.predicted) <= 3.0 * r.error + 1e-12 for r in rows]
    coverage = sum(within) / len(rows)
    # "order 0.01" precision applies to interior concurrence values; at the
    # C = 1 boundary the physicality constraint suppresses the spread
    interior_sigmas = [r.error for r in rows if 0.05 < r.predicted < 0.95]
    sigma_ok = all(1e-3 < s < 0.05 for s in interior_sigmas)
    elapsed = time.perf_counter() - t0
    report(
        8,
        "tomography pipeline tracks analytic line (N=1e4, 50 MC trials, 11 points)",
        coverage >= 0.95 and sigma_ok and elapsed < 300.0,
        f"coverage {sum(within)}/11, interior sigma {min(interior_sigmas):.4f}"
        f"-{max(interior_sigmas):.4f}, {elapsed:.0f}s",
    )


def test_criterion_9_process_tomography_curves():
    from entdyn.tomography import process_tomography_single_qubit, simulate_probe_outputs

    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for p in grid:
        for channel, theory in (
            (channel_for("two-field", p), [1 - p, p / 2, p / 2, 0.0]),
            (channel_for("isotropic", p), [1 - p, p / 3, p / 3, p / 3]),
        ):
            chi = process_tomography_single_qubit(simulate_probe_outputs(channel))
            eigs = np.sort(np.linalg.eigvalsh(chi))[::-1]
            worst = max(worst, float(np.max(np.abs(eigs - np.sort(theory)[::-1]))))
    report(
        9,
        "process tomography recovers eigenvalue curves from exact probes",
        worst < 1e-10,
        f"max dev {worst:.2e}",
    )


def test_criterion_10_hardware_numbers_excluded():
    # The library's defaults produce the ideal values; the measured hardware
    # numbers (breaking at 0.62, initial concurrence 0.90, process P values
    # 0.52/0.59/0.31/0.35) are not modeled anywhere. The only nod to them is
    # the off-by-default p_scale knob that stretches predicted curves for
    # figure comparison.
    assert SweepConfig().p_scale is None
    ideal = breaking_point("isotropic", "one_sided")
    assert ideal == pytest.approx(0.5, abs=1e-6)

    initial = concurrence(make_initial(InitialStateSpec(kind="bell"))).c
    assert initial == pytest.approx(1.0, abs=1e-12)  # not 0.90

    scaled = SweepConfig(
        family="isotropic",
        mode="one_sided",
        p_grid=tuple(np.linspace(0.0, 1.0, 101)),
        pipeline=Pipeline(kind="analytic"),
        p_scale=0.62 / 0.5,
    )
    rows = run_sweep(scaled)
    predicted_zero = next(r.p for r in rows if r.predicted <= 1e-12)
    simulated_zero = next(r.p for r in rows if r.concurrence <= 1e-12)
    report(
        10,
        "hardware-specific numbers excluded (ideal defaults, opt-in figure scaling)",
        abs(predicted_zero - 0.62) < 0.011 and abs(simulated_zero - 0.5) < 0.011,
        f"scaled predicted zero {predicted_zero:.2f}, unscaled simulated zero {simulated_zero:.2f}",
    )
