import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entdyn.channels import PauliChannel, apply_one_sided, channel_for
from entdyn.dynamics import concurrence
from entdyn.sampling import random_unital_channel
from entdyn.states import BASIS_KETS, bell_state, dm, fidelity
import entdyn.tomography
from entdyn.cli import main
from entdyn.tomography import (
    DEFAULT_PROBE_LABELS,
    LIKELIHOODS,
    MAX_COUNT,
    _T_BASIS,
    CountRecord,
    MeasurementSetting,
    _arrays,
    _fit,
    _objective,
    _params_from_rho,
    born_probability,
    ellipsoid_mesh,
    linear_inversion_state,
    minimize,
    monte_carlo_errors,
    process_tomography_single_qubit,
    read_counts_csv,
    reconstruct_state_mle,
    simulate_counts,
    simulate_probe_outputs,
    standard_settings,
    write_counts_csv,
)
from oracles import kraus_apply, random_density_matrix, trace_distance


def minimal_settings():
    """A minimal informationally complete 16-setting scan."""
    pairs = ("HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
             "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL")
    return [MeasurementSetting(a, b) for a, b in pairs]


def exact_records(rho, n, settings=None):
    settings = standard_settings() if settings is None else settings
    return [
        CountRecord(s, int(round(n * born_probability(rho, s))), float(n)) for s in settings
    ]


class TestSettings:
    def test_thirty_six(self):
        settings = standard_settings()
        assert len(settings) == 36
        assert len(set((s.proj_a, s.proj_b) for s in settings)) == 36

    def test_contains_hh_projector(self):
        assert MeasurementSetting("H", "H") in standard_settings()
        op = MeasurementSetting("H", "H").operator()
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(op, expected)

    def test_operators_are_arm_ordered_products(self):
        for s in standard_settings():
            assert np.array_equal(s.operator(), np.kron(dm(BASIS_KETS[s.proj_a]), dm(BASIS_KETS[s.proj_b])))

    def test_single_qubit_projectors_unbiased(self):
        eye = np.eye(2) / 2
        for label in ("H", "V", "D", "A", "R", "L"):
            p = dm(BASIS_KETS[label])
            assert np.trace(p @ p).real == pytest.approx(1.0, abs=1e-12)  # idempotent, rank 1
            assert np.trace(p @ eye).real == pytest.approx(0.5, abs=1e-12)

    def test_minimal_sixteen_complete(self):
        settings = minimal_settings()
        assert len(settings) == 16
        mat = np.stack([s.operator().reshape(16) for s in settings])
        assert np.linalg.matrix_rank(mat) == 16

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            MeasurementSetting("H", "Q")


def legacy_counts(rho, n, seed):
    """36-setting counts as the hard cases below were found on them: drawn
    count by count from ``np.random.default_rng(seed)``, by inversion below
    mean 30 and as a rounded Gaussian above. Keeps those cases on their
    exact counts now that the program draws exact Poisson counts."""
    rng = np.random.default_rng(seed)
    settings = standard_settings()
    operators = np.array([s.operator() for s in settings])
    means = n * np.maximum(np.einsum("sab,ba->s", operators, rho).real, 0.0)
    records = []
    for s, mean in zip(settings, means.tolist()):
        k = 0
        if 0.0 < mean < 30.0:
            u, p = rng.random(), math.exp(-mean)
            c = p
            while u > c and k < 1000:
                k += 1
                p *= mean / k
                c += p
        elif mean >= 30.0:
            k = max(0, int(round(rng.normal(mean, math.sqrt(mean)))))
        records.append(CountRecord(s, k, float(n)))
    return records


def repeated_counts(mean, draws, seed):
    """``draws`` counts of one setting with Born probability 1, at ``mean``
    pairs per setting."""
    hh = MeasurementSetting("H", "H")
    records = simulate_counts(dm(np.kron(BASIS_KETS["H"], BASIS_KETS["H"])), [hh] * draws, mean, seed)
    return np.array([r.count for r in records])


class TestPoissonCounts:
    def test_small_mean_matches_exact_pmf(self):
        mean, n = 3, 20000
        samples = repeated_counts(mean, n, seed=6)
        for k in range(8):
            pmf = math.exp(-mean) * mean**k / math.factorial(k)
            observed = np.mean(samples == k)
            assert observed == pytest.approx(pmf, abs=5 * math.sqrt(pmf * (1 - pmf) / n) + 1e-4)

    def test_large_mean_moments(self):
        mean, n = 5000, 4000
        samples = repeated_counts(mean, n, seed=7)
        assert samples.mean() == pytest.approx(mean, abs=5 * math.sqrt(mean / n))
        assert samples.var() == pytest.approx(mean, rel=0.2)
        assert np.all(samples >= 0)

    def test_skewness_is_poisson(self):
        # a rounded Gaussian has skewness 0; a Poisson count of mean m has
        # 1 / sqrt(m), here 0.141, and the sample skewness of n draws has a
        # standard error of about sqrt(6 / n)
        mean, n = 50, 10**5
        samples = repeated_counts(mean, n, seed=8).astype(float)
        centred = samples - samples.mean()
        skewness = np.mean(centred**3) / np.mean(centred**2) ** 1.5
        assert abs(skewness - 1 / math.sqrt(mean)) < 5 * math.sqrt(6 / n)

    def test_counts_above_the_limit_rejected(self, tmp_path):
        hh = MeasurementSetting("H", "H")
        with pytest.raises(ValueError, match="n_per_setting: must be <= 1e18"):
            simulate_counts(bell_state("phi+"), [hh], MAX_COUNT + 1, seed=1)
        assert simulate_counts(bell_state("phi+"), [hh], MAX_COUNT, seed=1)[0].count > 0
        # |HH> on HH has Born probability 1: a draw above the largest mean is a valid record
        rho = dm(np.kron(BASIS_KETS["H"], BASIS_KETS["H"]))
        assert simulate_counts(rho, standard_settings(), MAX_COUNT, seed=1)[0].count > MAX_COUNT
        with pytest.raises(ValueError, match="count: must be <= 2e18"):
            CountRecord(hh, 2 * MAX_COUNT + 1, 1.0)
        path = tmp_path / "counts.csv"
        path.write_text(f"proj_a,proj_b,count,exposure\nH,H,5,10.0\nH,V,{2 * MAX_COUNT + 1},10.0\n")
        with pytest.raises(ValueError, match=r"counts\.csv: .*data row 2 .*count: must be"):
            read_counts_csv(path)


class TestSimulateCounts:
    def test_orthogonal_setting_zero(self):
        rho = dm(np.kron(BASIS_KETS["H"], BASIS_KETS["H"]))
        records = simulate_counts(rho, [MeasurementSetting("V", "H")], 10_000, seed=1)
        assert records[0].count == 0

    def test_bell_hh_mean(self):
        records = simulate_counts(
            bell_state("phi+"), [MeasurementSetting("H", "H")], 10_000, seed=2
        )
        assert abs(records[0].count - 5000) < 5 * math.sqrt(5000)

    def test_deterministic_under_seed(self):
        rho = bell_state("psi-")
        a = simulate_counts(rho, standard_settings(), 1000, seed=42)
        b = simulate_counts(rho, standard_settings(), 1000, seed=42)
        assert [r.count for r in a] == [r.count for r in b]

    def test_invalid_exposure(self):
        with pytest.raises(ValueError):
            simulate_counts(bell_state("phi+"), standard_settings(), 0, seed=1)

    @pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, (9, 2, 1)])
    @pytest.mark.parametrize("n", [3, 100, 10_000])
    def test_draws_the_counts_of_the_per_setting_loop(self, seed, n):
        states = [bell_state("psi-"), random_density_matrix(np.random.default_rng(n), 4)]
        for rho in states:
            for chosen in (standard_settings(), [MeasurementSetting("D", "L")]):
                rng = np.random.default_rng(seed)
                loop = [
                    CountRecord(s, int(rng.poisson(n * max(born_probability(rho, s), 0.0))), float(n))
                    for s in chosen
                ]
                assert simulate_counts(rho, iter(chosen), n, seed=seed) == loop


class TestReconstruction:
    def test_noiseless_bell_high_fidelity(self):
        records = exact_records(bell_state("phi+"), 10**6)
        result = reconstruct_state_mle(records)
        assert result.converged
        assert fidelity(result.rho_hat, bell_state("phi+")) > 0.9999

    def test_maximally_mixed_trace_distance(self):
        mixed = np.eye(4, dtype=complex) / 4
        records = simulate_counts(mixed, standard_settings(), 10_000, seed=21)
        result = reconstruct_state_mle(records)
        assert trace_distance(result.rho_hat, mixed) < 0.02

    def test_output_always_physical(self):
        rng = np.random.default_rng(70)
        settings = standard_settings()
        records = [
            CountRecord(s, int(rng.integers(0, 500)), 300.0) for s in settings
        ]
        result = reconstruct_state_mle(records)
        r = result.rho_hat
        eigs = np.linalg.eigvalsh(r)
        assert eigs.min() >= -1e-6
        assert np.trace(r).real == pytest.approx(1.0, abs=1e-9)
        # a density matrix: finite, Hermitian, unit trace, no eigenvalue below -1e-10
        assert np.isfinite(r).all()
        assert np.abs(r - r.conj().T).max() <= 1e-12
        assert abs(np.trace(r) - 1) <= 1e-12
        assert eigs[0] >= -1e-10

    def test_incomplete_settings_rejected(self):
        rho = bell_state("phi+")
        records = exact_records(rho, 1000, settings=standard_settings()[:8])
        with pytest.raises(ValueError, match="informationally complete"):
            reconstruct_state_mle(records)

    def test_non_convergence_flagged(self):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=3)
        _, _, evals, _, converged = minimize(*_seeded_objective(records), 2)
        assert not converged
        assert evals == 2

    def test_error_decreases_with_counts(self):
        rho = bell_state("phi+")
        errors = []
        for n, seed in ((10**3, 31), (10**4, 32), (10**5, 33)):
            records = simulate_counts(rho, standard_settings(), n, seed=seed)
            result = reconstruct_state_mle(records)
            errors.append(abs(concurrence(result.rho_hat).c - 1.0))
        assert errors[2] < errors[1] < errors[0]

    def test_poisson_likelihood_agrees(self):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 5000, seed=8)
        gauss = reconstruct_state_mle(records, likelihood="gaussian")
        poiss = reconstruct_state_mle(records, likelihood="poisson")
        assert trace_distance(gauss.rho_hat, poiss.rho_hat) < 0.01

    def test_budget_is_a_hard_cap(self):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=3)
        full = reconstruct_state_mle(records)
        assert full.converged
        for max_evals in range(1, full.iterations + 1):
            _, _, evals, _, converged = minimize(*_seeded_objective(records), max_evals)
            assert evals == max_evals
            assert not converged

    def test_linear_inversion_recovers_exact(self):
        rng = np.random.default_rng(71)
        rho = random_density_matrix(rng, 4)
        records = []
        for s in standard_settings():
            p = born_probability(rho, s)
            records.append(CountRecord(s, int(round(p * 10**9)), 1e9))
        estimate = linear_inversion_state(records)
        assert trace_distance(estimate, rho) < 1e-4


class TestProcessTomography:
    def test_identity_channel(self):
        pairs = simulate_probe_outputs(PauliChannel([1, 0, 0, 0]))
        chi = process_tomography_single_qubit(pairs)
        assert np.max(np.abs(chi - np.diag([1, 0, 0, 0]))) < 1e-12

    def test_two_field_eigenvalues(self):
        for p in np.linspace(0.0, 1.0, 6):
            chi = process_tomography_single_qubit(simulate_probe_outputs(channel_for("two-field", p)))
            eigs = np.sort(np.linalg.eigvalsh(chi))[::-1]
            expected = np.sort([1 - p, p / 2, p / 2, 0.0])[::-1]
            assert np.max(np.abs(eigs - expected)) < 1e-10

    def test_isotropic_eigenvalues(self):
        for p in np.linspace(0.0, 1.0, 6):
            chi = process_tomography_single_qubit(simulate_probe_outputs(channel_for("isotropic", p)))
            eigs = np.sort(np.linalg.eigvalsh(chi))[::-1]
            expected = np.sort([1 - p, p / 3, p / 3, p / 3])[::-1]
            assert np.max(np.abs(eigs - expected)) < 1e-10

    @pytest.mark.parametrize("k, label", list(enumerate(DEFAULT_PROBE_LABELS)))
    def test_probe_pair_is_the_labelled_input_and_its_image(self, k, label):
        # a rotated channel, so that each probe's image moves off its axis
        channel = random_unital_channel(np.random.default_rng(60))
        pairs = simulate_probe_outputs(channel)
        assert len(pairs) == len(DEFAULT_PROBE_LABELS)
        ket, out = pairs[k]
        assert ket is BASIS_KETS[label]
        assert np.allclose(out, kraus_apply(channel, dm(ket)), atol=1e-13)

    def test_rank_deficient_probes_rejected(self):
        pairs = simulate_probe_outputs(channel_for("isotropic", 0.2))[:2]  # H and V only
        with pytest.raises(ValueError, match="rank deficient"):
            process_tomography_single_qubit(pairs)

    def test_non_cp_data_clipped_with_warning(self):
        # outputs describe x -> -x with y, z preserved: a universal-NOT on one
        # axis, which is not completely positive
        pairs = [
            (BASIS_KETS["H"], dm(BASIS_KETS["H"])),
            (BASIS_KETS["V"], dm(BASIS_KETS["V"])),
            (BASIS_KETS["D"], dm(BASIS_KETS["A"])),
            (BASIS_KETS["R"], dm(BASIS_KETS["R"])),
        ]
        with pytest.warns(UserWarning, match="projecting"):
            chi = process_tomography_single_qubit(pairs)
        assert np.linalg.eigvalsh(chi).min() >= -1e-12
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-9)

    def test_projection_without_a_positive_eigenvalue_is_the_maximally_mixed_map(self):
        # every probe mapped to -1: chi = -I / 2, which clipping empties
        pairs = [(BASIS_KETS[label], -np.eye(2)) for label in DEFAULT_PROBE_LABELS]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chi = process_tomography_single_qubit(pairs)
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
        assert "projecting" in str(caught[0].message)
        assert np.array_equal(chi, np.eye(4) / 4)

    def test_shot_noise_probes_approximate_theory(self):
        chi = process_tomography_single_qubit(
            simulate_probe_outputs(channel_for("two-field", 0.4), n_per_projector=200_000, seed=9)
        )
        assert np.max(np.abs(np.diag(chi).real - np.array([0.6, 0.2, 0.2, 0.0]))) < 0.02


class TestMonteCarlo:
    def test_shot_noise_scaling(self):
        # interior concurrence (C = 0.8), where the 1/sqrt(N) law applies
        rho = channel_for("isotropic", 0.1)
        from entdyn.channels import apply_one_sided

        rho = apply_one_sided(rho, bell_state("phi+"), target=1)
        sigmas = []
        for n, seed in ((10**3, 11), (10**4, 12), (10**5, 13)):
            records = simulate_counts(rho, standard_settings(), n, seed=seed)
            est = monte_carlo_errors(records, 10, (seed, 1), reconstruct_state_mle(records))
            sigmas.append(est.std_dev)
        for i in range(2):
            ratio = sigmas[i] / sigmas[i + 1]
            assert math.sqrt(10) / 2 < ratio < 2 * math.sqrt(10)

    def test_boundary_state_spread_suppressed(self):
        # at C = 1 the physicality constraint clips fluctuations quadratically,
        # so the spread sits well below the interior 1/sqrt(N) scale
        records = legacy_counts(bell_state("phi+"), 10**4, seed=12)
        est = monte_carlo_errors(records, 10, (12, 1), reconstruct_state_mle(records))
        assert est.std_dev < 0.002

    def test_two_trials_degenerate(self):
        records = exact_records(bell_state("phi+"), 500)
        est = monte_carlo_errors(records, 2, 5, reconstruct_state_mle(records))
        assert est.std_dev >= 0.0
        assert est.trials == 2

    def test_dropped_trials_counted(self, monkeypatch):
        records = exact_records(bell_state("phi+"), 500)
        base = reconstruct_state_mle(records)
        original = entdyn.tomography.wootters

        def first_trial_nan(states):
            q, roots = original(states)
            return np.where(np.arange(len(q)) == 0, math.nan, q), roots

        monkeypatch.setattr(entdyn.tomography, "wootters", first_trial_nan)
        est = monte_carlo_errors(records, 4, 6, base)
        assert est.dropped == 1
        assert est.trials == 3

    def test_too_few_trials(self):
        records = exact_records(bell_state("phi+"), 500)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_errors(records, 1, 1, reconstruct_state_mle(records))

    def test_too_few_usable_trials(self, monkeypatch):
        # every refit but the last has no concurrence: one value is left
        records = exact_records(bell_state("phi+"), 500)
        base = reconstruct_state_mle(records)
        original = entdyn.tomography.wootters

        def last_trial_only(states):
            q, roots = original(states)
            return np.where(np.arange(len(q)) == len(q) - 1, q, math.nan), roots

        monkeypatch.setattr(entdyn.tomography, "wootters", last_trial_only)
        with pytest.raises(ValueError, match="^only 1 usable trials out of 3$"):
            monte_carlo_errors(records, 3, 6, base)

    @pytest.mark.parametrize(
        "rho_hat, message",
        [(np.eye(2) / 2, "shape"),
         (np.full((4, 4), np.nan), "finite"),
         (np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-9), 1), "Hermitian")],
        ids=["shape", "nan", "non_hermitian"],
    )
    def test_bad_base_rejected_by_name(self, rho_hat, message):
        records = exact_records(bell_state("phi+"), 1000)
        base = replace(reconstruct_state_mle(records), rho_hat=rho_hat)
        with pytest.raises(ValueError, match=f"^base.rho_hat: .*{message}"):
            monte_carlo_errors(records, 2, 1, base)

    def test_base_within_the_hermitian_tolerance_accepted(self):
        records = exact_records(bell_state("phi+"), 1000)
        skewed = np.eye(4) / 4 + np.triu(np.full((4, 4), 1e-11), 1)
        base = replace(reconstruct_state_mle(records), rho_hat=skewed)
        assert monte_carlo_errors(records, 2, 1, base).trials == 2

    def test_converts_records_to_arrays_once(self, monkeypatch):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=8)
        base = reconstruct_state_mle(records)
        calls = []
        original = entdyn.tomography._arrays
        monkeypatch.setattr(entdyn.tomography, "_arrays",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        monte_carlo_errors(records, 2, 8, base)
        assert len(calls) == 1


def per_trial_bootstrap(records, trials, seed, likelihood, base):
    """The per-trial bootstrap loop that the array bootstrap replaced: a
    resampled record list and a fit warm-started from the base per trial,
    the concurrence of each refit state."""
    observed = np.array([r.count for r in records], dtype=float)
    t0 = _params_from_rho(base.rho_hat)
    values, dropped, unconverged = [], 0, 0
    for trial in range(trials):
        counts = np.random.default_rng([*seed, trial]).poisson(observed).tolist()
        resampled = [CountRecord(r.setting, c, r.exposure) for r, c in zip(records, counts)]
        fit = _fit(likelihood, *_arrays(resampled), t0)
        unconverged += not fit.converged
        value = concurrence(fit.rho_hat).c
        if math.isfinite(value):
            values.append(value)
        else:
            dropped += 1
    arr = np.asarray(values)
    return arr.mean(), arr.std(ddof=1), len(values), dropped, unconverged


BOOTSTRAP_STATES = {
    # interior: full rank, concurrence well above zero
    "entangled": lambda: apply_one_sided(channel_for("isotropic", 0.3), bell_state("phi+"), target=1),
    # past the breaking point (1/2): each refit's Wootters q is below zero,
    # so each value is the clip to zero
    "separable": lambda: apply_one_sided(channel_for("isotropic", 0.6), bell_state("phi+"), target=1),
    # rank 1: every refit sits on the boundary of the state space
    "pure": lambda: bell_state("psi-"),
}


class TestArrayBootstrap:
    @pytest.mark.parametrize("likelihood", LIKELIHOODS)
    @pytest.mark.parametrize("state", list(BOOTSTRAP_STATES))
    def test_matches_the_per_trial_loop(self, state, likelihood):
        rho = BOOTSTRAP_STATES[state]()
        records = simulate_counts(rho, standard_settings(), 1000, seed=41)
        base = reconstruct_state_mle(records, likelihood=likelihood)
        est = monte_carlo_errors(records, 12, (41, 1), base, likelihood=likelihood)
        mean, std_dev, trials, dropped, unconverged = per_trial_bootstrap(
            records, 12, (41, 1), likelihood, base
        )
        assert est.mean == mean and est.std_dev == std_dev
        assert (est.trials, est.dropped, est.unconverged) == (trials, dropped, unconverged)
        assert est.trials >= 2 and est.dropped == 0


def _fit_objective(records, likelihood):
    return _objective(likelihood, *_arrays(records))


def _seeded_objective(records):
    """The Gaussian objective of the records and the T-parameters of their
    linear-inversion seed: the search the public fit runs."""
    return _fit_objective(records, "gaussian"), _params_from_rho(linear_inversion_state(records))


def _derivative_point(likelihood, point):
    """The objective of seeded counts and T-parameters of an interior or a
    near-rank-1 state."""
    rng = np.random.default_rng(90)
    records = simulate_counts(random_density_matrix(rng, 4), standard_settings(), 1000, seed=91)
    if point == "interior":
        t = _params_from_rho(random_density_matrix(rng, 4))
    else:
        psi = dm(np.array([0.6, 0.0, 0.0, 0.8], dtype=complex))
        t = _params_from_rho(0.999 * psi + 0.00025 * np.eye(4))
    return _fit_objective(records, likelihood), t


class TestGradientFit:
    @pytest.mark.parametrize("likelihood", ["gaussian", "poisson"])
    @pytest.mark.parametrize("point", ["interior", "near_rank_1"])
    def test_gradient_matches_central_differences(self, likelihood, point):
        fun, t = _derivative_point(likelihood, point)
        numeric = np.array(
            [(fun(t + 1e-6 * e)[0] - fun(t - 1e-6 * e)[0]) / 2e-6 for e in np.eye(16)]
        )
        assert np.linalg.norm(fun(t)[1] - numeric) <= 1e-6 * np.linalg.norm(numeric)

    @pytest.mark.parametrize("likelihood", ["gaussian", "poisson"])
    @pytest.mark.parametrize("point", ["interior", "near_rank_1"])
    def test_hessian_matches_central_differences(self, likelihood, point):
        fun, t = _derivative_point(likelihood, point)
        numeric = np.array(
            [(fun(t + 1e-6 * e)[1] - fun(t - 1e-6 * e)[1]) / 2e-6 for e in np.eye(16)]
        )
        assert np.linalg.norm(fun(t)[2] - numeric) <= 1e-6 * np.linalg.norm(numeric)

    # psi+ through two-field p = 0.7 one-sided noise has its maximum on the
    # rank-deficient boundary. Each reference is the higher of an earlier
    # L-BFGS fit of these counts and a warm refit of it; that fit reported
    # convergence up to 9e-8 short of the maximum.
    @pytest.mark.parametrize(
        "seed, likelihood, n, reference",
        [(34, "gaussian", 10_000, -5.23114478222139),
         (34, "poisson", 1000, 41205.30842220383),
         (68, "gaussian", 10_000, -13.14016279830691),
         (68, "poisson", 1000, 41586.45056158812),
         (69, "gaussian", 10_000, -5.970998556267144),
         (69, "poisson", 1000, 41597.13248065983)],
    )
    def test_boundary_fit_reaches_the_maximum(self, seed, likelihood, n, reference):
        rho = apply_one_sided(channel_for("two-field", 0.7), bell_state("psi+"), target=1)
        records = legacy_counts(rho, n, seed)
        fit = reconstruct_state_mle(records, likelihood=likelihood)
        assert fit.converged
        assert fit.log_likelihood >= reference - 1e-9 * abs(reference)

    def test_rank_deficient_seed_reaches_the_maximum(self):
        # pure singlet: the linear-inversion seed is rank deficient, its
        # T-diagonal near zero; the search must still reach the maximum
        records = legacy_counts(bell_state("psi-"), 10_000, seed=6)
        fun = _fit_objective(records, "gaussian")
        raw = linear_inversion_state(records)
        assert np.linalg.eigvalsh(raw)[0] < 1e-12
        _, f, _, _, converged = minimize(fun, _params_from_rho(raw), 10_000)
        fit = reconstruct_state_mle(records)
        assert converged and fit.converged
        assert -f == pytest.approx(fit.log_likelihood, abs=1e-6 * (1 + abs(f)))

    def test_rank_deficient_rank_2_seed_reaches_the_maximum(self):
        # a rank-2 state whose rank-deficient linear-inversion seed stalled
        # an earlier (L-BFGS) search 0.5% short of the maximum
        rho = apply_one_sided(channel_for("two-field", 0.7), bell_state("psi-"), target=1)
        records = legacy_counts(rho, 10_000, seed=0)
        assert np.linalg.eigvalsh(linear_inversion_state(records))[0] < 1e-12
        fit = reconstruct_state_mle(records)
        interior = _fit("gaussian", *_arrays(records), _params_from_rho(np.eye(4) / 4))
        assert fit.converged and interior.converged
        scale = 1 + abs(interior.log_likelihood)
        assert fit.log_likelihood == pytest.approx(interior.log_likelihood, abs=1e-6 * scale)

    @pytest.mark.parametrize("likelihood", ["gaussian", "poisson"])
    def test_fit_is_stationary(self, likelihood):
        rho = 0.8 * bell_state("phi-") + 0.05 * np.eye(4)
        records = simulate_counts(rho, standard_settings(), 10_000, seed=12)
        result = reconstruct_state_mle(records, likelihood=likelihood)
        assert result.converged
        fun = _fit_objective(records, likelihood)
        t = _params_from_rho(result.rho_hat)
        f_hat = fun(t)[0]
        assert -f_hat == pytest.approx(result.log_likelihood, abs=1e-9 * (1 + abs(f_hat)))
        _, f_more, *_ = minimize(fun, t, 10_000)
        assert f_hat - f_more < 1e-9 * (1 + abs(f_hat))

    def test_unconverged_refits_counted_and_kept(self, monkeypatch):
        # every refit runs the fit core; call 1 is the first refit
        records = exact_records(bell_state("phi+"), 500)
        base = reconstruct_state_mle(records)
        fit = entdyn.tomography._fit
        calls = {"n": 0}

        def first_refit_unconverged(*args, **kwargs):
            result = fit(*args, **kwargs)
            calls["n"] += 1
            return replace(result, converged=False) if calls["n"] == 1 else result

        monkeypatch.setattr(entdyn.tomography, "_fit", first_refit_unconverged)
        est = monte_carlo_errors(records, 3, 6, base)
        assert est.unconverged == 1
        assert est.trials == 3 and est.dropped == 0


# Oracle: the complex-T objective that the real quadratic-form kernel replaced.


def complex_t_objective(likelihood, pmat, counts, exposures):
    """f and gradient through T, A = T^dag T and the 4x4 H of df = Tr(H dA):
    df/dT = 2 T H, read back on the T-parameters through _T_BASIS."""
    gaussian = likelihood == "gaussian"

    def fun(t):
        T = (_T_BASIS @ t).reshape(4, 4)
        trace = t @ t
        p_raw = (pmat @ (T.conj().T @ T).reshape(16)).real / trace
        p = np.maximum(p_raw, 1e-12)
        mu = exposures * p
        if gaussian:
            f = ((mu - counts) ** 2 / (2.0 * mu)).sum()
            df_dmu = 0.5 * (1.0 - (counts / mu) ** 2)
        else:
            f = (mu - counts * np.log(mu)).sum()
            df_dmu = 1.0 - counts / mu
        # below p = 1e-12 only the count term is clipped, not the term linear in mu
        slope = 0.5 if gaussian else 1.0
        f += slope * (exposures * (p_raw - p)).sum()
        g = np.where(p_raw > 1e-12, exposures * df_dmu, slope * exposures)
        h = (g @ pmat).reshape(4, 4).T
        h.flat[::5] -= g @ p_raw
        m = (2.0 / trace) * (T @ h)
        return float(f), (_T_BASIS.conj().T @ m.reshape(16)).real

    return fun


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

# T-parameters of T's first column (diagonal 0, lower (1, 0), (2, 0), (3, 0),
# real and imaginary): T^dag T is then |HH><HH|, and every setting with a V
# arm has Born probability zero.
_FIRST_COLUMN = [0, 4, 5, 7, 10, 11, 13]
# T-parameters of T's last row, which alone make T^dag T a pure state.
_LAST_ROW = [3, 7, 8, 9, 13, 14, 15]


@st.composite
def fit_points(draw):
    """(likelihood, counts, t): counts of the 36 settings at 1000 pairs each,
    and T-parameters that are interior, near rank 1, or on |HH><HH|, where
    probabilities are clipped. Not all counts are zero: with none, f is
    constant (the 36 projectors sum to 9 I) and the gradient vanishes."""
    likelihood = draw(st.sampled_from(LIKELIHOODS))
    counts = draw(arrays(np.float64, 36, elements=st.integers(0, 1000).map(float)))
    assume(counts.any())
    t = draw(arrays(np.float64, 16, elements=st.floats(-1.0, 1.0, allow_nan=False)))
    kind = draw(st.sampled_from(["interior", "near_rank_1", "zero_probabilities"]))
    if kind == "near_rank_1":
        t[[i for i in range(16) if i not in _LAST_ROW]] *= 1e-4
        t[3] = 1.0
    elif kind == "zero_probabilities":
        t[[i for i in range(16) if i not in _FIRST_COLUMN]] = 0.0
        t[0] = 1.0
    elif np.linalg.norm(t) < 1e-3:
        t[:4] = 1.0
    return likelihood, counts, t


class TestKernelOracles:
    @PROPERTY
    @given(fit_points())
    def test_quadratic_form_kernel_matches_complex_t(self, point):
        likelihood, counts, t = point
        records = [CountRecord(s, int(c), 1000.0) for s, c in zip(standard_settings(), counts)]
        design, _, exposures = _arrays(records)
        f, grad, *_ = _objective(likelihood, design, counts, exposures)(t)
        f_ref, grad_ref = complex_t_objective(likelihood, design.pmat, counts, exposures)(t)
        # Both routes compute each p_s to about 1e-15 absolute. Where p_s is
        # tiny and its count is not, that error is carried through
        # g_s = e f'(mu) into f and through e^2 f''(mu) into the gradient,
        # which also sums 37 vectors of length up to 2 |g_s| / |t| each.
        T = (_T_BASIS @ t).reshape(4, 4)
        p_raw = (design.pmat @ (T.conj().T @ T).reshape(16)).real / (t @ t)
        mu = exposures * np.maximum(p_raw, 1e-12)
        if likelihood == "gaussian":
            df, d2f, slope = 0.5 * (1.0 - (counts / mu) ** 2), counts**2 / mu**3, 0.5
        else:
            df, d2f, slope = 1.0 - counts / mu, counts / mu**2, 1.0
        kept = p_raw > 1e-12
        g = np.abs(np.where(kept, exposures * df, slope * exposures)).sum()
        h = np.where(kept, exposures**2 * d2f, 0.0).sum()
        assert abs(f - f_ref) <= 1e-12 * abs(f_ref) + 1e-15 * g
        error = np.linalg.norm(grad - grad_ref)
        assert error <= 1e-10 * np.linalg.norm(grad_ref) + 1e-15 * (4.0 * g + 2.0 * h) / np.linalg.norm(t)


@st.composite
def count_vectors(draw):
    """Counts of the 36 settings: any, all zero, or one nonzero."""
    kind = draw(st.sampled_from(["any", "zero", "single"]))
    if kind == "any":
        return draw(arrays(np.float64, 36, elements=st.integers(0, 1000).map(float)))
    counts = np.zeros(36)
    if kind == "single":
        counts[draw(st.integers(0, 35))] = draw(st.integers(1, 1000))
    return counts


def _sparse(exposure, **counts):
    """A count vector with the given nonzero counts, keyed by setting label."""
    labels = [s.proj_a + s.proj_b for s in standard_settings()]
    return np.array([float(counts.get(label, 0)) for label in labels]), exposure


class TestNewtonFit:
    @PROPERTY
    @given(st.sampled_from(LIKELIHOODS), count_vectors(), st.floats(10.0, 1e5))
    # no counts at equal exposures: f is flat, and its Hessian is rounding
    @example("gaussian", *_sparse(7785.44144133351))
    # a setting whose probability falls below the 1e-12 clip on the way
    @example("poisson", *_sparse(279.83144106706516, RA=417))
    # a T-row shrinks to zero early and the search passes near a saddle
    @example("gaussian", *_sparse(6238.59541745942, HV=658, HR=937, AH=8))
    def test_fit_converges_and_a_warm_refit_gains_nothing(self, likelihood, counts, exposure):
        records = [CountRecord(s, int(c), exposure) for s, c in zip(standard_settings(), counts)]
        fit = reconstruct_state_mle(records, likelihood=likelihood)
        assert fit.converged
        fun = _fit_objective(records, likelihood)
        _, f_more, *_ = minimize(fun, _params_from_rho(fit.rho_hat), 10_000)
        assert -f_more - fit.log_likelihood <= 1e-9 * (1 + abs(fit.log_likelihood))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("start", [*range(9), "random"])
    def test_search_reaches_the_smallest_rayleigh_quotient(self, start, seed):
        # f(t) = t.A t / t.t is minimal at the eigenvector of A's smallest
        # eigenvalue and has a saddle at every other eigenvector, where the
        # gradient vanishes and only the negative-curvature step leaves.
        rng = np.random.default_rng([seed, 16])
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        levels = np.arange(16.0) + rng.uniform(0.0, 0.5, size=16)
        a = (q * levels) @ q.T

        def rayleigh(t):
            n = float(t @ t)
            f = float(t @ a @ t) / n
            w = a @ t - f * t
            tw = np.outer(t, w)
            hess = (2.0 / n) * (a - f * np.eye(16)) - (4.0 / n**2) * (tw + tw.T)
            return f, (2.0 / n) * w, hess, (2.0 / n) * float(np.abs(levels).sum())

        t0 = rng.normal(size=16) if start == "random" else q[:, start]
        t, f, evals, steps, converged = minimize(rayleigh, t0, 1_000)
        assert converged
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-14)
        assert f == pytest.approx(levels[0], rel=1e-12, abs=1e-12)
        assert abs(t @ q[:, 0]) == pytest.approx(1.0, abs=1e-9)
        assert (steps == 0) == (start == 0)

    def test_budget_spent_off_a_saddle_is_not_converged(self):
        # at e0 the gradient vanishes, so the stop rule is met, but the
        # curvature along t1 is negative, and the first step along it
        # overshoots to f = 2. A budget spent there has not reached the
        # minimum f = -1/40 at s^2 = 1/20.
        e0 = np.array([1.0, 0.0])
        t, f, evals, steps, converged = minimize(saddle_quartic(1.0), e0, 2)
        assert (t.tolist(), f, evals, steps, converged) == ([1.0, 0.0], 0.0, 2, 0, False)
        t, f, evals, steps, converged = minimize(saddle_quartic(1.0), e0, 50)
        assert converged
        assert f == pytest.approx(-0.025, abs=1e-12)

    def test_saddle_left_when_its_curvature_is_above_the_floor(self):
        # a size of 5e11 puts the eigenvalue floor at 1e-12 * size = 0.5,
        # against the saddle's lowest eigenvalue of -2: below minus the
        # floor, so the search leaves e0 and reaches the minimum
        t, f, evals, steps, converged = minimize(saddle_quartic(5e11), np.array([1.0, 0.0]), 50)
        assert converged and steps > 0
        assert f == pytest.approx(-0.025, abs=1e-12)


def saddle_quartic(size):
    """f = -s^2 + 10 s^4 with s = t1 / |t|, its gradient and Hessian, and
    the given rounding size: a saddle at e0, where the curvature along t1
    is -2, and minima f = -1/40 at s^2 = 1/20."""

    def quartic(t):
        a, b = t
        r2 = float(t @ t)
        u = b * b / r2
        du = np.array([-2 * a * b * b, 2 * a * a * b]) / r2**2
        d2u = np.array([[6 * a * a * b * b - 2 * b**4, 4 * a * b**3 - 4 * a**3 * b],
                        [4 * a * b**3 - 4 * a**3 * b, 2 * a**4 - 6 * a * a * b * b]]) / r2**3
        slope = 20 * u - 1
        return -u + 10 * u * u, slope * du, 20 * np.outer(du, du) + slope * d2u, size

    return quartic


def _counted(monkeypatch, name):
    """Count the calls of ``np.linalg.<name>`` for the rest of the test."""
    calls = []
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(name) or original(*a, **k))
    return calls


class TestScanConstants:
    @PROPERTY
    @given(st.sampled_from(["standard", "minimal"]), count_vectors(), st.floats(10.0, 1e5))
    def test_pinv_seed_matches_lstsq(self, scan, counts, exposure):
        settings = standard_settings() if scan == "standard" else minimal_settings()
        records = [CountRecord(s, int(c), exposure) for s, c in zip(settings, counts)]
        design, counts, exposures = _arrays(records)
        frequencies = counts / exposures
        reference, *_ = np.linalg.lstsq(design.pmat, frequencies, rcond=None)
        assert np.abs(design.pinv @ frequencies - reference).max() <= 1e-12

    def test_one_tomo_sim_op_solves_no_least_squares(self, tmp_path, monkeypatch):
        calls = _counted(monkeypatch, "lstsq")
        argv = ["tomo-sim", "--family", "two-field", "--mode", "two_sided", "--p", "0.3",
                "--initial", "pes:0.3:0.5", "--trials", "2", "--seed", "3",
                "--out", str(tmp_path / "summary.json")]
        assert main(argv) == 0
        assert calls == []

    def test_pinv_once_per_scan_across_fits(self, monkeypatch):
        entdyn.tomography._design.cache_clear()
        calls = _counted(monkeypatch, "pinv")
        for settings in (standard_settings(), minimal_settings()):
            for seed in range(3):
                records = simulate_counts(bell_state("psi-"), settings, 1000, seed)
                base = reconstruct_state_mle(records, likelihood="poisson")
                monte_carlo_errors(records, 2, seed, base)
        assert calls == ["pinv", "pinv"]

    def test_standard_settings_is_a_new_list_each_call(self):
        first = standard_settings()
        first.pop()
        assert len(standard_settings()) == 36


class TestEllipsoidMesh:
    def test_identity_unit_sphere(self):
        mesh = ellipsoid_mesh(PauliChannel([1, 0, 0, 0]), n_theta=7, n_phi=12)
        assert mesh.shape == (84, 3)
        assert np.allclose(np.linalg.norm(mesh, axis=1), 1.0, atol=1e-12)

    def test_isotropic_breaking_radius(self):
        p_star = (3 - math.sqrt(3)) / 4
        mesh = ellipsoid_mesh(channel_for("isotropic", p_star), n_theta=9, n_phi=9)
        assert np.allclose(np.linalg.norm(mesh, axis=1), math.sqrt(1 / 3), atol=1e-12)

    def test_two_field_half_collapses_to_disk(self):
        mesh = ellipsoid_mesh(channel_for("two-field", 0.5), n_theta=11, n_phi=8)
        assert np.max(np.abs(mesh[:, 2])) < 1e-12
        assert np.max(np.linalg.norm(mesh[:, :2], axis=1)) == pytest.approx(0.5, abs=1e-12)

    def test_norms_bounded_for_cp_channels(self):
        rng = np.random.default_rng(72)
        from entdyn.sampling import random_unital_channel

        mesh = ellipsoid_mesh(random_unital_channel(rng), n_theta=9, n_phi=9)
        assert np.max(np.linalg.norm(mesh, axis=1)) <= 1.0 + 1e-12


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 2000, seed=14)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        back = read_counts_csv(path)
        assert back == records

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("proj_a,proj_b,count,exposure\n")
        with pytest.raises(ValueError):
            read_counts_csv(path)

    @pytest.mark.parametrize(
        "row, problem",
        [("H,V,12.5,1000.0", "invalid literal"), ("H,V,12,nan", "exposure"),
         ("H,V,12,inf", "exposure"), ("H,Q,12,1000.0", "proj_b")],
    )
    def test_bad_row_names_file_and_row(self, tmp_path, row, problem):
        path = tmp_path / "counts.csv"
        path.write_text(f"proj_a,proj_b,count,exposure\nH,H,500,1000.0\n{row}\n")
        with pytest.raises(ValueError, match=rf"counts\.csv: .*data row 2 .*{problem}"):
            read_counts_csv(path)

    def test_repeated_setting_names_file_and_both_rows(self, tmp_path):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 2000, seed=14)
        path = tmp_path / "counts.csv"
        write_counts_csv(records + records[4:7], path)
        with pytest.raises(ValueError, match=r"counts\.csv: setting HR repeated on data rows 5 and 37"):
            read_counts_csv(path)

    def test_incomplete_settings_name_file_and_missing_settings(self, tmp_path):
        records = simulate_counts(bell_state("phi+"), standard_settings(), 2000, seed=14)
        path = tmp_path / "counts.csv"
        write_counts_csv(records[:20], path)
        with pytest.raises(ValueError) as info:
            read_counts_csv(path)
        message = str(info.value)
        assert message.startswith(f"{path}: settings are not informationally complete")
        assert message.endswith("lacks " + ", ".join(s.proj_a + s.proj_b for s in standard_settings()[20:]))

    def test_minimal_settings_accepted(self, tmp_path):
        records = simulate_counts(bell_state("phi+"), minimal_settings(), 2000, seed=14)
        path = tmp_path / "counts.csv"
        write_counts_csv(records, path)
        assert read_counts_csv(path) == records

    def test_record_rejects_non_finite_values(self):
        for exposure in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="exposure"):
                CountRecord(MeasurementSetting("H", "H"), 5, exposure)
        with pytest.raises(ValueError, match="count"):
            CountRecord(MeasurementSetting("H", "H"), math.nan, 1000.0)
