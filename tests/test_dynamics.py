import math

import numpy as np
import pytest

import entdyn.dynamics
from entdyn.channels import (
    PauliChannel,
    apply_one_sided,
    apply_two_sided,
    channel_for,
    family_weights,
    pauli_radii,
)
from entdyn.dynamics import (
    InitialStateSpec,
    breaking_point,
    concurrence,
    factorization_prediction,
    lambda_two_sided,
    make_initial,
    mixed_evolution_prediction,
    predict_one_sided,
    predict_two_sided,
    predict_two_sided_unital,
    pure_pes_ket,
    wootters,
)
from entdyn.harness import run_breaking_points
from entdyn.sampling import random_pauli_channel, random_pure_ket, random_unital_channel
from entdyn.states import BELL_KETS, SIGMA_2, ConfigError, bell_state, dm
from oracles import random_density_matrix, random_unitary


def random_rotated_bell(rng):
    """Ket (u x v)|phi+> for Haar-random u, v: a random maximally entangled state."""
    u = random_unitary(rng)
    v = random_unitary(rng)
    return np.kron(u, v) @ BELL_KETS["phi_plus"]


def lambda_oracle(rho):
    """Eigenvalues of the literal non-Hermitian product rho (sy x sy) rho* (sy x sy)."""
    s = np.kron(SIGMA_2, SIGMA_2)
    lam = np.linalg.eigvals(rho @ s @ rho.conj() @ s)
    return np.sort(np.clip(lam.real, 0.0, None))[::-1]


class TestConcurrence:
    def test_bell_states_maximal(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            assert concurrence(bell_state(name)).c == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_separable(self):
        assert concurrence(np.eye(4) / 4).c == 0.0

    def test_product_state_separable(self):
        rng = np.random.default_rng(40)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert concurrence(np.kron(a, b)).c == pytest.approx(0.0, abs=1e-8)

    def test_pure_pes_sine_law(self):
        for delta in np.linspace(0.0, np.pi / 8, 9):
            c = concurrence(dm(pure_pes_ket(delta, 0.0))).c
            assert c == pytest.approx(abs(math.sin(4 * delta)), abs=1e-12)

    def test_one_sided_isotropic_law(self):
        bell = bell_state("phi+")
        for p in np.linspace(0.0, 1.0, 11):
            rho = apply_one_sided(channel_for("isotropic", p), bell, target=1)
            assert concurrence(rho).c == pytest.approx(max(1 - 2 * p, 0.0), abs=1e-12)

    def test_result_structure(self):
        res = concurrence(bell_state("phi+"))
        assert res.c == max(0.0, res.q)
        assert np.all(np.diff(res.lambdas) <= 1e-12)
        assert np.all(res.lambdas >= 0.0)
        assert 0.0 <= res.c <= 1.0 + 1e-12
        with pytest.raises(ValueError, match=r"^rho: expected shape \(4, 4\), got \(2, 2\)$"):
            concurrence(np.eye(2) / 2)

    def test_single_state_has_the_bits_of_its_row_in_a_stack(self):
        # concurrence is wootters on a one-state stack: no separate path
        rng = np.random.default_rng(43)
        states = [random_density_matrix(rng, 4, rank=1 + i % 4) for i in range(12)]
        states += [apply_two_sided(random_unital_channel(rng), bell_state(name))
                   for name in BELL_KETS]
        q, roots = wootters(np.stack(states))
        for i, rho in enumerate(states):
            single = concurrence(rho)
            assert np.float64(single.q).tobytes() == q[i].tobytes()
            assert single.lambdas.tobytes() == (roots[i] ** 2).tobytes()
            assert not single.lambdas.flags.writeable

    def test_lambdas_match_nonhermitian_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            assert np.allclose(concurrence(rho).lambdas, lambda_oracle(rho), atol=1e-10)


class TestClosedFormLambdas:
    def test_identity(self):
        assert np.allclose(lambda_two_sided(PauliChannel([1, 0, 0, 0])), [1, 0, 0, 0])

    def test_fully_depolarizing_all_equal(self):
        lam = lambda_two_sided(PauliChannel([0.25, 0.25, 0.25, 0.25]))
        assert np.allclose(lam, [1 / 16] * 4, atol=1e-15)
        roots = np.sqrt(lam)
        assert roots[0] - roots[1:].sum() <= 0  # separable as required

    def test_matches_numeric_spectrum(self):
        rng = np.random.default_rng(43)
        bell = bell_state("phi+")
        for _ in range(50):
            ch = random_pauli_channel(rng)
            lam = np.sort(lambda_two_sided(ch))[::-1]
            num = concurrence(apply_two_sided(ch, bell)).lambdas
            assert np.max(np.abs(lam - num)) < 1e-10

    def test_refuses_a_unital_channel(self):
        # The closed form holds for Pauli weights only: a rotated unital channel's
        # Bell output has another spectrum than the one of its Pauli twirl.
        channel = random_unital_channel(np.random.default_rng(1))
        with pytest.raises(ConfigError, match=r"^channel: expected a PauliChannel, got UnitalChannel$"):
            lambda_two_sided(channel)
        with pytest.raises(ConfigError, match=r"^channel: expected a PauliChannel, got ndarray$"):
            lambda_two_sided(np.eye(4))

    def test_reads_the_stored_weights(self):
        ch = random_pauli_channel(np.random.default_rng(45))
        c0, c1, c2, c3 = ch.chi_diag
        assert lambda_two_sided(ch)[1] == 4.0 * (c1 * c2 + c3 * c0) ** 2

    def test_first_eigenvalue_is_maximal(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            lam = lambda_two_sided(random_pauli_channel(rng))
            assert lam[0] >= lam[1:].max() - 1e-15


class TestPredictors:
    def test_one_sided_trivials(self):
        assert predict_one_sided((1, 1, 1)) == pytest.approx(1.0)
        assert predict_one_sided(pauli_radii(channel_for("two-field", 0.5).chi_diag)) == 0.0

    def test_one_sided_matches_simulation(self):
        rng = np.random.default_rng(45)
        bell = bell_state("phi+")
        for _ in range(50):
            ch = random_pauli_channel(rng)
            direct = concurrence(apply_one_sided(ch, bell, target=1)).c
            assert abs(predict_one_sided(pauli_radii(ch.chi_diag)) - direct) < 1e-10

    def test_one_sided_any_maximally_entangled(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            ch = random_pauli_channel(rng)
            psi = random_rotated_bell(rng)
            direct = concurrence(apply_one_sided(ch, np.outer(psi, psi.conj()), target=1)).c
            assert abs(predict_one_sided(pauli_radii(ch.chi_diag)) - direct) < 1e-10

    def test_one_sided_qubit_choice_irrelevant_for_bell(self):
        rng = np.random.default_rng(47)
        bell = bell_state("psi+")
        for _ in range(20):
            ch = random_pauli_channel(rng)
            c0 = concurrence(apply_one_sided(ch, bell, target=0)).c
            c1 = concurrence(apply_one_sided(ch, bell, target=1)).c
            assert c0 == pytest.approx(c1, abs=1e-12)

    def test_two_sided_trivials(self):
        assert predict_two_sided((1, 1, 1)) == pytest.approx(1.0)
        p_star = (3 - math.sqrt(3)) / 4
        assert predict_two_sided(pauli_radii(channel_for("isotropic", p_star).chi_diag)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert predict_two_sided(pauli_radii(channel_for("two-field", 1 / 3).chi_diag)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_sided_matches_simulation(self):
        rng = np.random.default_rng(48)
        bell = bell_state("phi-")
        for _ in range(50):
            ch = random_pauli_channel(rng)
            direct = concurrence(apply_two_sided(ch, bell)).c
            assert abs(predict_two_sided(pauli_radii(ch.chi_diag)) - direct) < 1e-10

    def test_consistent_with_closed_form_lambdas(self):
        rng = np.random.default_rng(49)
        for _ in range(50):
            ch = random_pauli_channel(rng)
            roots = np.sqrt(np.sort(lambda_two_sided(ch))[::-1])
            via_wootters = max(0.0, roots[0] - roots[1:].sum())
            assert predict_two_sided(pauli_radii(ch.chi_diag)) == pytest.approx(via_wootters, abs=1e-12)

    def test_one_sided_linear_before_breaking(self):
        for family in ("two-field", "isotropic"):
            grid = np.linspace(0.0, 0.4, 9)
            values = [predict_one_sided(pauli_radii(channel_for(family, p).chi_diag)) for p in grid]
            second_diff = np.diff(values, 2)
            assert np.max(np.abs(second_diff)) < 1e-12


def scalar_bisection(family, mode, tol):
    """One halving per step, the law evaluated on one point at a time."""
    law = predict_one_sided if mode == "one_sided" else predict_two_sided

    def c_of(p):
        return law(pauli_radii(family_weights(family, p)))

    if c_of(0.0) <= 0.0:
        return 0.0
    if c_of(1.0) > 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if c_of(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBreakingPoints:
    @pytest.mark.parametrize("family", ["two-field", "isotropic", "dephasing"])
    @pytest.mark.parametrize("mode", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.3, 1e-14])
    def test_bit_identical_to_scalar_bisection(self, monkeypatch, family, mode, tol):
        # the bracket width is the module constant, 1e-10; the other widths
        # end on a shorter last step (0.3: one step of 2 halvings; 1e-6: 8 + 8
        # + 4; 1e-14: 5 steps of 8 and one of 7), each cut where the width
        # check stops it
        if tol != 1e-10:
            monkeypatch.setattr(entdyn.dynamics, "_BREAKING_TOL", tol)
        got, want = breaking_point(family, mode), scalar_bisection(family, mode, tol)
        assert float.hex(got) == float.hex(want)

    def test_law_points_per_run(self, monkeypatch):
        # each step evaluates the law on the points its halvings read and on
        # no others: 2 end points + 4 * 255 + 3 per breaking point at the
        # bracket width of 1e-10 (34 halvings), a count that repeats exactly
        points = []

        def counted(chi_diag):
            points.append(np.asarray(chi_diag).size // 4)
            return pauli_radii(chi_diag)

        monkeypatch.setattr(entdyn.dynamics, "pauli_radii", counted)
        run_breaking_points()
        assert sum(points) == 4100

    def test_reference_values(self):
        assert breaking_point("two-field", "one_sided") == pytest.approx(0.5, abs=1e-8)
        assert breaking_point("isotropic", "one_sided") == pytest.approx(0.5, abs=1e-8)
        assert breaking_point("two-field", "two_sided") == pytest.approx(1 / 3, abs=1e-8)
        assert breaking_point("isotropic", "two_sided") == pytest.approx(
            (3 - math.sqrt(3)) / 4, abs=1e-8
        )

    def test_deterministic(self):
        a = breaking_point("isotropic", "two_sided")
        b = breaking_point("isotropic", "two_sided")
        assert a == b

    @pytest.mark.parametrize("mode", ["one_sided", "two_sided"])
    def test_dephasing_never_breaks(self, mode):
        # the equatorial radii re-grow after p = 1/2: the law touches 0 there
        # and is positive again at p = 1, so no breaking point is reported
        assert math.isinf(breaking_point("dephasing", mode))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            breaking_point("isotropic", "both_sides")


class TestFactorization:
    def test_bell_input_reduces_to_one_sided_law(self):
        ch = channel_for("isotropic", 0.3)
        pred = factorization_prediction(bell_state("phi+"), ch)
        assert pred == pytest.approx(predict_one_sided(pauli_radii(ch.chi_diag)), abs=1e-12)

    def test_half_concurrence_pes(self):
        delta = math.asin(0.5) / 4  # sin(4 delta) = 1/2
        rho = dm(pure_pes_ket(delta, 0.0))
        for p in (0.1, 0.3, 0.45):
            pred = factorization_prediction(rho, channel_for("isotropic", p))
            assert pred == pytest.approx(0.5 * max(1 - 2 * p, 0.0), abs=1e-9)

    def test_random_pairs_match_direct_simulation(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            psi = random_pure_ket(rng, 4)
            rho = np.outer(psi, psi.conj())
            ch = random_pauli_channel(rng)
            direct = concurrence(apply_one_sided(ch, rho, target=1)).c
            assert abs(factorization_prediction(rho, ch) - direct) < 1e-9

    def test_mixed_input_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            factorization_prediction(np.eye(4) / 4, channel_for("isotropic", 0.2))


class TestMixedEvolution:
    def test_identity_prep_reduces_to_factorization(self):
        rng = np.random.default_rng(51)
        psi = random_pure_ket(rng, 4)
        sigma = np.outer(psi, psi.conj())
        ch = channel_for("isotropic", 0.25)
        identity_prep = channel_for("dephasing", 0.0)
        assert mixed_evolution_prediction(sigma, identity_prep, ch) == pytest.approx(
            factorization_prediction(sigma, ch), abs=1e-12
        )

    def test_dephased_state_breaks_earlier(self):
        sigma = bell_state("phi+")
        prep = channel_for("dephasing", 0.25)  # initial concurrence 0.5
        # pure PES with the same concurrence loses entanglement at P = 0.5
        zeros = [
            p
            for p in np.linspace(0.0, 0.5, 51)
            if mixed_evolution_prediction(sigma, prep, channel_for("isotropic", p)) <= 1e-12
        ]
        assert zeros and zeros[0] < 0.5 - 0.05

    def test_random_triples_match_direct_simulation(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            psi = random_pure_ket(rng, 4)
            sigma = np.outer(psi, psi.conj())
            prep = random_pauli_channel(rng)
            ch = random_pauli_channel(rng)
            rho = apply_one_sided(prep, sigma, target=1)
            direct = concurrence(apply_one_sided(ch, rho, target=1)).c
            assert abs(mixed_evolution_prediction(sigma, prep, ch) - direct) < 1e-9


class TestInitialStates:
    def test_bell_concurrence_one(self):
        rho = make_initial(InitialStateSpec(kind="bell", bell="phi_plus"))
        assert concurrence(rho).c == pytest.approx(1.0, abs=1e-12)

    def test_equal_pumping_gives_phi_plus(self):
        rho = make_initial(InitialStateSpec(kind="pure_pes", delta=math.radians(22.5), phi=0.0))
        assert np.max(np.abs(rho - bell_state("phi+"))) < 1e-12

    def test_mixed_pes_concurrence(self):
        for p in (0.0, 0.2, 0.5, 0.8):
            spec = InitialStateSpec(kind="mixed_pes", delta=math.radians(22.5), dephasing=p)
            assert concurrence(make_initial(spec)).c == pytest.approx(abs(1 - 2 * p), abs=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InitialStateSpec(kind="werner")

    def test_labels_distinct(self):
        specs = [
            InitialStateSpec(kind="bell"),
            InitialStateSpec(kind="pure_pes", delta=0.1),
            InitialStateSpec(kind="mixed_pes", delta=0.1, dephasing=0.2),
        ]
        labels = [s.label() for s in specs]
        assert len(set(labels)) == 3


class TestUpperBound:
    def test_two_sided_bound_on_phi_plus(self):
        from entdyn.sampling import random_unital_channel

        rng = np.random.default_rng(53)
        bell = bell_state("phi+")
        for _ in range(100):
            ch = random_unital_channel(rng)
            c = concurrence(apply_two_sided(ch, bell)).c
            assert c <= predict_two_sided(ch.radii) + 1e-10

    def test_singlet_equality(self):
        from entdyn.sampling import random_unital_channel

        rng = np.random.default_rng(54)
        singlet = bell_state("psi-")
        for _ in range(100):
            ch = random_unital_channel(rng)
            c = concurrence(apply_two_sided(ch, singlet)).c
            assert c == pytest.approx(predict_two_sided(ch.radii), abs=1e-9)

    def test_isotropic_noise_exact_on_any_maximally_entangled_state(self):
        # isotropic depolarization is unitarily covariant, so the two-sided
        # law should hold with equality for every maximally entangled input,
        # not just the Bell states; checked empirically
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = rng.uniform(0.0, 1.0)
            ch = channel_for("isotropic", p)
            psi = random_rotated_bell(rng)
            c = concurrence(apply_two_sided(ch, np.outer(psi, psi.conj()))).c
            assert c == pytest.approx(
                predict_two_sided(pauli_radii(ch.chi_diag)), abs=1e-9
            )


class TestTwoSidedUnitalLaw:
    def test_matches_simulation_on_every_bell_state(self):
        rng = np.random.default_rng(56)
        bells = {name: bell_state(name) for name in ("phi+", "phi-", "psi+", "psi-")}
        worst = 0.0
        for _ in range(1000):
            ch = random_unital_channel(rng)
            for name, rho in bells.items():
                c = concurrence(apply_two_sided(ch, rho)).c
                worst = max(worst, abs(predict_two_sided_unital(ch, name) - c))
        assert worst <= 1e-9

    def test_pauli_channels_reduce_to_the_paper_law(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            ch = random_pauli_channel(rng)
            for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus"):
                assert predict_two_sided_unital(ch, name) == pytest.approx(
                    predict_two_sided(pauli_radii(ch.chi_diag)), abs=1e-12)

    def test_unknown_bell_state_rejected(self):
        bells = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"
        with pytest.raises(ValueError, match=f"bell: {bells}, got 'omega'"):
            predict_two_sided_unital(channel_for("isotropic", 0.1), "omega")


@pytest.mark.parametrize("name", list(BELL_KETS))
def test_locally_rotated_bell_is_maximally_entangled(name):
    # concurrence is invariant under local unitaries u (x) v
    rng = np.random.default_rng(65)
    for _ in range(10):
        w = np.kron(random_unitary(rng), random_unitary(rng))
        psi = w @ BELL_KETS[name]
        assert concurrence(dm(psi)).c == pytest.approx(1.0, abs=1e-10)
        assert concurrence(w @ np.eye(4) @ w.conj().T / 4).c == 0.0
