import numpy as np
import pytest

from entdyn.dynamics import concurrence
from entdyn.sampling import random_pure_ket
from entdyn.states import (
    BASIS_KETS,
    BELL_KETS,
    KET_H,
    PAULIS,
    ConfigError,
    bell_key,
    bell_state,
    dm,
    fidelity,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
    purity,
)
from oracles import bloch_vector, partial_trace, random_density_matrix, random_unitary, trace_distance

# Bloch vector of each single-qubit polarization ket
BASIS_AXES = {"H": (0, 0, 1), "V": (0, 0, -1), "D": (1, 0, 0), "A": (-1, 0, 0),
              "R": (0, 1, 0), "L": (0, -1, 0)}


@pytest.mark.parametrize("label", list(BASIS_KETS))
def test_basis_ket_sits_at_its_bloch_pole(label):
    psi = BASIS_KETS[label]
    axis = np.array(BASIS_AXES[label])
    assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(bloch_vector(dm(psi)), axis, atol=1e-15)
    # an eigenvector of the Pauli operator of its axis, eigenvalue the sign
    i = int(np.flatnonzero(axis)[0])
    assert np.allclose(PAULIS[i + 1] @ psi, axis[i] * psi, atol=1e-15)


@pytest.mark.parametrize("name", list(BELL_KETS))
def test_bell_state_is_pure_with_maximally_mixed_marginals(name):
    rho = bell_state(name)
    assert purity(rho) == pytest.approx(1.0, abs=1e-15)
    assert concurrence(rho).c == pytest.approx(1.0, abs=1e-12)
    for keep in (0, 1):
        assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-15)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: dm(KET_H), id="dm"),
    pytest.param(lambda: bell_state("phi+"), id="bell_state"),
    pytest.param(lambda: matrix_from_json(matrix_to_json(np.eye(2))), id="matrix_from_json"),
    pytest.param(lambda: PAULIS[1], id="pauli"),
    pytest.param(lambda: BASIS_KETS["D"], id="basis_ket"),
    pytest.param(lambda: BELL_KETS["psi_minus"], id="bell_ket"),
])
def test_constructors_freeze_arrays(make):
    m = make()
    with pytest.raises(ValueError):
        m.flat[0] = 0.3


class TestPsdSqrt:
    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_squares_back_to_the_state(self, rank):
        rng = np.random.default_rng(40 + rank)
        for _ in range(10):
            rho = random_density_matrix(rng, 4, rank)
            s = psd_sqrt(rho)
            assert np.allclose(s, s.conj().T, atol=1e-14)
            assert np.linalg.eigvalsh(s).min() >= -1e-12
            assert np.allclose(s @ s, rho, atol=1e-12)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(44)
        stack = np.array([random_density_matrix(rng, 4, 1 + k % 4) for k in range(6)])
        out = psd_sqrt(stack)
        assert out.shape == stack.shape
        for m, s in zip(stack, out):
            assert np.allclose(psd_sqrt(m), s, atol=1e-14)

    def test_pure_state_is_its_own_root(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            rho = dm(random_pure_ket(rng, 4))
            assert np.allclose(psd_sqrt(rho), rho, atol=1e-12)

    def test_noise_floor_eigenvalues_are_zeroed(self):
        out = psd_sqrt(np.diag([1.0, 1e-15, -1e-17, 0.0]))
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 0.0]), rtol=0, atol=1e-300)

    def test_negative_eigenvalues_are_clipped(self):
        u = random_unitary(np.random.default_rng(46), 4)
        m = u @ np.diag([0.7, 0.4, -0.1, 0.0]) @ u.conj().T
        clipped = u @ np.diag([0.7, 0.4, 0.0, 0.0]) @ u.conj().T
        s = psd_sqrt(m)
        assert np.allclose(s @ s, clipped, atol=1e-12)


class TestMetrics:
    def test_fidelity_pure_overlap(self):
        rng = np.random.default_rng(16)
        psi = random_pure_ket(rng, 4)
        rho = random_density_matrix(rng, 4)
        overlap = float((psi.conj() @ rho @ psi).real)
        assert fidelity(rho, np.outer(psi, psi.conj())) == pytest.approx(overlap, abs=1e-10)

    def test_fidelity_self_is_one(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_is_symmetric(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            a = random_density_matrix(rng, 4)
            b = random_density_matrix(rng, 4, 2)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    @pytest.mark.parametrize("name", list(BELL_KETS))
    def test_bell_state_fidelities(self, name):
        for other in BELL_KETS:
            expected = 1.0 if other == name else 0.0
            assert fidelity(bell_state(name), bell_state(other)) == pytest.approx(expected, abs=1e-12)

    def test_fidelity_with_maximally_mixed_is_one_over_dimension(self):
        rng = np.random.default_rng(48)
        for dim in (2, 4):
            psi = random_pure_ket(rng, dim)
            assert fidelity(np.eye(dim) / dim, dm(psi)) == pytest.approx(1.0 / dim, abs=1e-12)

    def test_trace_distance_bounds(self):
        # Fuchs-van de Graaf: 1 - sqrt(F) <= T <= sqrt(1 - F)
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = random_density_matrix(rng, 4)
            b = random_density_matrix(rng, 4, 2)
            f, t = fidelity(a, b), trace_distance(a, b)
            assert 0.0 <= f <= 1.0
            assert 1.0 - np.sqrt(f) - 1e-12 <= t <= np.sqrt(1.0 - f) + 1e-12

    def test_fidelity_invariant_under_a_joint_unitary(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            a = random_density_matrix(rng, 4)
            b = random_density_matrix(rng, 4)
            u = random_unitary(rng, 4)
            rotated = fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T)
            assert rotated == pytest.approx(fidelity(a, b), abs=1e-10)

    def test_purity_range(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25)
        assert purity(bell_state("psi+")) == pytest.approx(1.0)
        rng = np.random.default_rng(50)
        for dim in (2, 4):
            for _ in range(10):
                assert 1.0 / dim - 1e-12 <= purity(random_density_matrix(rng, dim)) <= 1.0 + 1e-12
            assert purity(dm(random_pure_ket(rng, dim))) == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for dim in (2, 4):
            m = random_density_matrix(rng, dim)
            obj = matrix_to_json(m)
            assert obj["dim"] == dim
            assert np.allclose(matrix_from_json(obj), m, atol=1e-15)

    def test_round_trip_is_exact_for_any_complex_matrix(self):
        rng = np.random.default_rng(51)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obj = matrix_to_json(m)
        assert all(type(x) is float for x in obj["re"] + obj["im"])
        assert np.array_equal(matrix_from_json(obj), m)

    def test_entries_are_row_major(self):
        obj = matrix_to_json([[1, 2j], [3, 4 - 1j]])
        assert obj == {"dim": 2, "re": [1.0, 0.0, 3.0, 4.0], "im": [0.0, 2.0, 0.0, -1.0]}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]})
        with pytest.raises(ValueError):
            matrix_from_json({"re": [1.0]})

    @pytest.mark.parametrize("obj, message", [
        ({"dim": 2.5, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}, "matrix.dim: expected int, got 2.5"),
        ({"dim": True, "re": [1], "im": [0]}, "matrix.dim: expected int, got True"),
        ({"dim": -1, "re": [1], "im": [0]}, "matrix.dim: must be >= 1, got -1"),
        ({"dim": 1, "re": [True], "im": [0]}, "matrix.re[0]: expected float, got True"),
        ({"dim": 1, "re": [1], "im": "0"}, "matrix.im: expected list, got '0'"),
        ({"dim": 1, "re": [1]}, "matrix.im: missing"),
        ({"dim": 1, "re": [1], "im": [0], "scale": 2}, "matrix.scale: unknown field"),
        ({"dim": 2, "re": [1, 0, 0, 1], "im": [0]}, "matrix: dim 2 takes 4 entries, got 4 re and 1 im"),
        ([1, 0, 0, 1], "matrix: expected a mapping, got list"),
    ])
    def test_malformed_fields_are_named(self, obj, message):
        with pytest.raises(ConfigError) as info:
            matrix_from_json(obj)
        assert str(info.value) == message


def test_bell_states_are_orthonormal():
    kets = list(BELL_KETS.values())
    for i, a in enumerate(kets):
        for j, b in enumerate(kets):
            assert np.vdot(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("name, key", [("phi+", "phi_plus"), (" PSI- ", "psi_minus"),
                                       ("PHI_MINUS", "phi_minus"), ("psi_plus", "psi_plus")])
def test_bell_key_normalises_names(name, key):
    assert bell_key(name) == key
    assert np.array_equal(bell_state(name), dm(BELL_KETS[key]))


@pytest.mark.parametrize("name", ["nope", "", "phi", 5, None, ["phi+"]])
def test_bell_key_rejects_other_names(name):
    bells = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"
    with pytest.raises(ValueError, match=rf"^bell: {bells}, got "):
        bell_key(name)
    with pytest.raises(ValueError, match=f"bell: {bells}, got "):
        bell_state(name)


def test_paulis_are_hermitian_and_traceless_but_sigma_0():
    for i, s in enumerate(PAULIS):
        assert np.array_equal(s, s.conj().T)
        assert np.trace(s) == (2 if i == 0 else 0)


def test_pauli_algebra():
    for i in range(4):
        assert np.allclose(PAULIS[i] @ PAULIS[i], np.eye(2))
    assert np.allclose(PAULIS[1] @ PAULIS[2], 1j * PAULIS[3])
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert np.allclose(PAULIS[i] @ PAULIS[j], 1j * PAULIS[k])
        assert np.allclose(PAULIS[j] @ PAULIS[i], -1j * PAULIS[k])
