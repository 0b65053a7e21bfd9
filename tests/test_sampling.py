import numpy as np
import pytest

from entdyn.channels import is_completely_positive
from entdyn.sampling import (
    random_cp_radii,
    random_density_matrix,
    random_pauli_channel,
    random_pure_ket,
    random_rotated_bell,
    random_unital_channel,
    random_unitary,
)
from entdyn.states import density_matrix


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(60)
    for dim in (2, 4):
        u = random_unitary(rng, dim)
        assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_random_states_valid():
    rng = np.random.default_rng(61)
    for _ in range(10):
        density_matrix(random_density_matrix(rng, 4))  # raises ValueError if not a state
        psi = random_pure_ket(rng, 4)
        assert np.vdot(psi, psi).real == np.float64(1.0) or abs(np.vdot(psi, psi).real - 1) < 1e-12


def test_random_pauli_channel_normalized():
    rng = np.random.default_rng(62)
    for _ in range(10):
        chi = random_pauli_channel(rng).chi_diag
        assert chi.min() >= 0.0
        assert abs(chi.sum() - 1.0) < 1e-12


def test_random_cp_radii_inside_tetrahedron():
    rng = np.random.default_rng(63)
    for _ in range(50):
        assert is_completely_positive(random_cp_radii(rng))


def test_random_unital_channel_valid():
    rng = np.random.default_rng(64)
    ch = random_unital_channel(rng)
    assert is_completely_positive(ch.radii)


def test_rotated_bell_is_maximally_entangled():
    from entdyn.dynamics import concurrence

    rng = np.random.default_rng(65)
    psi = random_rotated_bell(rng)
    assert concurrence(np.outer(psi, psi.conj())).c == np.float64(1.0) or abs(
        concurrence(np.outer(psi, psi.conj())).c - 1.0
    ) < 1e-10


def test_deterministic_under_seed():
    a = random_unitary(np.random.default_rng(99))
    b = random_unitary(np.random.default_rng(99))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [2, 4])
def test_random_unitary_bits_match_the_per_matrix_draw(dim):
    # the real part, then the imaginary part, then one QR with its phases fixed
    for seed in range(20):
        rng = np.random.default_rng(seed)
        z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        reference = q * (d / np.abs(d))
        assert random_unitary(np.random.default_rng(seed), dim).tobytes() == reference.tobytes()


def test_unital_channel_stream_is_two_unitaries_then_radii():
    for seed in range(50):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ch = random_unital_channel(rng)
        assert ch.pre_rotation.tobytes() == random_unitary(reference_rng).tobytes()
        assert ch.post_rotation.tobytes() == random_unitary(reference_rng).tobytes()
        assert ch.radii.tobytes() == random_cp_radii(reference_rng).tobytes()
        assert rng.random() == reference_rng.random()


def test_one_qr_per_unital_channel(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    rng = np.random.default_rng(66)
    for _ in range(5):
        random_unital_channel(rng)
    assert calls == [(2, 2, 2)] * 5
