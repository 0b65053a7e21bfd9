import numpy as np
import pytest

from entdyn.channels import is_completely_positive, pauli_transfer_matrix
from entdyn.sampling import (
    random_cp_radii,
    random_pauli_channel,
    random_pure_ket,
    random_unital_channel,
)
from oracles import random_unitary


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_random_pure_ket_has_the_asked_dimension(dim):
    psi = random_pure_ket(np.random.default_rng(dim), dim)
    assert psi.shape == (dim,)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
    assert not psi.flags.writeable


@pytest.mark.parametrize("draw", [
    pytest.param(lambda rng: random_pure_ket(rng, 4), id="random_pure_ket"),
    pytest.param(lambda rng: random_pauli_channel(rng).chi_diag, id="random_pauli_channel"),
    pytest.param(random_cp_radii, id="random_cp_radii"),
    pytest.param(lambda rng: pauli_transfer_matrix(random_unital_channel(rng)), id="random_unital_channel"),
])
def test_deterministic_under_seed(draw):
    a = draw(np.random.default_rng(99))
    assert np.asarray(a).tobytes() == np.asarray(draw(np.random.default_rng(99))).tobytes()
    assert np.asarray(a).tobytes() != np.asarray(draw(np.random.default_rng(100))).tobytes()


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


def test_cp_radii_are_the_first_uniform_draw_in_the_tetrahedron():
    # the rejection loop reads rng.random(3) as -1 + 2u: the stream and the
    # bits of rng.uniform(-1.0, 1.0, 3), and the generator ends where that
    # loop leaves it
    for seed in range(50):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        r = random_cp_radii(rng)
        while True:
            reference = reference_rng.uniform(-1.0, 1.0, size=3)
            if is_completely_positive(reference):
                break
        assert r.tobytes() == reference.tobytes()
        assert not r.flags.writeable
        assert rng.random() == reference_rng.random()
