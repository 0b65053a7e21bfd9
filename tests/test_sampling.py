import re

import numpy as np
import pytest

from entdyn.channels import is_completely_positive, pauli_transfer_matrix
from entdyn.sampling import (
    random_cp_radii,
    random_pauli_channel,
    random_pure_ket,
    random_unital_channel,
)
from entdyn.states import PAULIS, ConfigError
from oracles import random_unitary
from reference import haar_unitary, max_abs_error


@pytest.mark.parametrize("dim", [1, 2, 4, 8, np.int64(3)])
def test_random_pure_ket_has_the_asked_dimension(dim):
    psi = random_pure_ket(np.random.default_rng(dim), dim)
    assert psi.shape == (dim,)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
    assert not psi.flags.writeable


def test_random_pure_ket_reads_dim_by_the_int_rule():
    # an integral float is the int it equals, as for every file and flag integer:
    # the same draw from the same stream
    assert random_pure_ket(np.random.default_rng(5), 4.0).tobytes() == \
        random_pure_ket(np.random.default_rng(5), 4).tobytes()


@pytest.mark.parametrize("dim, message", [
    (2.5, "dim: expected int, got 2.5"),
    (True, "dim: expected int, got True"),
    (None, "dim: expected int, got None"),
    (0, "dim: must be >= 1, got 0"),
    (-1.0, "dim: must be >= 1, got -1"),
])
def test_random_pure_ket_refuses_a_dim_that_is_no_positive_int(dim, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        random_pure_ket(np.random.default_rng(0), dim)


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
    # the stream and the radii are pinned bit for bit; the rotations, which
    # the sampler builds in closed form, are pinned to the LAPACK QR route
    # and to a 40-digit phase-fixed QR of the same draw, at about twice the
    # largest deviation measured over these seeds (6.3e-16 and 3.7e-16)
    for seed in range(50):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = np.random.default_rng(seed).normal(size=(2, 2, 2, 2))
        ch = random_unital_channel(rng)
        for rotation, (re, im) in zip((ch.pre_rotation, ch.post_rotation), draws):
            assert np.abs(rotation - random_unitary(reference_rng)).max() < 1.3e-15
            assert max_abs_error(rotation, haar_unitary(re + 1j * im)) < 7.5e-16
        assert ch.radii.tobytes() == random_cp_radii(reference_rng).tobytes()
        assert rng.random() == reference_rng.random()


def test_unital_channel_rotations_are_phase_fixed():
    # each column of a rotation has a real positive overlap with the matching
    # column of its draw: the diagonal of R = Q^dag z
    for seed in range(200):
        draws = np.random.default_rng(seed).normal(size=(2, 2, 2, 2))
        ch = random_unital_channel(np.random.default_rng(seed))
        for rotation, (re, im) in zip((ch.pre_rotation, ch.post_rotation), draws):
            overlaps = np.diagonal(rotation.conj().T @ (re + 1j * im))
            assert np.all(overlaps.real > 0.0)
            assert np.all(np.abs(overlaps.imag) <= 1e-14 * overlaps.real)


def test_unital_channel_rotations_are_haar():
    # the Bloch rotation O_ij = Tr(sigma_i U sigma_j U^dag) / 2 of a Haar U is
    # Haar on SO(3): each entry has mean 0, second moment 1/3 (variance of its
    # square 1/5 - 1/9) and tr O = 1 + 2 cos(omega) has mean 0 and variance 1;
    # every sample mean lands within 6 sigma of its value
    n = 4000
    rng = np.random.default_rng(67)
    channels = [random_unital_channel(rng) for _ in range(n)]
    for rotations in ([ch.pre_rotation for ch in channels], [ch.post_rotation for ch in channels]):
        u = np.array(rotations)
        o = np.einsum("iab,nbc,jcd,nad->nij", PAULIS[1:], u, PAULIS[1:], u.conj()).real / 2
        assert np.all(np.abs(o.mean(axis=0)) < 6 * np.sqrt(1 / 3 / n))
        assert np.all(np.abs((o**2).mean(axis=0) - 1 / 3) < 6 * np.sqrt((1 / 5 - 1 / 9) / n))
        assert abs(np.trace(o, axis1=1, axis2=2).mean()) < 6 * np.sqrt(1 / n)


def test_unital_channel_makes_no_linalg_call(monkeypatch):
    calls = []

    def counted(name, f):
        def call(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type):
            monkeypatch.setattr(np.linalg, name, counted(name, f))
    rng = np.random.default_rng(66)
    for _ in range(5):
        random_unital_channel(rng)
    assert calls == []


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
