"""Seeded random states and channels for property tests and self-checks.

Unitaries are Haar-distributed via QR orthogonalization of complex Gaussian
matrices; mixed states come from the Ginibre construction. Everything takes
an explicit ``numpy.random.Generator`` so sampling stays reproducible.
"""

from __future__ import annotations

import numpy as np

from .channels import PauliChannel, UnitalChannel, is_completely_positive
from .states import BELL_KETS, _frozen


def _haar_unitaries(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, dim, dim) stack of Haar unitaries from one normal draw, taken as
    each matrix's real part and then its imaginary part, matrix by matrix,
    and one stacked QR."""
    g = rng.normal(size=(n, 2, dim, dim))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    return _frozen(_haar_unitaries(rng, 1, dim)[0])


def random_pure_ket(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _frozen(v / np.linalg.norm(v))


def random_density_matrix(rng: np.random.Generator, dim: int = 4, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return _frozen(rho / np.trace(rho).real)


def random_pauli_channel(rng: np.random.Generator) -> PauliChannel:
    return PauliChannel(rng.dirichlet(np.ones(4)))


def random_cp_radii(rng: np.random.Generator) -> np.ndarray:
    # The CP tetrahedron fills 1/3 of the cube, so rejection is cheap.
    while True:
        r = rng.uniform(-1.0, 1.0, size=3)
        if is_completely_positive(r):
            return _frozen(r)


def random_unital_channel(rng: np.random.Generator) -> UnitalChannel:
    """Haar-random pre- and post-rotations and CP radii, drawn in that
    order: the stream is that of two :func:`random_unitary` calls and then
    :func:`random_cp_radii`, with both unitaries from one normal draw and
    one stacked QR."""
    v, u = _haar_unitaries(rng, 2, 2)
    return UnitalChannel(pre_rotation=v, post_rotation=u, radii=random_cp_radii(rng))


def random_rotated_bell(rng: np.random.Generator, which: str = "phi_plus") -> np.ndarray:
    """Ket (u x v)|bell>: a Haar-random maximally entangled state."""
    u = random_unitary(rng)
    v = random_unitary(rng)
    return _frozen(np.kron(u, v) @ BELL_KETS[which])
