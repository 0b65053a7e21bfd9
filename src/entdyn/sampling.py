"""Seeded random states and channels for property tests and self-checks.

Unitaries are Haar-distributed via QR orthogonalization of complex Gaussian
matrices. Everything takes an explicit ``numpy.random.Generator`` so
sampling stays reproducible.
"""

from __future__ import annotations

import numpy as np

from .channels import CP_TOL, PauliChannel, UnitalChannel, _violated
from .states import _frozen


def random_pure_ket(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _frozen(v / np.linalg.norm(v))


def random_pauli_channel(rng: np.random.Generator) -> PauliChannel:
    return PauliChannel(rng.dirichlet(np.ones(4)))


def random_cp_radii(rng: np.random.Generator) -> np.ndarray:
    # The CP tetrahedron fills 1/3 of the cube, so rejection is cheap. Each
    # draw is rng.uniform(-1.0, 1.0, 3), which is -1 + 2u for u = rng.random(3):
    # the same stream and bits, read as Python floats so that a rejected
    # draw builds no array.
    while True:
        r = [2.0 * u - 1.0 for u in rng.random(3).tolist()]
        if next(_violated(r, CP_TOL), None) is None:
            return _frozen(np.array(r))


def random_unital_channel(rng: np.random.Generator) -> UnitalChannel:
    """Haar-random pre- and post-rotations and CP radii, drawn in that
    order: the stream is that of two single-unitary draws and then
    :func:`random_cp_radii`, with both unitaries from one normal draw (each
    matrix's real part, then its imaginary part) and one stacked QR whose
    R-diagonal phases move into Q."""
    g = rng.normal(size=(2, 2, 2, 2))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = r.diagonal(axis1=1, axis2=2)
    v, u = q * (d / abs(d))[:, None, :]
    return UnitalChannel(pre_rotation=v, post_rotation=u, radii=random_cp_radii(rng))
