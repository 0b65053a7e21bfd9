"""Seeded random states and channels for property tests and self-checks.

Unitaries are Haar-distributed: the Q factor of a complex Gaussian matrix's
QR decomposition whose R has a positive real diagonal (Mezzadri, Notices
AMS 54, 592, 2007), which for 2x2 matrices has a closed form. Everything
takes an explicit ``numpy.random.Generator`` so sampling stays reproducible.
A channel is drawn valid, so it is built without the constructor's checks.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import CP_TOL, PauliChannel, UnitalChannel, _trusted, _violated
from .states import _check_at_least, _field, _frozen


def random_pure_ket(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """A random unit ket of ``dim`` entries, read by the config reader's int rule."""
    dim = _field(dim, int, "dim")
    _check_at_least(dim, 1, "dim")
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _frozen(v / np.linalg.norm(v))


def random_pauli_channel(rng: np.random.Generator) -> PauliChannel:
    return _trusted(PauliChannel, chi_diag=rng.dirichlet(np.ones(4)))


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
    matrix's real part, then its imaginary part).

    Each unitary is the Q of the matrix z = (a, b) whose R has a positive
    real diagonal, in closed form: its first column is q = a / |a|, and its
    second is c / |c| times (-conj q_1, conj q_0), a unit vector
    orthogonal to q, with c = q_0 b_1 - q_1 b_0 the component of b along
    it. So each column has a real positive overlap with z's matching column.
    The scale of z (the Gaussian's 1/sqrt(2)) cancels, and the rotations
    agree with a LAPACK QR with its R-diagonal phases moved into Q to
    rounding."""
    rotations = []
    for re, im in rng.normal(size=(2, 2, 2, 2)).tolist():
        q0, q1 = complex(re[0][0], im[0][0]), complex(re[1][0], im[1][0])
        norm = math.hypot(re[0][0], im[0][0], re[1][0], im[1][0])
        q0, q1 = q0 / norm, q1 / norm
        c = q0 * complex(re[1][1], im[1][1]) - q1 * complex(re[0][1], im[0][1])
        c /= abs(c)
        rotations.append([[q0, -c * q1.conjugate()], [q1, c * q0.conjugate()]])
    v, u = np.array(rotations)
    return _trusted(UnitalChannel, pre_rotation=v, post_rotation=u, radii=random_cp_radii(rng))
