"""High-precision references: 40-digit mpmath values built from a channel's
defining parameters (its Pauli weights, or its rotations and radii), so that
they share no arithmetic with entdyn beyond reading those parameters.

The channel's process matrix in the Pauli basis, chi with
Phi(rho) = sum_mn chi_mn sigma_m rho sigma_n, is

* diag(weights) for a :class:`~entdyn.channels.PauliChannel`;
* sum_k w_k |b_k><b_k| for a :class:`~entdyn.channels.UnitalChannel`
  rho -> U Lambda(V rho V^dag) U^dag, with V its pre-rotation, U its
  post-rotation, w the Pauli weights (1 + s_1 R1 + s_2 R2 + s_3 R3) / 4 of
  its radii (the Walsh signs s) and b_k the Pauli components
  Tr(sigma_m U sigma_k V) / 2 of its k-th Kraus direction.

Every float parameter is read exactly, and the arithmetic runs at 40
significant digits, so a reference is exact to far below double rounding.
"""

import mpmath
import numpy as np

from entdyn.channels import PauliChannel

MP = mpmath.MPContext()
MP.dps = 40

_I = MP.mpc(0, 1)
_PAULIS = (
    MP.matrix([[1, 0], [0, 1]]),
    MP.matrix([[0, 1], [1, 0]]),
    MP.matrix([[0, -_I], [_I, 0]]),
    MP.matrix([[1, 0], [0, -1]]),
)
_WALSH = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def _matrix(m) -> "mpmath.matrix":
    return MP.matrix([[MP.mpc(complex(x)) for x in row] for row in np.asarray(m)])


def _trace(m) -> "mpmath.mpc":
    return m[0, 0] + m[1, 1]


def chi(channel) -> "mpmath.matrix":
    """The 4x4 process matrix of a Pauli or unital ``channel`` at 40 digits."""
    if isinstance(channel, PauliChannel):
        return MP.diag([MP.mpf(float(w)) for w in channel.chi_diag])
    v, u = _matrix(channel.pre_rotation), _matrix(channel.post_rotation)
    radii = [MP.mpf(1)] + [MP.mpf(float(r)) for r in channel.radii]
    out = MP.matrix(4, 4)
    for k, signs in enumerate(_WALSH):
        weight = MP.fsum(s * r for s, r in zip(signs, radii)) / 4
        kraus = u * _PAULIS[k] * v
        b = [_trace(_PAULIS[m] * kraus) / 2 for m in range(4)]
        for m in range(4):
            for n in range(4):
                out[m, n] += weight * b[m] * MP.conj(b[n])
    return out


def max_abs_error(estimate, reference) -> float:
    """Largest |estimate - reference| entry, the difference taken at 40 digits."""
    estimate = np.asarray(estimate)
    return max(float(abs(MP.mpc(complex(estimate[m, n])) - reference[m, n]))
               for m in range(estimate.shape[0]) for n in range(estimate.shape[1]))
