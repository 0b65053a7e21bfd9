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

:func:`bell_q` evolves a Bell state by two such process matrices, one on
each qubit, and returns Wootters q of the result, for the Bell-pair law.
:func:`haar_unitary` is the other reference: the phase-fixed Q factor of a
Haar draw's complex Gaussian matrix, for the sampler's rotations.

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


def _kron(a, b) -> "mpmath.matrix":
    return MP.matrix([[a[i // 2, j // 2] * b[i % 2, j % 2] for j in range(4)] for i in range(4)])


def _on_qubit(chi_matrix, rho, qubit: int) -> "mpmath.matrix":
    """sum_mn chi_mn s_m rho s_n (s the Pauli on ``qubit``) of a 4x4 ``rho``."""
    ops = [_kron(s, _PAULIS[0]) if qubit == 0 else _kron(_PAULIS[0], s) for s in _PAULIS]
    out = MP.matrix(4, 4)
    for m in range(4):
        for n in range(4):
            out += chi_matrix[m, n] * (ops[m] * rho * ops[n])
    return out


def bell_q(chi_0, chi_1, ket) -> "mpmath.mpf":
    """Wootters q = r0 - r1 - r2 - r3 of the Bell state ``ket`` after the
    process matrices ``chi_0`` on qubit 0 and ``chi_1`` on qubit 1 (from
    :func:`chi`), at 40 digits. The ket is rebuilt from its entries' signs
    and normalized at 40 digits; the r are the square roots, largest first,
    of the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    v = [MP.mpf(int(np.sign(x.real))) / MP.sqrt(2) for x in np.asarray(ket)]
    rho = MP.matrix([[a * b for b in v] for a in v])
    rho = _on_qubit(chi_1, _on_qubit(chi_0, rho, 0), 1)
    flip = _kron(_PAULIS[2], _PAULIS[2])
    product = rho * flip * rho.apply(MP.conj) * flip
    roots = sorted((MP.sqrt(max(MP.re(x), 0)) for x in MP.eig(product, left=False, right=False)),
                   reverse=True)
    return roots[0] - roots[1] - roots[2] - roots[3]


def max_abs_error(estimate, reference) -> float:
    """Largest |estimate - reference| entry, the difference taken at 40 digits."""
    estimate = np.asarray(estimate)
    return max(float(abs(MP.mpc(complex(estimate[m, n])) - reference[m, n]))
               for m in range(estimate.shape[0]) for n in range(estimate.shape[1]))


def haar_unitary(z) -> "mpmath.matrix":
    """The Q of the complex 2x2 ``z`` whose R has a positive real diagonal,
    at 40 digits: classical Gram-Schmidt on z's columns, so that R's
    diagonal holds their residual norms."""
    z = _matrix(z)
    q = MP.matrix(2, 2)
    for j in range(2):
        residual = [z[i, j] - MP.fsum(q[i, k] * MP.fsum(MP.conj(q[m, k]) * z[m, j] for m in range(2))
                                       for k in range(j)) for i in range(2)]
        norm = MP.sqrt(MP.fsum(abs(x) ** 2 for x in residual))
        for i in range(2):
            q[i, j] = residual[i] / norm
    return q
