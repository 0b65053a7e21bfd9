"""Independent references the tests check the library against, and the
random fixtures they draw: each is written from its textbook definition and
shares no code path with entdyn beyond reading a channel's transfer matrix."""

import numpy as np

from entdyn.channels import pauli_transfer_matrix
from entdyn.states import PAULIS


def kraus_operators(channel) -> list[np.ndarray]:
    """Kraus operators of a single-qubit channel: sqrt(w) times each
    eigenvector of its Choi matrix sum_ab |a><b| (x) Phi(|a><b|) =
    (1/2) sum_ij R_ij sigma_j^T (x) sigma_i (R its transfer matrix), folded
    back to 2x2, keeping w > 1e-14."""
    r = pauli_transfer_matrix(channel)
    choi = 0.5 * sum(r[i, j] * np.kron(PAULIS[j].T, PAULIS[i]) for i in range(4) for j in range(4))
    w, v = np.linalg.eigh(choi)
    return [np.sqrt(w[a]) * v[:, a].reshape(2, 2).T for a in range(4) if w[a] > 1e-14]


def kraus_apply(channel, rho, lift=None) -> np.ndarray:
    """sum_k K_k rho K_k^dag, with each K_k lifted to qubit ``lift`` of a
    two-qubit state when it is 0 or 1."""
    eye = np.eye(2)
    out = np.zeros(np.shape(rho), dtype=complex)
    for k in kraus_operators(channel):
        k = {None: k, 0: np.kron(k, eye), 1: np.kron(eye, k)}[lift]
        out += k @ rho @ k.conj().T
    return out


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian matrix (real part drawn, then
    imaginary part) with the phases of R's diagonal moved into Q. This is
    LAPACK's Householder route, kept independent of the closed form that
    :func:`entdyn.sampling.random_unital_channel` builds from the same draw."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density_matrix(rng: np.random.Generator, dim: int = 4, rank=None) -> np.ndarray:
    """Ginibre state G G^dag / Tr(G G^dag) of a complex Gaussian dim x rank G."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator, keeping qubit ``keep``."""
    t = np.asarray(rho).reshape(2, 2, 2, 2)  # indices: row0, row1, col0, col1
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijil->jl", t)


def trace_distance(rho, sigma) -> float:
    """(1/2) sum |eigenvalues of rho - sigma|."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma)))))


def bloch_vector(rho) -> np.ndarray:
    """(Tr(rho sigma_1), Tr(rho sigma_2), Tr(rho sigma_3))."""
    return np.array([np.trace(rho @ s).real for s in PAULIS[1:]])


def density_from_bloch(vec) -> np.ndarray:
    """(sigma_0 + x sigma_1 + y sigma_2 + z sigma_3) / 2."""
    return 0.5 * (PAULIS[0] + sum(v * s for v, s in zip(vec, PAULIS[1:])))
