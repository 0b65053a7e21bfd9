"""Core linear algebra for one- and two-qubit states.

Conventions used throughout the package:

* computational basis |0> = |h> (horizontal), |1> = |v> (vertical),
* two-qubit basis ordering |00>, |01>, |10>, |11>,
* Pauli operators sigma_0..sigma_3 = (I, X, Y, Z), so sigma_3|h> = +|h>
  and |h><h| sits at the +z pole of the Bloch sphere.

All constructors return read-only arrays; every function is pure, so values
can be shared freely between threads or tasks.

Every module checks its array arguments with the checks defined here, each
built on the one before: :func:`_shaped`, :func:`_finite`, :func:`_hermitian`
and :func:`_physical` (unit trace, PSD). Validating constructors check shape
and finiteness, operations only the shape; a failure is a ValueError
``<argument>: <rule>``, e.g. ``rho: expected shape (4, 4), got (2, 2)``.
"""

from __future__ import annotations

import numpy as np

DENSITY_TOL = 1e-12  # Hermitian and unit-trace tolerance of density_matrix
PSD_TOL = 1e-10
NORM_TOL = 1e-12


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _shaped(name: str, value, *shapes, dtype=complex) -> np.ndarray:
    """``value`` as an array of one of ``shapes``, else a ValueError naming
    ``name``. A vector shape ``(n,)`` takes any array of n entries, which it
    flattens; no shape at all takes any square matrix."""
    m = np.asarray(value, dtype=dtype)
    for shape in shapes:
        if m.shape == shape:
            return m
        if len(shape) == 1 and m.size == shape[0]:
            return m.reshape(shape)
    if not shapes and m.ndim == 2 and m.shape[0] == m.shape[1]:
        return m
    expected = f"shape {' or '.join(map(str, shapes))}" if shapes else "a square matrix"
    raise ValueError(f"{name}: expected {expected}, got {m.shape}")


def _finite(name: str, value, *shapes, dtype=complex) -> np.ndarray:
    """:func:`_shaped`, and every entry finite."""
    m = _shaped(name, value, *shapes, dtype=dtype)
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ValueError(f"{name}: entries must be finite")
    return m


def _hermitian(name: str, value, *shapes, tol: float) -> np.ndarray:
    """:func:`_finite`, and no entry of m - m^dag larger than ``tol``."""
    m = _finite(name, value, *shapes)
    if np.abs(m - m.conj().T).max() > tol:
        raise ValueError(f"{name}: matrix is not Hermitian")
    return m


def _physical(name: str, value, *shapes, tol: float, psd_tol: float) -> np.ndarray:
    """:func:`_hermitian`, of unit trace to ``tol`` and with no eigenvalue
    below ``-psd_tol``: the rules of a density or process matrix."""
    m = _hermitian(name, value, *shapes, tol=tol)
    trace = complex(np.trace(m))
    if abs(trace - 1.0) > tol:
        raise ValueError(f"{name}: trace is {trace!r}, expected 1")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -psd_tol:
        raise ValueError(f"{name}: matrix is not positive semidefinite: min eigenvalue {min_eig!r}")
    return m


SIGMA_0 = _frozen(np.eye(2, dtype=complex))
SIGMA_1 = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_2 = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_3 = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = (SIGMA_0, SIGMA_1, SIGMA_2, SIGMA_3)

_S2 = 1.0 / np.sqrt(2.0)

# Single-qubit polarization kets: +z, -z, +x, -x, +y, -y.
KET_H = _frozen(np.array([1, 0], dtype=complex))
KET_V = _frozen(np.array([0, 1], dtype=complex))
KET_D = _frozen(np.array([_S2, _S2], dtype=complex))
KET_A = _frozen(np.array([_S2, -_S2], dtype=complex))
KET_R = _frozen(np.array([_S2, 1j * _S2], dtype=complex))
KET_L = _frozen(np.array([_S2, -1j * _S2], dtype=complex))

BASIS_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A, "R": KET_R, "L": KET_L}

BELL_KETS = {
    "phi_plus": _frozen(np.array([_S2, 0, 0, _S2], dtype=complex)),
    "phi_minus": _frozen(np.array([_S2, 0, 0, -_S2], dtype=complex)),
    "psi_plus": _frozen(np.array([0, _S2, _S2, 0], dtype=complex)),
    "psi_minus": _frozen(np.array([0, _S2, -_S2, 0], dtype=complex)),
}


def ket(amplitudes) -> np.ndarray:
    """Validate a pure-state vector (dim 2 or 4, unit norm) and freeze it."""
    v = _finite("amplitudes", amplitudes, (2,), (4,))
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"ket is not normalized: |psi|^2 = {norm_sq!r}")
    return _frozen(v.copy())


def dm(psi) -> np.ndarray:
    """Outer product |psi><psi| of a ket (not re-validated)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return _frozen(np.outer(v, v.conj()))


def bell_key(name) -> str:
    """The :data:`BELL_KETS` key of a Bell-state name: a key or a short form
    ``phi+``, ``phi-``, ``psi+``, ``psi-``, in any case. Anything else, a
    non-string included, is a ValueError."""
    if isinstance(name, str):
        key = name.strip().lower().replace("+", "_plus").replace("-", "_minus")
        if key in BELL_KETS:
            return key
    raise ValueError(f"unknown Bell state {name!r}; expected one of {sorted(BELL_KETS)}")


def bell_state(name: str) -> np.ndarray:
    """Density matrix of the Bell state ``name`` (see :func:`bell_key`)."""
    return dm(BELL_KETS[bell_key(name)])


def density_matrix(matrix) -> np.ndarray:
    """Validate a density matrix (Hermitian, unit trace, PSD) and freeze it.

    The smallest eigenvalue may fall below zero by ``PSD_TOL``.
    """
    m = _physical("matrix", matrix, (2, 2), (4, 4), tol=DENSITY_TOL, psd_tol=PSD_TOL)
    return _frozen(m.copy())


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators (first factor = qubit 0)."""
    return _frozen(np.kron(_shaped("a", a, (2, 2)), _shaped("b", b, (2, 2))))


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator, keeping qubit ``keep`` (0 or 1)."""
    m = _shaped("rho", rho, (4, 4))
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    t = m.reshape(2, 2, 2, 2)  # indices: row0, row1, col0, col1
    if keep == 0:
        out = np.einsum("ijkj->ik", t)
    else:
        out = np.einsum("ijil->jl", t)
    return _frozen(out)


def bloch_vector(rho) -> np.ndarray:
    """Bloch components (Tr(rho sigma_1), Tr(rho sigma_2), Tr(rho sigma_3))."""
    m = _shaped("rho", rho, (2, 2))
    return _frozen(np.array([float(np.trace(m @ s).real) for s in PAULIS[1:]]))


def density_from_bloch(vec) -> np.ndarray:
    """Inverse Bloch map: rho = (sigma_0 + x sigma_1 + y sigma_2 + z sigma_3)/2."""
    v = _finite("vec", vec, (3,), dtype=float)
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + PSD_TOL:
        raise ValueError(f"Bloch vector has norm {norm!r} > 1")
    out = 0.5 * (SIGMA_0 + v[0] * SIGMA_1 + v[1] * SIGMA_2 + v[2] * SIGMA_3)
    return _frozen(out)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix (to 1e-10), sorted descending."""
    return _frozen(np.linalg.eigvalsh(_hermitian("matrix", matrix, tol=1e-10))[::-1].copy())


def psd_sqrt(matrix) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix in a
    (..., n, n) stack.

    Eigenvalues below the eigensolver's noise floor (1e-14 relative to the
    largest eigenvalue of the same matrix) are zeroed before the square
    root: sqrt would amplify that noise to 1e-7, which is what limits
    concurrence and fidelity accuracy on rank-deficient states.
    """
    m = np.asarray(matrix, dtype=complex)
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    w[w < 1e-14 * w[..., -1:]] = 0.0
    return (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def purity(rho) -> float:
    """Tr(rho^2)."""
    m = np.asarray(rho, dtype=complex)
    return float(np.trace(m @ m).real)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity, evaluated as the squared nuclear norm of
    sqrt(rho) sqrt(sigma) (numerically stable for rank-deficient states)."""
    a = np.asarray(rho, dtype=complex)
    b = np.asarray(sigma, dtype=complex)
    singular = np.linalg.svd(psd_sqrt(a) @ psd_sqrt(b), compute_uv=False)
    return float(np.sum(singular) ** 2)


def trace_distance(rho, sigma) -> float:
    """T(rho, sigma) = (1/2) sum |eigenvalues of rho - sigma|."""
    d = np.asarray(rho, dtype=complex) - np.asarray(sigma, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(d))))


def matrix_to_json(matrix) -> dict:
    """Serialize a complex matrix as {"dim": n, "re": [...], "im": [...]} (row-major)."""
    m = _shaped("matrix", matrix)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`."""
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.size != dim * dim or im.size != dim * dim:
        raise ValueError(f"matrix object claims dim {dim} but carries {re.size} entries")
    return _frozen((re + 1j * im).reshape(dim, dim))
