"""Core linear algebra for one- and two-qubit states.

Conventions used throughout the package:

* computational basis |0> = |h> (horizontal), |1> = |v> (vertical),
* two-qubit basis ordering |00>, |01>, |10>, |11>,
* Pauli operators sigma_0..sigma_3 = (I, X, Y, Z), so sigma_3|h> = +|h>
  and |h><h| sits at the +z pole of the Bloch sphere.

All constructors return read-only arrays; every function is pure, so values
can be shared freely between threads or tasks.

Every module checks its arguments with the checks defined here: the array
checks, each built on the one before: :func:`_shaped`, :func:`_finite` and
:func:`_hermitian`, and the scalar rules ``_check_*`` (the count bound sits
by ``MAX_COUNT`` in tomography). Every file and flag value is read by
:func:`_field` (then checked by a rule in :func:`_checked`; :func:`_read`
and :func:`_known` read mappings), and every CSV table by :func:`_csv_rows`.
Validating constructors check shape and finiteness, operations only the
shape; a failure is a :class:`ConfigError` ``<argument>: <rule>``, e.g.
``rho: expected shape (4, 4), got (2, 2)`` or ``p: value 1.5 outside [0, 1]``.
"""

from __future__ import annotations

import csv
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid input, from a config field, a flag or a function argument; the
    message starts with the offending field path or argument name."""


def _check_probability(p, path: str, index=None) -> None:
    """``p`` in [0, 1]; a grid point is named ``path[index]``, formatted only once it fails."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{path if index is None else f'{path}[{index}]'}: value {p!r} outside [0, 1]")


def _check_at_least(value, low, path: str) -> None:
    if value < low:
        raise ConfigError(f"{path}: must be >= {low}, got {value!r}")


def _check_finite(value, path: str) -> None:
    if not -np.inf < value < np.inf:
        raise ConfigError(f"{path}: must be finite, got {value!r}")


def _check_positive(value, path: str) -> None:
    """``value`` positive and finite."""
    if not 0 < value < np.inf:
        raise ConfigError(f"{path}: must be positive and finite, got {value!r}")


def _check_choice(value, choices: tuple, path: str) -> None:
    """``value`` one of ``choices``, else ``path: expected 'a', 'b' or 'c', got 'x'``."""
    if value not in choices:
        *rest, last = map(repr, choices)
        raise ConfigError(f"{path}: expected {', '.join(rest)} or {last}, got {value!r}")


def _field(value, kind, path: str):
    """``value`` as a ``kind`` (str, int, float, or ``list``: a list, tuple or 1-d array
    of floats, entry i named ``path[i]``), or a ConfigError naming ``path``. A number
    may be text (a compact string's field, a flag, a CSV cell); an int takes an integral
    float but no fraction; bools, None, lists and mappings are never numbers."""
    if kind is list:
        if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim == 1:
            return [x if type(x) is float else _field(x, float, f"{path}[{i}]") for i, x in enumerate(value)]
    elif type(value) is kind:  # already a str, int or float: itself, without the numbers.Real check
        return value
    elif isinstance(value, str if kind is str else (str, numbers.Real)) and not isinstance(value, bool):
        try:
            out = kind(value)
        except (ValueError, OverflowError):
            out = None
        if out is not None and (kind is not int or isinstance(value, str) or out == value):
            return out
    raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")


def _checked(value, kind, path: str, check, *args):
    """``value`` read as a ``kind`` by :func:`_field`, then checked by ``check(value, *args, path)``."""
    value = _field(value, kind, path)
    check(value, *args, path)
    return value


def _read(obj: dict, name: str, kind, prefix: str):
    """``obj[name]`` by :func:`_field`, named ``prefix + name``; if absent, missing."""
    if name not in obj:
        raise ConfigError(f"{prefix}{name}: missing")
    return _field(obj[name], kind, prefix + name)


def _known(obj: dict, names, prefix: str) -> None:
    """ConfigError naming the first field of ``obj`` not among ``names``."""
    unknown = set(obj) - set(names)
    if unknown:
        raise ConfigError(f"{prefix}{min(map(str, unknown))}: unknown field")


def _csv_rows(path) -> list[dict]:
    """The data rows of the CSV table in the file ``path``, each a mapping
    from the header's column names to its cells, to be read by :func:`_read`.
    Blank lines are skipped. A header that repeats a name, or a data row
    whose cells do not match the header one for one, is a ConfigError naming
    the file, e.g. ``c.csv: data row 3: expected 4 cells (the header's), got 6``
    (data rows count from 1)."""
    with open(path, newline="") as fh:
        lines = [cells for cells in csv.reader(fh) if cells]
    if not lines:
        return []
    header, *data = lines
    for i, name in enumerate(header):
        if name in header[:i]:
            raise ConfigError(f"{path}: header repeats column {name!r}")
    for i, cells in enumerate(data, start=1):
        if len(cells) != len(header):
            raise ConfigError(f"{path}: data row {i}: expected {len(header)} cells (the header's), "
                              f"got {len(cells)}")
    return [dict(zip(header, cells)) for cells in data]


def _check_mapping(obj, path: str) -> None:
    """A ConfigError unless ``obj`` (a config, a file's object or row) is a mapping."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(obj).__name__}")


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def _shaped(name: str, value, shape=None, dtype=complex) -> np.ndarray:
    """``value`` as an array of ``shape``, else a ConfigError naming
    ``name``. A vector shape ``(n,)`` takes any array of n entries, which it
    flattens; no shape takes any square matrix. A value numpy cannot read
    as one array of numbers (a ragged nesting, a string) is named too."""
    try:
        m = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        expected = "a square matrix" if shape is None else f"shape {shape}"
        raise ConfigError(f"{name}: expected {expected} of numbers, got {type(value).__name__}") from exc
    if shape is None:
        if m.ndim == 2 and m.shape[0] == m.shape[1]:
            return m
        expected = "a square matrix"
    else:
        if m.shape == shape:
            return m
        if len(shape) == 1 and m.size == shape[0]:
            return m.reshape(shape)
        expected = f"shape {shape}"
    raise ConfigError(f"{name}: expected {expected}, got {m.shape}")


def _finite(name: str, value, shape=None, dtype=complex) -> np.ndarray:
    """:func:`_shaped`, and every entry finite."""
    m = _shaped(name, value, shape, dtype=dtype)
    if np.count_nonzero(np.isfinite(m)) < m.size:
        raise ConfigError(f"{name}: entries must be finite")
    return m


def _hermitian(name: str, value, shape, tol: float) -> np.ndarray:
    """:func:`_finite`, and no entry of m - m^dag larger than ``tol``."""
    m = _finite(name, value, shape)
    if np.abs(m - m.conj().T).max() > tol:
        raise ConfigError(f"{name}: matrix is not Hermitian")
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


def dm(psi) -> np.ndarray:
    """Outer product |psi><psi| of a ket (not re-validated)."""
    v = np.asarray(psi, dtype=complex).reshape(-1)
    return _frozen(np.outer(v, v.conj()))


def bell_key(name) -> str:
    """The :data:`BELL_KETS` key of a Bell-state name: a key or a short form
    ``phi+``, ``phi-``, ``psi+``, ``psi-``, in any case. Anything else, a
    non-string included, fails as a choice named ``bell``."""
    if isinstance(name, str):
        key = name.strip().lower().replace("+", "_plus").replace("-", "_minus")
        if key in BELL_KETS:
            return key
    _check_choice(name, tuple(BELL_KETS), "bell")  # raises: no key has this form


def bell_state(name: str) -> np.ndarray:
    """Density matrix of the Bell state ``name`` (see :func:`bell_key`)."""
    return dm(BELL_KETS[bell_key(name)])


def psd_sqrt(matrix) -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix in a
    (..., n, n) stack.

    Eigenvalues below the eigensolver's noise floor (1e-14 relative to the
    largest eigenvalue of the same matrix) are zeroed before the square
    root: sqrt would amplify that noise to 1e-7, which is what limits
    concurrence and fidelity accuracy on rank-deficient states.
    """
    w, v = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    np.maximum(w, 0.0, out=w)
    w[w < 1e-14 * w[..., -1:]] = 0.0
    return (v * np.sqrt(w, out=w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


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


def matrix_to_json(matrix) -> dict:
    """Serialize a complex matrix as {"dim": n, "re": [...], "im": [...]} (row-major)."""
    m = _shaped("matrix", matrix)
    return {
        "dim": int(m.shape[0]),
        "re": [float(x) for x in m.real.reshape(-1)],
        "im": [float(x) for x in m.imag.reshape(-1)],
    }


def matrix_from_json(obj: dict, path: str = "matrix") -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; a malformed object is a ConfigError
    naming ``path`` and the field, e.g. ``matrix.dim: expected int, got 2.5``."""
    _check_mapping(obj, path)
    prefix = f"{path}."
    _known(obj, ("dim", "re", "im"), prefix)
    dim = _read(obj, "dim", int, prefix)
    _check_at_least(dim, 1, prefix + "dim")
    re, im = (np.array(_read(obj, name, list, prefix)) for name in ("re", "im"))
    if re.size != dim * dim or im.size != dim * dim:
        raise ConfigError(f"{path}: dim {dim} takes {dim * dim} entries, got {re.size} re and {im.size} im")
    return _frozen((re + 1j * im).reshape(dim, dim))
