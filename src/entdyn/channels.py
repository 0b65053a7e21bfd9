"""Nondissipative single-qubit channels and their geometry.

A channel is one of two immutable value objects:

* a :class:`PauliChannel`: the state is left alone or flipped by
  sigma_1/sigma_2/sigma_3 with fixed weights (a diagonal process matrix);
* a :class:`UnitalChannel`: a diagonal map sandwiched between two unitary
  rotations, parameterized by the signed primary radii of the ellipsoid the
  Bloch sphere is mapped onto.

Both are unital by construction, and each builds its real 4x4
Pauli-transfer matrix (PTM) R_ij = Tr(sigma_i Phi(sigma_j)) / 2 once;
:func:`pauli_transfer_matrix` returns it, and every channel operation reads
that. The PTM's lower-right 3x3 block is the map the channel induces on the
Bloch sphere.

A Pauli channel's radii and diagonal weights are linked by an affine
bijection (the PTM diagonal / :func:`chi_from_radii`); complete positivity
is the tetrahedron condition |R_i +- R_j| <= |1 +- R_k|. For any unital
channel :func:`channel_radii` gives the radii of the ellipsoid it maps the
Bloch sphere onto.

The named families' weights (:func:`family_weights`) and their PTMs and
radii (:func:`pauli_ptm`, :func:`pauli_radii`) also come as stacks over an
array of noise probabilities, and :func:`apply_ptm` evolves two-qubit states
through a whole (..., 4, 4) stack of PTMs, so a sweep needs no channel object
per point.

A value is validated once, where it enters: by the constructors, which
:func:`channel_from_json` and :func:`decompose_unital` build through. The
library's own builders make valid values and skip the checks (:func:`_trusted`).

All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import (
    PAULIS, SIGMA_0, ConfigError, _check_choice, _check_mapping, _check_probability, _field,
    _finite, _frozen, _known, _read, _shaped, matrix_from_json, matrix_to_json,
)

CP_TOL = 1e-12
UNITARY_TOL = 1e-12

# chi_1..chi_3 of a named family are p / d: it is (1 - p) id + p E, where E
# is its p = 1 channel, and p / inf is the +0.0 of a weight E lacks.
_FAMILY_DIVISORS = {name: _frozen(np.array(d)) for name, d in (
    ("two-field", (2.0, 2.0, np.inf)), ("isotropic", (3.0, 3.0, 3.0)),
    ("dephasing", (np.inf, np.inf, 1.0)))}
PAULI_FAMILIES = tuple(_FAMILY_DIVISORS)

# Row 4i + j is sigma_i (x) sigma_j flattened: the two-qubit Pauli basis.
_TWO_QUBIT_PAULIS = _frozen(np.einsum("iac,jbd->ijabcd", PAULIS, PAULIS).reshape(16, 16))
# vec(rho) @ _TWO_QUBIT_PAULIS_H is the vector of Tr(rho sigma_i (x) sigma_j).
_TWO_QUBIT_PAULIS_H = _frozen(_TWO_QUBIT_PAULIS.conj().T)

# Entry (3i + j, a, b, c, d) is sigma_i[a, b] sigma_j[c, d] / 2, so that
# O_ij = sum_abcd entry * u[b, c] * conj(u[a, d]) = Tr(sigma_i u sigma_j u^dag) / 2.
# einsum adds each entry's four nonzero terms in (a, b, c, d) order, which
# gives the same bits as the four-operand einsum of that trace; a BLAS
# product with the flattened (9, 16) matrix adds them in another order and
# moves ~95% of the entries (and with them ellipsoid mesh bytes) by an ulp.
_SU2_TO_SO3 = _frozen(
    0.5 * np.einsum("iab,jcd->ijabcd", PAULIS[1:], PAULIS[1:]).reshape(9, 2, 2, 2, 2)
)

# The PTM diagonal is _WALSH @ diag(chi) for every channel; _WALSH @ _WALSH = 4 I.
_WALSH = _frozen(
    np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)
)


@dataclass(frozen=True, eq=False)
class PauliChannel:
    """Channel applying sigma_i with probability chi_diag[i] (i=0 is identity).

    ``family`` and ``p`` are optional construction metadata kept so named
    channels serialize back to their one-parameter form. The constructor
    validates the weights, then its fill step copies them once and builds
    the read-only PTM diag(1, R1, R2, R3) (:func:`pauli_transfer_matrix`
    returns it); the library's own builders run the fill step alone.
    """

    chi_diag: np.ndarray
    family: str | None = field(default=None, compare=False)
    p: float | None = field(default=None, compare=False)
    _ptm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        chi = _finite("chi_diag", self.chi_diag, (4,), dtype=float)
        if chi.min() < -CP_TOL:
            raise ConfigError(f"chi_diag: must be non-negative, got "
                              f"chi_{int(chi.argmin())} = {float(chi.min())!r}")
        if abs(chi.sum() - 1.0) > 1e-12:
            raise ConfigError(f"chi_diag: must sum to 1, got {float(chi.sum())!r}")
        self._fill(chi, self.family, self.p)

    def _fill(self, chi_diag, family=None, p=None):
        # np.clip(chi, 0.0, None) is this maximum; it is also the one copy
        chi = _frozen(np.maximum(chi_diag, 0.0))
        vars(self).update(chi_diag=chi, family=family, p=p, _ptm=_frozen(pauli_ptm(chi)))


@dataclass(frozen=True, eq=False)
class UnitalChannel:
    """General unital channel: rotate by ``pre_rotation``, shrink the Bloch
    ball along the axes by the signed ``radii``, rotate by ``post_rotation``.

    The constructor checks each rotation's shape and finiteness, then their
    unitarity, then finite, completely positive radii. Its fill step copies
    the rotations once into one (2, 2, 2) stack, whose read-only rows they
    become, and builds the read-only PTM 1 (+) O_u diag(R) O_v once
    (:func:`pauli_transfer_matrix`); the sampler runs the fill step alone.
    """

    pre_rotation: np.ndarray
    post_rotation: np.ndarray
    radii: np.ndarray
    _ptm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = _finite("pre_rotation", self.pre_rotation, (2, 2))
        u = _finite("post_rotation", self.post_rotation, (2, 2))
        for name, m in (("pre_rotation", v), ("post_rotation", u)):
            if not np.abs(m @ m.conj().T - SIGMA_0).max() <= UNITARY_TOL:
                raise ConfigError(f"{name}: matrix is not unitary")
        r = _finite("radii", self.radii, (3,), dtype=float)
        # 1e-10 of slack: radii read off an SVD (decompose_unital, compose)
        # carry rounding, so a map on the tetrahedron's faces still constructs.
        violations = cp_violations(r, tol=1e-10)
        if violations:
            raise ConfigError("radii: not completely positive: " + "; ".join(violations))
        self._fill(v, u, r)

    def _fill(self, pre_rotation, post_rotation, radii):
        vu = _frozen(np.array((pre_rotation, post_rotation), dtype=complex))
        r = _frozen(np.array(radii, dtype=float))
        o_v, o_u = rotation_from_su2(vu)
        ptm = np.eye(4)
        ptm[1:, 1:] = o_u * r @ o_v
        vars(self).update(pre_rotation=vu[0], post_rotation=vu[1], radii=r, _ptm=_frozen(ptm))


def _trusted(cls, **fields):
    """A ``cls`` channel of fields valid by construction, built by its fill
    step alone: for the library's own builders (:func:`channel_for`, the samplers)."""
    channel = object.__new__(cls)
    channel._fill(**fields)
    return channel


def family_weights(family: str, p) -> np.ndarray:
    """Diagonal Pauli weights (chi_0, chi_1, chi_2, chi_3) = (1 - p, p / d) of a
    named family, d its ``_FAMILY_DIVISORS``, on a new last axis of ``p`` (a
    noise probability or an array of them). The range of ``p`` is checked by
    the callers that take it from outside (:func:`channel_for`, sweep configurations).
    """
    _check_choice(family, PAULI_FAMILIES, "family")
    p = np.asarray(p, dtype=float)[..., None] + 0.0  # -0.0 -> +0.0, as channels store it
    return np.concatenate((1.0 - p, p / _FAMILY_DIVISORS[family]), axis=-1)


def channel_for(family: str, p: float) -> PauliChannel:
    """Channel of a named family at noise probability p (weights from
    :func:`family_weights`), tagged for serialization. Only the family and
    ``p`` (by the config reader's float rule) are checked: their weights are valid."""
    _check_choice(family, PAULI_FAMILIES, "family")
    p = _field(p, float, "p")
    _check_probability(p, "p")
    return _trusted(PauliChannel, chi_diag=family_weights(family, p), family=family, p=p)


def chi_from_radii(radii) -> np.ndarray:
    """Diagonal Pauli weights of three signed radii, inverting
    R_i = chi_0 + chi_i - chi_j - chi_k (:func:`pauli_radii`).

    The result is returned raw: entries may be negative when the radii are
    not completely positive, which is exactly what the CP check inspects.
    :class:`PauliChannel` of the result is a validated channel; it names a
    negative weight (and clips one within ``CP_TOL`` of zero).
    """
    r = _finite("radii", radii, (3,), dtype=float)
    return _frozen(0.25 * (_WALSH @ np.concatenate(([1.0], r))))


# (i, j, k) of the tetrahedron inequalities |R_i +- R_j| <= |1 +- R_k|.
_CP_TRIPLES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _violated(r: list, tol: float):
    """The tetrahedron inequalities |R_i +- R_j| <= |1 +- R_k| + tol that
    three signed radii, given as Python floats, break, lazily and in a fixed
    order, as ``(i, j, k, "+" or "-", lhs, rhs)``. A non-finite radius
    breaks every inequality it enters."""
    for i, j, k in _CP_TRIPLES:
        for sign, label in ((1.0, "+"), (-1.0, "-")):
            lhs, rhs = abs(r[i] + sign * r[j]), abs(1.0 + sign * r[k])
            if not lhs <= rhs + tol:
                yield i, j, k, label, lhs, rhs


def cp_violations(radii, tol: float) -> list[str]:
    """Every tetrahedron inequality the three radii violate by more than
    ``tol``, worded (empty if they are completely positive)."""
    return [f"|R{i + 1} {label} R{j + 1}| = {lhs:.6g} > |1 {label} R{k + 1}| = {rhs:.6g}"
            for i, j, k, label, lhs, rhs in _violated(_floats(radii), tol)]


def is_completely_positive(radii) -> bool:
    """True iff the three signed radii satisfy every tetrahedron inequality
    of :func:`cp_violations` to ``CP_TOL``; stops at the first violation and
    words none."""
    return next(_violated(_floats(radii), CP_TOL), None) is None


def _floats(radii) -> list:
    """Three radii as Python floats, for :func:`_violated`."""
    return np.asarray(radii, dtype=float).reshape(3).tolist()


def pauli_transfer_matrix(channel) -> np.ndarray:
    """Real 4x4 Pauli-transfer matrix R_ij = Tr(sigma_i Phi(sigma_j)) / 2,
    built once by the channel: diag(1, R1, R2, R3) for a Pauli channel,
    1 (+) O_u diag(R) O_v with the SO(3) images of its rotations for a
    unital one. Anything else is not a channel.
    """
    if isinstance(channel, (PauliChannel, UnitalChannel)):
        return channel._ptm
    raise ConfigError(
        f"channel: expected a PauliChannel or UnitalChannel, got {type(channel).__name__}"
    )


def pauli_ptm(chi_diag) -> np.ndarray:
    """PTMs diag(1, R1, R2, R3) of Pauli weights: (..., 4) -> (..., 4, 4)."""
    d = np.asarray(chi_diag, dtype=float) @ _WALSH
    r = np.zeros(d.shape + (4,))
    r.reshape(d.shape[:-1] + (16,))[..., ::5] = d  # the diagonal of each 4x4
    return r


def pauli_radii(chi_diag) -> np.ndarray:
    """Signed radii R_i = chi_0 + chi_i - chi_j - chi_k of Pauli weights, in
    axis order: (..., 4) -> (..., 3)."""
    return (np.asarray(chi_diag, dtype=float) @ _WALSH)[..., 1:]


def apply_ptm(r, rho, targets) -> np.ndarray:
    """Act with Pauli-transfer matrices on the qubits ``targets`` (a subset
    of (0, 1)) of two-qubit operators.

    The correlation matrix T_ij = Tr(rho sigma_i (x) sigma_j) evolves as R T
    on qubit 0, as T R^T on qubit 1 and as R T R^T on both; the output is
    rebuilt as (1/4) sum_ij T_ij sigma_i (x) sigma_j. ``r`` is a PTM or a
    (..., 4, 4) stack of them and ``rho`` a 4x4 operator or a stack that
    broadcasts against it; the result is the broadcast stack of outputs.
    """
    m = np.asarray(rho, dtype=complex)
    t = (m.reshape(m.shape[:-2] + (16,)) @ _TWO_QUBIT_PAULIS_H).reshape(m.shape)
    # a product with a real r casts it to complex first; cast it once
    r = np.asarray(r, dtype=complex)
    if 0 in targets:
        t = r @ t
    if 1 in targets:
        t = t @ r.swapaxes(-1, -2)
    return (0.25 * t.reshape(t.shape[:-2] + (16,)) @ _TWO_QUBIT_PAULIS).reshape(t.shape)


def apply_one_sided(channel, rho, target: int = 1) -> np.ndarray:
    """Act with a single-qubit channel on one qubit of a two-qubit state:
    T -> R T on qubit 0, T R^T on qubit 1 (see :func:`apply_ptm`). The result
    can differ in the last bit from the state's row of a stacked apply_ptm
    call (a BLAS vector product against a matrix product); on Bell states
    they agree."""
    m = _shaped("rho", rho, (4, 4))
    _check_choice(target, (0, 1), "target")
    return _frozen(apply_ptm(pauli_transfer_matrix(channel), m, (target,)))


def apply_two_sided(channel, rho) -> np.ndarray:
    """Act with the same channel independently on both qubits: T -> R T R^T
    (last bit of a stacked call as in :func:`apply_one_sided`)."""
    return _frozen(apply_ptm(pauli_transfer_matrix(channel), _shaped("rho", rho, (4, 4)), (0, 1)))


def compose(first, second):
    """Channel equivalent to applying ``first`` and then ``second``.

    The PTMs multiply, and for unital channels R_second R_first is
    1 (+) M_second M_first, the product of their Bloch maps. Two Pauli channels
    compose to a Pauli channel (the radii multiply component-wise); anything
    else is re-decomposed by :func:`decompose_unital`.
    """
    m = bloch_affine_map(second) @ bloch_affine_map(first)
    if isinstance(first, PauliChannel) and isinstance(second, PauliChannel):
        return PauliChannel(chi_from_radii(np.diag(m)))
    return decompose_unital(m)


def bloch_affine_map(channel) -> np.ndarray:
    """3x3 matrix M with bloch(channel(rho)) = M bloch(rho): the PTM's
    lower-right block (a unital channel's PTM carries no translation)."""
    return pauli_transfer_matrix(channel)[1:, 1:]


def decompose_unital(m) -> UnitalChannel:
    """Split a unital Bloch map into proper rotations and signed radii.

    The canonical form has |R1| >= |R2| >= |R3| with at most one negative
    radius (carrying the sign of det M); reflections are absorbed into the
    rotations. The radii are checked by :class:`UnitalChannel` alone, whose
    ``ValueError`` quotes the violated tetrahedron inequality.
    """
    w, s, xt = np.linalg.svd(_finite("m", m, (3, 3), dtype=float))
    r = s.copy()
    if np.linalg.det(w) < 0:
        w = w.copy()
        w[:, 2] *= -1.0
        r[2] *= -1.0
    if np.linalg.det(xt) < 0:
        xt = xt.copy()
        xt[2, :] *= -1.0
        r[2] *= -1.0
    return UnitalChannel(
        pre_rotation=su2_from_rotation(xt), post_rotation=su2_from_rotation(w), radii=r
    )


def rotation_from_su2(u) -> np.ndarray:
    """SO(3) Bloch rotation O_ij = Tr(sigma_i u sigma_j u^dag) / 2 of the
    conjugation rho -> u rho u^dag: the constant (9, 16) matrix
    _SU2_TO_SO3 contracted with u (x) conj(u). ``u`` is a 2x2 matrix or a
    (..., 2, 2) stack of them, mapped to (..., 3, 3); each rotation has the
    bits of its own single-matrix call."""
    m = np.asarray(u, dtype=complex)
    o = np.einsum("kabcd,...bc,...ad->...k", _SU2_TO_SO3, m, m.conj()).real
    return _frozen(o.reshape(m.shape[:-2] + (3, 3)))


def su2_from_rotation(o) -> np.ndarray:
    """SU(2) element whose Bloch conjugation is the proper rotation ``o``.

    Uses the quaternion extraction that stays well-conditioned for every
    rotation angle (the result is fixed only up to a global sign, which does
    not affect conjugation).
    """
    m = _finite("o", o, (3, 3), dtype=float)
    if np.max(np.abs(m @ m.T - np.eye(3))) > 1e-9 or np.linalg.det(m) < 0:
        raise ConfigError("o: expected a proper rotation matrix")
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > max(m[0, 0], m[1, 1], m[2, 2]):
        s = 2.0 * np.sqrt(1.0 + t)
        q = (0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s)
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        q = ((m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s)
    elif m[1, 1] >= m[2, 2]:
        s = 2.0 * np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        q = ((m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s)
    else:
        s = 2.0 * np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        q = ((m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s)
    u = q[0] * PAULIS[0] - 1j * (q[1] * PAULIS[1] + q[2] * PAULIS[2] + q[3] * PAULIS[3])
    return _frozen(np.asarray(u))


def channel_to_json(channel) -> dict:
    """Serialize a channel to its description object (one parameterization);
    anything else is refused by :func:`pauli_transfer_matrix`."""
    pauli_transfer_matrix(channel)
    if isinstance(channel, UnitalChannel):
        return {
            "family": "unital",
            "radii": [float(x) for x in channel.radii],
            "u": matrix_to_json(channel.post_rotation),
            "v": matrix_to_json(channel.pre_rotation),
        }
    if channel.family in PAULI_FAMILIES and channel.p is not None:
        return {"family": channel.family, "p": float(channel.p)}
    return {"family": "pauli", "chi": [float(x) for x in channel.chi_diag]}


#: The parameters of each family in a channel description.
_CHANNEL_PARAMETERS = {**dict.fromkeys(PAULI_FAMILIES, ("p",)),
                       "pauli": ("chi",), "unital": ("radii", "u", "v")}


def channel_from_json(obj: dict):
    """Parse a channel description object: a family and exactly its
    parameters, each read by the config reader's rules (``p: expected float,
    got True``, ``v.dim: expected int, got 2.5``, ``chi: unknown field``); a
    constructor's rule is named by the key (``v: matrix is not unitary``)."""
    _check_mapping(obj, "channel")
    family = _read(obj, "family", str, "")
    _check_choice(family, tuple(_CHANNEL_PARAMETERS), "family")
    _known(obj, ("family", *_CHANNEL_PARAMETERS[family]), "")
    for name in _CHANNEL_PARAMETERS[family]:
        if name not in obj:
            raise ConfigError(f"{name}: missing")
    try:
        if family == "pauli":
            return PauliChannel(_field(obj["chi"], list, "chi"))
        if family == "unital":
            return UnitalChannel(pre_rotation=matrix_from_json(obj["v"], "v"),
                                 post_rotation=matrix_from_json(obj["u"], "u"),
                                 radii=_field(obj["radii"], list, "radii"))
        return channel_for(family, obj["p"])
    except ConfigError as exc:  # "<field>: <rule>", with a constructor's field renamed to its key
        field_name, rule = str(exc).split(": ", 1)
        key = {"chi_diag": "chi", "pre_rotation": "v", "post_rotation": "u"}.get(field_name, field_name)
        raise ConfigError(f"{key}: {rule}") from exc


def channel_radii(channel) -> np.ndarray:
    """Signed primary radii of the ellipsoid a unital channel maps the Bloch
    sphere onto, in :func:`decompose_unital`'s canonical form: the singular
    values |R1| >= |R2| >= |R3| of the Bloch map, with the sign of its
    determinant on R3. The closed-form laws depend only on |R_i|.
    """
    m = bloch_affine_map(channel)
    r = np.linalg.svd(m, compute_uv=False)
    r[2] *= np.sign(np.linalg.det(m))
    return _frozen(r)
