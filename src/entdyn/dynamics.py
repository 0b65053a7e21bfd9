"""Concurrence and its closed-form evolution laws under unital noise.

Local unital channels with Bloch maps M_A, M_B leave a Bell pair Bell-diagonal
up to local rotations (R. & M. Horodecki, PRA 54, 1838, 1996), with the
correlation matrix T = M_A S_b M_B^T (S_b: the state's <s_i x s_i>) and the
concurrence max{0, (s1 + s2 + s3 sign(-det T) - 1)/2}, s1 >= s2 >= s3 being
T's singular values. For a Pauli channel with signed radii (R1, R2, R3) it is

* one-sided:  max{(|R1| + |R2| + |R3| - 1)/2, 0}, as for any unital channel;
* two-sided:  max{(R1^2 + R2^2 + R3^2 - 1)/2, 0}, as for any unital channel on the singlet.

Pure partially entangled states follow the factorization law under one-sided
noise (the Bell-pair law times the initial concurrence), and a dephasing-
prepared mixed state is its pure state under the product of the two Bloch
maps; under two-sided Pauli noise both stay X-shaped and follow
:func:`predict_x_state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    PauliChannel,
    apply_one_sided,
    bloch_affine_map,
    channel_for,
    family_weights,
    pauli_radii,
)
from .states import (
    BELL_KETS, PAULIS, ConfigError, _check_choice, _check_finite, _frozen, _hermitian, _shaped,
    bell_key, bell_state, dm, psd_sqrt, purity,
)

MODES = ("one_sided", "two_sided")

# (sy x sy) A (sy x sy) = _FLIP_SIGNS * A[::-1, ::-1]: sy x sy is the
# anti-diagonal (-1, 1, 1, -1), so the flip reverses rows and columns and
# signs entry (i, j) by s_i s_j. The signs are stored complex: numpy casts
# a real factor to complex before a complex product anyway, so this only
# saves the cast.
_FLIP_SIGNS = _frozen(np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0]).astype(complex))

_PURITY_TOL = 1e-8

# Each Bell state's S_b, its <s_i x s_i> for i = 1, 2, 3: each is +-1, and
# rint drops the 2e-16 that the kets' 1/sqrt(2) entries leave.
_BELL_CORRELATIONS = {b: _frozen(np.rint([(k.conj() @ np.kron(s, s) @ k).real for s in PAULIS[1:]]))
                      for b, k in BELL_KETS.items()}

# Offsets, in units of one step's finest halving, of the points that
# breaking_point tests: a step of h halvings tests the first 2**h - 1.
_STEPS = _frozen(np.arange(1.0, 256.0))
_BREAKING_TOL = 1e-10  # bracket width at which breaking_point stops halving


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence c = max{0, q} with q = sqrt(l0) - sqrt(l1) - sqrt(l2) - sqrt(l3),
    where ``lambdas`` is the descending, clamped spectrum of the spin-flipped
    product matrix rho (sy x sy) rho* (sy x sy).
    """

    q: float
    c: float
    lambdas: np.ndarray


def wootters(rho) -> tuple[np.ndarray, np.ndarray]:
    """Wootters q = r0 - r1 - r2 - r3 and the descending spin-flip roots
    (r0, r1, r2, r3) of a two-qubit state, or of each state in a
    (..., 4, 4) stack (q then has the leading shape, the roots one more
    axis of length 4).

    The roots are taken directly as the singular values of
    sqrt(spin-flipped rho) @ sqrt(rho): squaring them recovers the
    eigenvalues of rho (sy x sy) rho* (sy x sy), and reading the roots off an
    SVD keeps eigenvalues that are analytically zero at machine precision
    instead of sqrt(eps). A stack takes one ``eigh`` and one ``svd`` call.
    The spin flip (sy x sy) sqrt(rho)* (sy x sy) is an index reversal and
    a sign pattern, with the bits of the two matrix products it replaces.
    """
    sq = psd_sqrt(rho)
    sq_flipped = sq[..., ::-1, ::-1].conj() * _FLIP_SIGNS
    roots = np.linalg.svd(sq_flipped @ sq, compute_uv=False)
    return np.subtract.reduce(roots, axis=-1), roots  # ((r0 - r1) - r2) - r3


def concurrence(rho) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix (see :func:`wootters`)."""
    q, roots = wootters(_shaped("rho", rho, (4, 4)))
    q = float(q)
    return ConcurrenceResult(q=q, c=max(0.0, q), lambdas=_frozen(roots**2))


def predict_one_sided(radii):
    """Concurrence after one-sided unital noise on a maximally entangled pair.

    ``radii`` is one set of three radii or a (..., 3) stack of them; the
    result is a number or an array of the leading shape.
    """
    r = np.abs(np.asarray(radii, dtype=float))
    return np.maximum((r[..., 0] + r[..., 1] + r[..., 2] - 1.0) / 2.0, 0.0)


def predict_two_sided(radii):
    """Concurrence after the same Pauli noise on both qubits of a Bell pair
    (``radii`` as in :func:`predict_one_sided`)."""
    r = np.asarray(radii, dtype=float)
    return np.maximum((r[..., 0] ** 2 + r[..., 1] ** 2 + r[..., 2] ** 2 - 1.0) / 2.0, 0.0)


def predict_x_state(radii_0, radii_1, delta: float, phi: float = 0.0):
    """Concurrence of cos(2 delta)|hh> + e^{i phi} sin(2 delta)|vv> after Pauli
    noise with radii ``radii_0`` on qubit 0 and ``radii_1`` on qubit 1 (each
    as in :func:`predict_one_sided`; the result has their broadcast leading
    shape).

    Local Pauli channels keep the state X-shaped (Yu & Eberly, QIC 7, 459,
    2007). With s = (1 + R3)/2, f = (1 - R3)/2 and a+- = (R1 +- R2)/2 on
    qubit 0, and b+- the same on qubit 1, the populations are sums of
    products of s and f, the coherences become
    rho14 -> a+ b+ rho14 + a- b- rho14* and rho23 -> a+ b- rho14 + a- b+ rho14*,
    and C = max{0, 2 max(|rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))}.
    """
    r0 = np.asarray(radii_0, dtype=float)
    r1 = np.asarray(radii_1, dtype=float)
    s0, f0 = (1.0 + r0[..., 2]) / 2.0, (1.0 - r0[..., 2]) / 2.0
    s1, f1 = (1.0 + r1[..., 2]) / 2.0, (1.0 - r1[..., 2]) / 2.0
    a_plus, a_minus = (r0[..., 0] + r0[..., 1]) / 2.0, (r0[..., 0] - r0[..., 1]) / 2.0
    b_plus, b_minus = (r1[..., 0] + r1[..., 1]) / 2.0, (r1[..., 0] - r1[..., 1]) / 2.0
    v = pure_pes_ket(delta, phi)
    hh, vv = abs(v[0]) ** 2, abs(v[3]) ** 2
    rho14 = v[0] * v[3].conjugate()
    rho11 = hh * s0 * s1 + vv * f0 * f1
    rho22 = hh * s0 * f1 + vv * f0 * s1
    rho33 = hh * f0 * s1 + vv * s0 * f1
    rho44 = hh * f0 * f1 + vv * s0 * s1
    rho14_out = a_plus * b_plus * rho14 + a_minus * b_minus * rho14.conjugate()
    rho23_out = a_plus * b_minus * rho14 + a_minus * b_plus * rho14.conjugate()
    q = np.maximum(np.abs(rho14_out) - np.sqrt(rho22 * rho33),
                   np.abs(rho23_out) - np.sqrt(rho11 * rho44))
    return np.maximum(2.0 * q, 0.0)


def _bell_q(t):
    """Unclipped Wootters q of a Bell pair that local unital channels have
    left the correlation matrix ``t`` (3x3, or a (..., 3, 3) stack; q has the
    leading shape): twice its largest Bell weight (1 + <t, S_b>)/4, less 1,
    once local rotations make ``t`` a signed diagonal; every det S_b = -1."""
    s = np.linalg.svd(t, compute_uv=False)
    return (s[..., 0] + s[..., 1] + s[..., 2] * np.sign(-np.linalg.det(t)) - 1.0) / 2.0


def predict_two_sided_unital(channel, bell: str = "phi_plus") -> float:
    """Concurrence after the same unital channel on both qubits of the Bell
    state ``bell`` (see :func:`~entdyn.states.bell_key`): the Bell-pair law
    at T = M S_b M^T, with M the channel's Bloch map
    (:func:`~entdyn.channels.bloch_affine_map`). For the singlet S_b = -I,
    and the law is :func:`predict_two_sided` on the radii.
    """
    m = bloch_affine_map(channel)
    return max(0.0, float(_bell_q(m * _BELL_CORRELATIONS[bell_key(bell)] @ m.T)))


def lambda_two_sided(channel) -> np.ndarray:
    """Closed-form spin-flip spectrum for two-sided Pauli noise on a Bell pair.

    Returned in the labeled order (l0, l1, l2, l3); l0 is always maximal.
    ``channel`` is a PauliChannel, read by its weights; any other raises ConfigError.
    """
    if not isinstance(channel, PauliChannel):
        raise ConfigError(f"channel: expected a PauliChannel, got {type(channel).__name__}")
    c0, c1, c2, c3 = channel.chi_diag
    return _frozen(
        np.array(
            [
                (c0**2 + c1**2 + c2**2 + c3**2) ** 2,
                4.0 * (c1 * c2 + c3 * c0) ** 2,
                4.0 * (c1 * c3 + c2 * c0) ** 2,
                4.0 * (c1 * c0 + c2 * c3) ** 2,
            ]
        )
    )


def breaking_point(family: str, mode: str) -> float:
    """Smallest noise probability at which the predicted concurrence reaches zero.

    Solved by bisection on the analytic law for the given channel family
    ("two-field", "isotropic" or "dephasing"), halving [0, 1] until the
    bracket is at most 1e-10 wide and returning its midpoint. Each step
    takes h <= 8 halvings at once: the law is evaluated once on the
    2**h - 1 dyadic points that cut the bracket into 2**h equal parts, and
    the bracket becomes the pair of neighbouring points those halvings
    would reach. A law that is zero at p = 1 is positive below the breaking
    point and zero above it, so this returns the same bits as halving one
    point at a time. Returns 0.0 when the law is already zero at p = 0, and
    ``math.inf`` when it is still positive at p = 1: dephasing in both
    modes, whose law touches zero only at p = 1/2 and grows again.
    """
    _check_choice(mode, MODES, "mode")
    law = predict_one_sided if mode == "one_sided" else predict_two_sided

    def c_of(p):
        return law(pauli_radii(family_weights(family, p)))

    if c_of(0.0) <= 0.0:
        return 0.0
    if c_of(1.0) > 0.0:
        return math.inf
    lo, hi = 0.0, 1.0
    while hi - lo > _BREAKING_TOL:
        halvings = 1
        while halvings < 8 and (hi - lo) / 2**halvings > _BREAKING_TOL:
            halvings += 1
        width = (hi - lo) / 2**halvings
        k = int(np.count_nonzero(c_of(lo + width * _STEPS[: 2**halvings - 1]) > 0.0))
        lo, hi = lo + k * width, lo + (k + 1) * width
    return 0.5 * (lo + hi)


def pure_state_concurrence(state, name: str = "state") -> float:
    """Concurrence of a pure two-qubit state: the factor by which the PES laws
    scale the Bell-pair law. ``state`` is read as a Hermitian unit-trace 4x4
    matrix named ``name``; a mixed one raises ``ValueError``."""
    m = _hermitian(name, state, (4, 4), tol=1e-10)
    if not abs(np.trace(m).real - 1.0) <= _PURITY_TOL:
        raise ConfigError(f"{name}: trace must be 1, got {float(np.trace(m).real)!r}")
    if purity(m) < 1.0 - _PURITY_TOL:
        raise ValueError(
            f"{name} is mixed (purity {purity(m)!r}); the PES laws take a pure state, and a "
            "mixed one as a pure state plus its preparation channel (mixed_evolution_prediction)"
        )
    return concurrence(m).c


def factorization_prediction(initial, channel) -> float:
    """Concurrence of a pure two-qubit state after one-sided noise: its initial
    concurrence times the concurrence a Bell pair keeps under the channel, the
    Bell-pair law at T = M S_phi+. A mixed ``initial`` is refused (see
    :func:`mixed_evolution_prediction`)."""
    t = bloch_affine_map(channel) * _BELL_CORRELATIONS["phi_plus"]
    return max(0.0, float(_bell_q(t))) * pure_state_concurrence(initial, "initial state")


def mixed_evolution_prediction(sigma, prep, channel) -> float:
    """Concurrence of a mixed state prepared as one-sided noise ``prep`` on a
    pure state ``sigma`` and then swept by ``channel`` on the same qubit: the
    concurrence of ``sigma`` times the Bell-pair law at T = M_channel M_prep S_phi+."""
    t = bloch_affine_map(channel) @ bloch_affine_map(prep) * _BELL_CORRELATIONS["phi_plus"]
    return max(0.0, float(_bell_q(t))) * pure_state_concurrence(sigma, "sigma")


@dataclass(frozen=True)
class InitialStateSpec:
    """Recipe for the initial two-qubit state of a sweep.

    kind = "bell"       -> the Bell state named by ``bell``
    kind = "pure_pes"   -> cos(2 delta)|hh> + sin(2 delta) e^{i phi}|vv>
    kind = "mixed_pes"  -> the pure state above (phi = 0) with one-sided
                           dephasing of strength ``dephasing``
    """

    kind: str
    bell: str = "phi_plus"
    delta: float = 0.0
    phi: float = 0.0
    dephasing: float = 0.0

    def __post_init__(self):
        _check_choice(self.kind, ("bell", "pure_pes", "mixed_pes"), "kind")

    def label(self) -> str:
        if self.kind == "bell":
            return f"bell_{self.bell}"
        if self.kind == "pure_pes":
            return f"pure_pes_delta{self.delta:g}_phi{self.phi:g}"
        return f"mixed_pes_delta{self.delta:g}_p{self.dephasing:g}"


def pure_pes_ket(delta: float, phi: float = 0.0) -> np.ndarray:
    """cos(2 delta)|hh> + sin(2 delta) e^{i phi}|vv>, angles finite; concurrence |sin(4 delta)|."""
    _check_finite(delta, "delta")
    _check_finite(phi, "phi")
    v = np.zeros(4, dtype=complex)
    v[0] = np.cos(2.0 * delta)
    v[3] = np.sin(2.0 * delta) * np.exp(1j * phi)
    return _frozen(v)


def make_initial(spec: InitialStateSpec, noisy_qubit: int = 1) -> np.ndarray:
    """Density matrix for an initial-state recipe.

    ``noisy_qubit`` selects which qubit the mixed-PES preparation dephasing
    acts on; sweeps send their channel to the same qubit.
    """
    if spec.kind == "bell":
        return bell_state(spec.bell)
    if spec.kind == "pure_pes":
        return dm(pure_pes_ket(spec.delta, spec.phi))
    pure = dm(pure_pes_ket(spec.delta, 0.0))
    return apply_one_sided(channel_for("dephasing", spec.dephasing), pure, target=noisy_qubit)
