"""Property tests for the Pauli-transfer-matrix channel representation, the
complete-positivity test, the batched Wootters concurrence, the X-state law
and the sweep configuration reader.

Every channel operation reads the PTM, so these check it against the
Kraus-sum oracle (Kraus operators read off the Choi matrix) on random
unital channels, whose PTM is built once at construction. Sweeps take the
concurrence of a whole stack of states at once, so the batched core is
checked against the single-state wrapper, state by state, and the spin flip
it takes by index reversal against the matrix products it replaced, bit for
bit. The X-state law fills the analytic rows of two-sided sweeps on
partially entangled states, so it is held to exact evolution on arbitrary
Pauli channels and on every sweep configuration.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entdyn.channels import (
    CP_TOL,
    PAULI_FAMILIES,
    PauliChannel,
    UnitalChannel,
    apply_one_sided,
    bloch_affine_map,
    channel_for,
    chi_from_radii,
    compose,
    cp_violations,
    decompose_unital,
    family_weights,
    is_completely_positive,
    pauli_radii,
    pauli_transfer_matrix,
    rotation_from_su2,
)
from entdyn.dynamics import (
    MODES,
    InitialStateSpec,
    concurrence,
    predict_x_state,
    pure_pes_ket,
    wootters,
)
from entdyn.harness import (
    DEFAULT_P_GRID,
    ConfigError,
    Pipeline,
    SweepConfig,
    run_sweep,
    sweep_config_from_dict,
)
from entdyn.states import dm
from entdyn.states import PAULIS, psd_sqrt
from oracles import kraus_apply, kraus_operators

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

# Known edges, pinned as examples so that covering them does not depend on
# what the derandomized draws reach: the noiseless and the fully noisy
# channel of a family (p = 0 and 1), the product and the maximally
# entangled PES (delta = 0 and pi / 8), and one point inside each face of
# the complete-positivity tetrahedron (Pauli weight k exactly 0, the others
# 1/2, 1/4, 1/4, so that the radii are exact).
NOISELESS = pauli_radii(family_weights("isotropic", 0.0))
FULLY_NOISY = {family: pauli_radii(family_weights(family, 1.0)) for family in PAULI_FAMILIES}
FACES = [pauli_radii(np.roll([0.0, 0.5, 0.25, 0.25], k)) for k in range(4)]
BELL = dm(pure_pes_ket(math.pi / 8))

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def psd_unit_trace(draw, dim):
    """G G^dag / Tr for a complex G with entries in the unit square."""
    g = draw(arrays(np.float64, (2, dim, dim), elements=unit))
    m = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    if np.trace(m).real < 1e-3:
        m = m + np.eye(dim)
    return m / np.trace(m).real


@st.composite
def unitaries(draw):
    """u = q0 I - i (q1 X + q2 Y + q3 Z) for a unit quaternion q."""
    q = draw(arrays(np.float64, 4, elements=unit))
    if np.linalg.norm(q) < 1e-3:
        q = np.array([1.0, 0.0, 0.0, 0.0])
    q = q / np.linalg.norm(q)
    return q[0] * PAULIS[0] - 1j * (q[1] * PAULIS[1] + q[2] * PAULIS[2] + q[3] * PAULIS[3])


@st.composite
def chi_weights(draw):
    w = draw(arrays(np.float64, 4, elements=st.floats(0.0, 1.0, allow_nan=False)))
    return w / w.sum() if w.sum() > 1e-3 else np.array([1.0, 0.0, 0.0, 0.0])


# R_i = chi_0 + chi_i - chi_j - chi_k: non-negative weights give CP radii.
RADII_OF_WEIGHTS = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)
cp_radii = chi_weights().map(lambda w: RADII_OF_WEIGHTS @ w)


@st.composite
def near_unitary_radii(draw):
    """Radii of a Pauli channel with weight >= 0.6 on one of the four Pauli
    unitaries. A random CP channel on each qubit leaves a partially entangled
    state separable in most draws, where C = 0 tests nothing; a flip near
    sigma_1 or sigma_2 moves the coherence to rho23, the law's other branch."""
    t = draw(st.floats(0.0, 0.4))
    return RADII_OF_WEIGHTS @ ((1.0 - t) * np.eye(4)[draw(st.integers(0, 3))] + t * draw(chi_weights()))


@st.composite
def unital_channels(draw):
    if draw(st.booleans()):
        return PauliChannel(draw(chi_weights()))
    return UnitalChannel(draw(unitaries()), draw(unitaries()), draw(cp_radii))


def _ptm_of_kraus(ops):
    return np.array(
        [
            [0.5 * sum(np.trace(pi @ k @ pj @ k.conj().T) for k in ops).real for pj in PAULIS]
            for pi in PAULIS
        ]
    )


@PROPERTY
@given(unital_channels(), psd_unit_trace(4))
@example(channel_for("isotropic", 0.0), BELL)
@example(channel_for("two-field", 1.0), BELL)
@example(channel_for("dephasing", 1.0), BELL)
def test_apply_matches_kraus_sum_oracle(channel, rho):
    for target in (0, 1):
        direct = apply_one_sided(channel, rho, target=target)
        assert np.max(np.abs(direct - kraus_apply(channel, rho, lift=target))) < 1e-13


@PROPERTY
@given(unital_channels(), unital_channels())
def test_compose_multiplies_transfer_matrices(a, b):
    expected = pauli_transfer_matrix(b) @ pauli_transfer_matrix(a)
    assert np.max(np.abs(pauli_transfer_matrix(compose(a, b)) - expected)) < 1e-12


@PROPERTY
@given(unital_channels())
def test_kraus_operators_complete_and_faithful(channel):
    ops = kraus_operators(channel)
    assert np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(2))) < 1e-13
    assert np.max(np.abs(_ptm_of_kraus(ops) - pauli_transfer_matrix(channel))) < 1e-13


@PROPERTY
@given(unitaries(), cp_radii, unitaries())
@example(np.eye(2), FACES[0], np.eye(2))
@example(np.eye(2), FACES[1], np.eye(2))
@example(np.eye(2), FACES[2], np.eye(2))
@example(np.eye(2), FACES[3], np.eye(2))
def test_decompose_unital_round_trips(u, radii, v):
    m = rotation_from_su2(u) @ np.diag(radii) @ rotation_from_su2(v)
    assert np.max(np.abs(bloch_affine_map(decompose_unital(m)) - m)) < 1e-12


@PROPERTY
@given(unitaries(), cp_radii, unitaries())
def test_unital_ptm_built_once_from_the_trace_formula(u, radii, v):
    """The cached PTM is 1 (+) O_u diag(R) O_v with O_ij = Tr(s_i u s_j u^dag) / 2
    summed by the four-operand einsum, and no caller can write to it."""
    channel = UnitalChannel(pre_rotation=v, post_rotation=u, radii=radii)
    sigma = PAULIS[1:]

    def rotation(m):
        return 0.5 * np.einsum("iab,bc,jcd,da->ij", sigma, m, sigma, m.conj().T).real

    expected = np.eye(4)
    expected[1:, 1:] = rotation(u) @ np.diag(channel.radii) @ rotation(v)
    ptm = pauli_transfer_matrix(channel)
    assert np.max(np.abs(ptm - expected)) <= 1e-15
    assert pauli_transfer_matrix(channel) is ptm
    assert not ptm.flags.writeable
    with pytest.raises(ValueError):
        ptm[1, 1] = 0.0


_WALSH_RADII = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)


@st.composite
def near_faces(draw):
    """Radii of Pauli weights with one weight at or just below zero: points on
    the tetrahedron's faces (edges and vertices when more weights vanish)
    and points pushed off a face by about the CP slack."""
    w = draw(arrays(np.float64, 4, elements=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)))
    k = draw(st.integers(0, 3))
    w[k] = 0.0
    w = w / w.sum() if w.sum() > 0 else np.eye(4)[(k + 1) % 4]
    w[k] = -draw(st.sampled_from([0.0, 1e-14, 1e-13, 2e-13, 3e-13, 1e-12, 1e-11]))
    return _WALSH_RADII @ w


@st.composite
def non_finite_radii(draw):
    r = draw(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    r[draw(st.integers(0, 2))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return r


@PROPERTY
@given(
    st.one_of(
        arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)), near_faces(), non_finite_radii()
    ),
    st.sampled_from([CP_TOL, 1e-10]),
)
@example(FACES[0], CP_TOL)
@example(FACES[1], CP_TOL)
@example(FACES[2], 1e-10)
@example(FACES[3], 1e-10)
def test_cp_test_is_the_chi_oracle(radii, tol):
    """On the cube |R_i| <= 1, |R_i +- R_j| <= |1 +- R_k| + tol reads
    4 chi >= -tol for the two weights it involves, so the test agrees with
    min chi >= -tol / 4 away from roundoff of that threshold; a non-finite
    radius is never completely positive. The test at ``tol`` is
    ``is_completely_positive`` at CP_TOL and, at 1e-10 (as UnitalChannel
    runs it), ``cp_violations`` finding none."""
    passes = is_completely_positive(radii) if tol == CP_TOL else not cp_violations(radii, tol)
    if not np.isfinite(radii).all():
        assert not passes
        return
    assume(np.all(np.abs(radii) <= 1.0))
    chi = chi_from_radii(radii).min()
    assume(abs(chi + tol / 4) > 1e-15)
    assert passes == (chi >= -tol / 4)


@st.composite
def low_rank_states(draw):
    """Z Z^dag / Tr for a complex 4 x r matrix Z of a drawn rank r in 1..4."""
    rank = draw(st.integers(1, 4))
    g = draw(arrays(np.float64, (2, 4, rank), elements=unit))
    z = g[0] + 1j * g[1]
    if np.linalg.matrix_rank(z, tol=1e-3) < rank:
        z = np.eye(4)[:, :rank]
    m = z @ z.conj().T
    return m / np.trace(m).real


@PROPERTY
@given(st.lists(low_rank_states(), min_size=1, max_size=6))
def test_batched_wootters_matches_concurrence(states):
    q, roots = wootters(np.stack(states))
    assert q.shape == (len(states),) and roots.shape == (len(states), 4)
    for i, rho in enumerate(states):
        single = concurrence(rho)
        assert abs(q[i] - single.q) < 1e-13
        assert np.max(np.abs(roots[i] ** 2 - single.lambdas)) < 1e-13


SPIN_FLIP = np.kron(PAULIS[2], PAULIS[2]).real


def spin_flip_product_wootters(rho):
    """Wootters q and roots with the spin flip as two products by sy (x) sy."""
    sq = psd_sqrt(rho)
    roots = np.linalg.svd(SPIN_FLIP @ sq.conj() @ SPIN_FLIP @ sq, compute_uv=False)
    return roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3], roots


@PROPERTY
@given(st.lists(low_rank_states(), min_size=1, max_size=6))
def test_wootters_bits_match_the_spin_flip_products(states):
    """The index-and-sign spin flip gives the bits of the matrix products,
    for one state and for a stack."""
    for rho in (*states, np.stack(states)):
        got, want = wootters(rho), spin_flip_product_wootters(rho)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


@PROPERTY
@given(st.lists(st.tuples(low_rank_states(), st.integers(-24, 0)), min_size=2, max_size=6))
def test_batched_psd_sqrt_cuts_off_per_matrix(items):
    """The relative 1e-14 cut-off reads each matrix's own largest eigenvalue,
    so a stack mixing scales 24 decades apart keeps every small matrix."""
    stack = np.stack([10.0**k * rho for rho, k in items])
    for m, root in zip(stack, psd_sqrt(stack)):
        single = psd_sqrt(m)
        assert np.max(np.abs(root - single)) <= 1e-12 * np.max(np.abs(single))


@PROPERTY
@given(st.one_of(low_rank_states(), psd_unit_trace(4)), unitaries(), unitaries())
def test_concurrence_is_local_unitary_invariant(rho, u, v):
    """C((u x v) rho (u x v)^dag) = C(rho), at every rank from pure states up."""
    w = np.kron(u, v)
    assert abs(concurrence(w @ rho @ w.conj().T).c - concurrence(rho).c) <= 1e-10


angles = st.floats(-math.pi, math.pi)


@PROPERTY
@given(near_unitary_radii(), near_unitary_radii(), angles, angles)
@example(NOISELESS, FULLY_NOISY["two-field"], 0.0, 0.0)
@example(NOISELESS, FULLY_NOISY["isotropic"], math.pi / 8, 0.0)
@example(FULLY_NOISY["dephasing"], NOISELESS, math.pi / 8, 0.0)
@example(FULLY_NOISY["two-field"], FULLY_NOISY["dephasing"], 0.0, 0.0)
def test_x_state_law_matches_evolution(radii_0, radii_1, delta, phi):
    """Any Pauli channel on each qubit, R1 != R2 included (the families never
    draw that), against the Wootters concurrence of the evolved state."""
    rho = dm(pure_pes_ket(delta, phi))
    rho = apply_one_sided(PauliChannel(chi_from_radii(radii_0)), rho, target=0)
    rho = apply_one_sided(PauliChannel(chi_from_radii(radii_1)), rho, target=1)
    assert abs(predict_x_state(radii_0, radii_1, delta, phi) - concurrence(rho).c) <= 1e-9


partially_entangled = st.one_of(
    st.builds(InitialStateSpec, kind=st.just("pure_pes"), delta=angles, phi=angles),
    st.builds(InitialStateSpec, kind=st.just("mixed_pes"), delta=angles,
              dephasing=st.floats(0.0, 1.0)),
)


@PROPERTY
@given(st.sampled_from(PAULI_FAMILIES), st.sampled_from(MODES), st.sampled_from((0, 1)),
       partially_entangled)
@example("two-field", "one_sided", 0, InitialStateSpec(kind="pure_pes", delta=0.0))
@example("isotropic", "one_sided", 1, InitialStateSpec(kind="pure_pes", delta=math.pi / 8))
@example("dephasing", "two_sided", 0, InitialStateSpec(kind="pure_pes", delta=math.pi / 8))
@example("isotropic", "two_sided", 0, InitialStateSpec(kind="mixed_pes", delta=math.pi / 8))
@example("two-field", "one_sided", 0,
         InitialStateSpec(kind="mixed_pes", delta=math.pi / 8, dephasing=1.0))
def test_analytic_rows_match_exact_evolution(family, mode, noisy_qubit, spec):
    """Analytic sweep rows on a partially entangled state, one- or two-sided,
    against the exact pipeline's simulation on the 21-point default grid."""
    config = SweepConfig(family=family, mode=mode, initial=spec, p_grid=DEFAULT_P_GRID,
                         noisy_qubit=noisy_qubit, pipeline=Pipeline(kind="analytic"))
    law = [row.concurrence for row in run_sweep(config)]
    exact = run_sweep(replace(config, pipeline=Pipeline(kind="exact_simulation")))
    assert np.max(np.abs(np.subtract(law, [row.concurrence for row in exact]))) <= 1e-9


# Values of the wrong type for any config field. Numbers stay small: a range
# object's ``points`` is allocated as that many floats.
junk = st.one_of(
    st.integers(-100, 100),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=5),
    st.none(),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def mappings(*names):
    return st.dictionaries(st.sampled_from(names), junk, max_size=len(names))


initial_states = st.one_of(
    junk,
    st.builds(lambda kind, fields: {"kind": kind, **fields},
              st.sampled_from(["bell", "pure_pes", "mixed_pes"]),
              mappings("bell", "delta", "phi", "dephasing")),
    st.builds(lambda kind, parts: ":".join([kind, *parts]),
              st.sampled_from(["bell", "pes", "pure_pes", "mixed", "mixed_pes"]),
              st.lists(st.one_of(st.text(max_size=4), st.floats().map(repr)), max_size=3)),
)

malformed_configs = st.fixed_dictionaries({}, optional={
    "family": junk,
    "mode": junk,
    "noisy_qubit": junk,
    "p_scale": junk,
    "initial": initial_states,
    "initials": st.one_of(junk, st.lists(initial_states, max_size=3)),
    "p_grid": st.one_of(junk, mappings("start", "stop", "points"), st.lists(junk, max_size=4)),
    "pipeline": st.one_of(junk, mappings("kind", "n_per_setting", "trials", "seed", "likelihood")),
})

# A field of the schema, or any key of a mapping that has no such field.
SCHEMA_PATH = re.compile(
    r"(family|mode|noisy_qubit|p_scale|initials?|p_grid|pipeline)(\[\d+\])?"
    r"((\.(kind|bell|delta|phi|dephasing|start|stop|points|n_per_setting|trials|seed|likelihood))?: "
    r"|\..*: unknown field$)",
    re.DOTALL,
)


@settings(PROPERTY, max_examples=400)
@given(malformed_configs)
def test_malformed_config_fails_naming_a_schema_path(obj):
    """A config either reads or is a ConfigError whose message starts with
    the path of a schema field, never another exception."""
    try:
        sweep_config_from_dict(obj)
    except ConfigError as exc:
        assert SCHEMA_PATH.match(str(exc)), str(exc)
