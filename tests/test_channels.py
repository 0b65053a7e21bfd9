import numpy as np
import pytest

import entdyn.channels
from entdyn.channels import (
    _SU2_TO_SO3,
    PAULI_FAMILIES,
    PauliChannel,
    UnitalChannel,
    apply_one_sided,
    apply_ptm,
    apply_two_sided,
    bloch_affine_map,
    channel_for,
    channel_radii,
    channel_from_json,
    channel_to_json,
    chi_from_radii,
    compose,
    decompose_unital,
    family_weights,
    is_completely_positive,
    pauli_ptm,
    pauli_radii,
    pauli_transfer_matrix,
    rotation_from_su2,
    su2_from_rotation,
)
from entdyn.dynamics import concurrence, predict_one_sided
from entdyn.sampling import (
    random_cp_radii,
    random_pauli_channel,
    random_pure_ket,
    random_unital_channel,
)
from entdyn.states import PAULIS, bell_state, dm, KET_H
from oracles import (
    bloch_vector,
    density_from_bloch,
    kraus_apply,
    kraus_operators,
    partial_trace,
    random_density_matrix,
    random_unitary,
)


def kraus_sum_oracle(chi, rho, lift=None):
    """Literal double sum chi_mn E_m rho E_n^dag, optionally lifted to one qubit."""
    out = np.zeros_like(rho, dtype=complex)
    eye = np.eye(2, dtype=complex)
    for m in range(4):
        for n in range(4):
            if chi[m, n] == 0.0:
                continue
            em, en = PAULIS[m], PAULIS[n]
            if lift == 0:
                em, en = np.kron(em, eye), np.kron(en, eye)
            elif lift == 1:
                em, en = np.kron(eye, em), np.kron(eye, en)
            out += chi[m, n] * (em @ rho @ en.conj().T)
    return out


class TestApply:
    def test_identity_channel(self):
        rng = np.random.default_rng(20)
        identity = PauliChannel([1, 0, 0, 0])
        rho = random_density_matrix(rng, 2)
        assert np.allclose(kraus_apply(identity, rho), rho, atol=1e-15)

    def test_isotropic_three_quarters_fully_depolarizes(self):
        out = kraus_apply(channel_for("isotropic", 0.75), dm(KET_H))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_two_field_shrinks_z(self):
        for p in (0.0, 0.3, 0.8, 1.0):
            out = kraus_apply(channel_for("two-field", p), dm(KET_H))
            assert np.allclose(bloch_vector(out), (0, 0, 1 - 2 * p), atol=1e-12)

    def test_matches_kraus_sum_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pc = random_pauli_channel(rng)
            rho = random_density_matrix(rng, 2)
            assert np.allclose(
                kraus_apply(pc, rho), kraus_sum_oracle(np.diag(pc.chi_diag), rho), atol=1e-13
            )

    def test_unitality_and_trace(self):
        rng = np.random.default_rng(23)
        mixed = np.eye(2, dtype=complex) / 2
        channels = [
            channel_for("two-field", 0.4),
            channel_for("isotropic", 0.7),
            channel_for("dephasing", 0.2),
            random_pauli_channel(rng),
            random_unital_channel(rng),
        ]
        for ch in channels:
            assert np.allclose(kraus_apply(ch, mixed), mixed, atol=1e-12)
            rho = random_density_matrix(rng, 2)
            assert np.trace(kraus_apply(ch, rho)).real == pytest.approx(1.0, abs=1e-12)


class TestOneTwoSided:
    def test_identity_fixes_bell(self):
        bell = bell_state("phi+")
        out = apply_one_sided(PauliChannel([1, 0, 0, 0]), bell, target=1)
        assert np.allclose(out, bell, atol=1e-15)

    def test_isotropic_concurrence_law(self):
        bell = bell_state("phi+")
        for p in (0.1, 0.3, 0.5, 0.8):
            out = apply_one_sided(channel_for("isotropic", p), bell, target=1)
            assert concurrence(out).c == pytest.approx(max(1 - 2 * p, 0.0), abs=1e-12)

    def test_matches_lifted_kraus_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            pc = random_pauli_channel(rng)
            psi = random_pure_ket(rng, 4)
            rho = np.outer(psi, psi.conj())
            for target in (0, 1):
                assert np.allclose(
                    apply_one_sided(pc, rho, target=target),
                    kraus_sum_oracle(np.diag(pc.chi_diag), rho, lift=target),
                    atol=1e-13,
                )

    def test_untouched_marginal_preserved(self):
        rng = np.random.default_rng(25)
        rho = random_density_matrix(rng, 4)
        out = apply_one_sided(random_pauli_channel(rng), rho, target=1)
        assert np.allclose(partial_trace(out, 0), partial_trace(rho, 0), atol=1e-12)

    def test_two_sided_equals_sequential(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            ch = random_pauli_channel(rng)
            rho = random_density_matrix(rng, 4)
            seq = apply_one_sided(ch, apply_one_sided(ch, rho, target=0), target=1)
            assert np.allclose(apply_two_sided(ch, rho), seq, atol=1e-12)

    def test_ptm_stack_matches_single_channels(self):
        rng = np.random.default_rng(29)
        channels = [random_unital_channel(rng) for _ in range(5)]
        stack = np.stack([pauli_transfer_matrix(ch) for ch in channels])
        states = np.stack([random_density_matrix(rng, 4) for _ in channels])
        for targets in ((0,), (1,), (0, 1)):
            by_channel = apply_ptm(stack, states[0], targets)
            by_pair = apply_ptm(stack, states, targets)
            for i, ch in enumerate(channels):
                for rho, out in ((states[0], by_channel[i]), (states[i], by_pair[i])):
                    if targets == (0, 1):
                        single = apply_two_sided(ch, rho)
                    else:
                        single = apply_one_sided(ch, rho, target=targets[0])
                    assert np.max(np.abs(out - single)) < 1e-14

    def test_two_field_breaking_point(self):
        out = apply_two_sided(channel_for("two-field", 1.0 / 3.0), bell_state("phi+"))
        assert concurrence(out).c == pytest.approx(0.0, abs=1e-12)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            apply_one_sided(channel_for("two-field", 0.1), bell_state("phi+"), target=2)


class TestRadii:
    def test_identity_radii(self):
        assert np.allclose(pauli_radii(PauliChannel([1, 0, 0, 0]).chi_diag), (1, 1, 1))

    def test_two_field_radii(self):
        for p in (0.0, 0.25, 0.6, 1.0):
            r = pauli_radii(channel_for("two-field", p).chi_diag)
            assert np.allclose(r, (1 - p, 1 - p, 1 - 2 * p), atol=1e-14)

    def test_isotropic_radii(self):
        for p in (0.0, 0.3, 0.9):
            r = pauli_radii(channel_for("isotropic", p).chi_diag)
            assert np.allclose(r, np.full(3, 1 - 4 * p / 3), atol=1e-14)

    def test_dephasing_radii(self):
        r = pauli_radii(channel_for("dephasing", 0.5).chi_diag)
        assert np.allclose(r, (0, 0, 1), atol=1e-14)

    def test_chi_from_radii_trivials(self):
        assert np.allclose(chi_from_radii((1, 1, 1)), (1, 0, 0, 0))
        assert np.allclose(chi_from_radii((0, 0, 0)), (0.25, 0.25, 0.25, 0.25))

    def test_round_trip(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            r = random_cp_radii(rng)
            assert np.max(np.abs(pauli_radii(PauliChannel(chi_from_radii(r)).chi_diag) - r)) < 1e-14
            ch = random_pauli_channel(rng)
            assert np.max(np.abs(chi_from_radii(pauli_radii(ch.chi_diag)) - ch.chi_diag)) < 1e-14

    def test_rotated_channel_gives_its_pauli_twirl_radii(self):
        # the PTM diagonal holds the radii of the Pauli twirl
        # (1/4) sum_k sigma_k Phi(sigma_k rho sigma_k) sigma_k, which maps Bloch
        # axis i to R_i times itself, not those of the channel's own ellipsoid
        ch = random_unital_channel(np.random.default_rng(3))
        r = np.diag(pauli_transfer_matrix(ch))[1:]
        for i, axis in enumerate(np.eye(3)):
            rho = density_from_bloch(axis)
            twirled = sum(s @ kraus_apply(ch, s @ rho @ s) @ s for s in PAULIS) / 4
            assert np.allclose(bloch_vector(twirled), r[i] * axis, atol=1e-12)
        assert np.allclose(r, (-0.0882, 0.1184, -0.0420), atol=1e-4)
        assert np.allclose(channel_radii(ch), (0.7834, 0.4032, 0.3720), atol=1e-4)
        exact = concurrence(apply_one_sided(ch, bell_state("phi+"))).c
        assert exact == pytest.approx(0.2793, abs=1e-4)
        assert predict_one_sided(r) == 0.0
        assert predict_one_sided(channel_radii(ch)) == pytest.approx(exact, abs=1e-12)

    def test_non_cp_radii_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="chi_"):
            PauliChannel(chi_from_radii((1.0, 1.0, -1.0)))


class TestCompletePositivity:
    def test_identity_is_cp(self):
        assert is_completely_positive((1, 1, 1))

    def test_inverted_corner_is_not(self):
        # |R1 + R2| = 2 > |1 + R3| = 0
        assert not is_completely_positive((1, 1, -1))

    def test_agrees_with_chi_oracle(self):
        rng = np.random.default_rng(28)
        samples = rng.uniform(-1, 1, size=(2000, 3))
        for r in samples:
            assert is_completely_positive(r) == (chi_from_radii(r).min() >= -1e-12)


class TestFamilies:
    def test_two_field_values(self):
        assert np.allclose(channel_for("two-field", 0.0).chi_diag, (1, 0, 0, 0))
        assert np.allclose(pauli_radii(channel_for("two-field", 0.5).chi_diag), (0.5, 0.5, 0.0))
        assert np.allclose(channel_for("two-field", 1.0).chi_diag, (0, 0.5, 0.5, 0))

    def test_isotropic_values(self):
        assert np.allclose(channel_for("isotropic", 0.0).chi_diag, (1, 0, 0, 0))
        p_star = (3 - np.sqrt(3)) / 4
        r = pauli_radii(channel_for("isotropic", p_star).chi_diag)
        assert np.allclose(r, np.full(3, np.sqrt(1 / 3)), atol=1e-14)
        r = pauli_radii(channel_for("isotropic", 0.75).chi_diag)
        assert np.allclose(r, (0, 0, 0), atol=1e-14)

    def test_dephasing_values(self):
        assert np.allclose(channel_for("dephasing", 0.0).chi_diag, (1, 0, 0, 0))
        r = pauli_radii(channel_for("dephasing", 0.5).chi_diag)
        assert np.allclose(r, (0, 0, 1), atol=1e-14)

    def test_out_of_range_rejected(self):
        for family in PAULI_FAMILIES:
            with pytest.raises(ValueError):
                channel_for(family, -0.1)
            with pytest.raises(ValueError):
                channel_for(family, 1.1)

    def test_channel_for_unknown_family(self):
        with pytest.raises(ValueError):
            channel_for("amplitude-damping", 0.1)

    def test_family_arrays_match_named_channels(self):
        p = np.array([0.0, 0.2, 0.55, 1.0])
        for family in ("two-field", "isotropic", "dephasing"):
            weights = family_weights(family, p)
            assert weights.shape == (4, 4)
            for row, w, r in zip(p, pauli_ptm(weights), pauli_radii(weights)):
                channel = channel_for(family, row)
                assert np.array_equal(w, pauli_transfer_matrix(channel))
                assert np.array_equal(r, np.diag(pauli_transfer_matrix(channel))[1:])
        with pytest.raises(ValueError, match="family: expected"):
            family_weights("amplitude-damping", p)


class TestCompose:
    def test_identity_neutral(self):
        x_flip = PauliChannel([0, 1, 0, 0])
        out = compose(PauliChannel([1, 0, 0, 0]), x_flip)
        assert np.allclose(out.chi_diag, x_flip.chi_diag)

    def test_dephasing_radii_multiply(self):
        p, q = 0.2, 0.35
        out = compose(channel_for("dephasing", p), channel_for("dephasing", q))
        expected = ((1 - 2 * p) * (1 - 2 * q),) * 2 + (1.0,)
        assert np.allclose(pauli_radii(out.chi_diag), expected, atol=1e-14)

    def test_application_oracle(self):
        rng = np.random.default_rng(29)
        a, b = random_pauli_channel(rng), random_pauli_channel(rng)
        composed = compose(a, b)
        for _ in range(100):
            rho = random_density_matrix(rng, 2)
            assert np.allclose(kraus_apply(composed, rho), kraus_apply(b, kraus_apply(a, rho)),
                               atol=1e-12)

    def test_associativity_at_application_level(self):
        rng = np.random.default_rng(30)
        a, b, c = (random_pauli_channel(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            assert np.allclose(kraus_apply(left, rho), kraus_apply(right, rho), atol=1e-12)

    def test_rotated_channels_compose_through_bloch_maps(self):
        rng = np.random.default_rng(31)
        a = random_unital_channel(rng)
        b = random_unital_channel(rng)
        composed = compose(a, b)
        for _ in range(20):
            rho = random_density_matrix(rng, 2)
            assert np.allclose(kraus_apply(composed, rho), kraus_apply(b, kraus_apply(a, rho)),
                               atol=1e-10)


class TestBlochAffineMap:
    def test_identity(self):
        assert np.allclose(bloch_affine_map(PauliChannel([1, 0, 0, 0])), np.eye(3))

    def test_two_field_diagonal(self):
        p = 0.3
        m = bloch_affine_map(channel_for("two-field", p))
        assert np.allclose(m, np.diag([1 - p, 1 - p, 1 - 2 * p]), atol=1e-14)

    def test_reproduces_apply_on_cardinal_states(self):
        rng = np.random.default_rng(32)
        ch = random_unital_channel(rng)
        m = bloch_affine_map(ch)
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            direct = bloch_vector(kraus_apply(ch, density_from_bloch(axis)))
            assert np.allclose(m @ axis, direct, atol=1e-10)

class TestDecomposeUnital:
    def test_already_diagonal(self):
        ch = decompose_unital(np.diag([0.5, 0.5, 0.2]))
        assert np.allclose(np.sort(np.abs(ch.radii))[::-1], (0.5, 0.5, 0.2))
        assert np.allclose(bloch_affine_map(ch), np.diag([0.5, 0.5, 0.2]), atol=1e-12)

    def test_rotated_diagonal_recovered(self):
        theta = np.pi / 2
        rot_z = np.array(
            [[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]]
        )
        m = rot_z @ np.diag([0.6, 0.4, 0.1])
        ch = decompose_unital(m)
        assert np.allclose(bloch_affine_map(ch), m, atol=1e-10)

    def test_random_cp_maps_recompose(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            r = random_cp_radii(rng)
            m = (
                rotation_from_su2(random_unitary(rng))
                @ np.diag(r)
                @ rotation_from_su2(random_unitary(rng))
            )
            ch = decompose_unital(m)
            assert np.max(np.abs(bloch_affine_map(ch) - m)) < 1e-10

    def test_canonical_form(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            ch = decompose_unital(bloch_affine_map(random_unital_channel(rng)))
            mags = np.abs(ch.radii)
            assert mags[0] >= mags[1] >= mags[2] - 1e-12
            assert np.sum(ch.radii < 0) <= 1

    def test_non_cp_map_reports_inequality(self):
        with pytest.raises(ValueError, match=r"\|R"):
            decompose_unital(np.diag([1.0, 1.0, -1.0]))


class TestRotationConversions:
    def test_round_trip(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            u = random_unitary(rng)
            o = rotation_from_su2(u)
            assert np.allclose(o @ o.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(o) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rotation_from_su2(su2_from_rotation(o)) - o)) < 1e-12

    def test_identity_and_half_turns(self):
        assert np.allclose(rotation_from_su2(su2_from_rotation(np.eye(3))), np.eye(3), atol=1e-12)
        for axis in range(3):
            o = -np.eye(3)
            o[axis, axis] = 1.0  # pi rotation about this axis
            assert np.max(np.abs(rotation_from_su2(su2_from_rotation(o)) - o)) < 1e-12

    def test_improper_rotation_rejected(self):
        with pytest.raises(ValueError):
            su2_from_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_stacked_rotations_match_the_single_matrix_einsum(self):
        rng = np.random.default_rng(38)
        us = np.stack([random_unitary(rng) for _ in range(400)])
        reference = np.stack([np.einsum("kabcd,bc,ad->k", _SU2_TO_SO3, u, u.conj()).real.reshape(3, 3)
                              for u in us])
        assert rotation_from_su2(us).tobytes() == reference.tobytes()
        assert rotation_from_su2(us.reshape(20, 20, 2, 2)).tobytes() == reference.tobytes()
        for u, o in zip(us, reference):
            assert rotation_from_su2(u).tobytes() == o.tobytes()


class TestUnitalChannel:
    def test_ptm_bits_match_the_per_matrix_build(self):
        # 1 (+) O_u diag(R) O_v with each rotation's image taken on its own
        rng = np.random.default_rng(39)
        channels = [random_unital_channel(rng) for _ in range(200)]
        channels += [decompose_unital(bloch_affine_map(ch)) for ch in channels[:20]]
        for ch in channels:
            reference = np.eye(4)
            reference[1:, 1:] = (rotation_from_su2(ch.post_rotation) * ch.radii
                                 @ rotation_from_su2(ch.pre_rotation))
            assert pauli_transfer_matrix(ch).tobytes() == reference.tobytes()

    def test_one_rotation_call_per_channel(self, monkeypatch):
        calls = []
        rotation = entdyn.channels.rotation_from_su2

        def counted(u):
            calls.append(np.shape(u))
            return rotation(u)

        monkeypatch.setattr(entdyn.channels, "rotation_from_su2", counted)
        rng = np.random.default_rng(40)
        for _ in range(5):
            random_unital_channel(rng)
        assert calls == [(2, 2, 2)] * 5

    def test_cp_rule_runs_once_per_channel(self, monkeypatch):
        # the inequalities are evaluated once per channel built, by
        # UnitalChannel: decompose_unital runs no check of its own, and a
        # failing check is worded by the same pass that found it
        calls = []

        def counted(rule):
            return lambda *args, **kwargs: calls.append(rule.__name__) or rule(*args, **kwargs)

        for rule in (entdyn.channels.is_completely_positive, entdyn.channels.cp_violations):
            monkeypatch.setattr(entdyn.channels, rule.__name__, counted(rule))
        decompose_unital(np.diag([0.5, 0.5, 0.2]))
        assert len(calls) == 1
        message = r"^radii: not completely positive: \|R1 \+ R2\| = 2 > \|1 \+ R3\| = 0; "
        with pytest.raises(ValueError, match=message):
            UnitalChannel(np.eye(2), np.eye(2), (1, 1, -1))
        assert len(calls) == 2
        with pytest.raises(ValueError, match=message):
            decompose_unital(np.diag([1.0, 1.0, -1.0]))
        assert len(calls) == 3

    def test_rotation_errors_name_the_rotation(self):
        bad = np.array([[1.0, 0.0], [0.0, 1.1]])
        with pytest.raises(ValueError, match="^pre_rotation: matrix is not unitary$"):
            UnitalChannel(bad, np.eye(2), (1, 1, 1))
        with pytest.raises(ValueError, match="^post_rotation: matrix is not unitary$"):
            UnitalChannel(np.eye(2), bad, (1, 1, 1))
        with pytest.raises(ValueError, match=r"^post_rotation: expected shape \(2, 2\), got \(3, 3\)$"):
            UnitalChannel(np.eye(2), np.eye(3), (1, 1, 1))


class TestValidationAndSerialization:
    def test_pauli_channel_invariants(self):
        # values are quoted as Python numbers, not numpy scalar reprs
        with pytest.raises(ValueError, match=r"^chi_diag: must be non-negative, got chi_1 = -0\.1$"):
            PauliChannel([1.1, -0.1, 0, 0])
        with pytest.raises(ValueError, match=r"^chi_diag: must sum to 1, got 0\.5$"):
            PauliChannel([0.25, 0.125, 0.0625, 0.0625])

    def test_unital_channel_invariants(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitalChannel(np.eye(2) * 2, np.eye(2), (1, 1, 1))
        with pytest.raises(ValueError, match="completely positive"):
            UnitalChannel(np.eye(2), np.eye(2), (1, 1, -1))

    def test_non_finite_parameters_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="chi_diag: entries must be finite"):
            PauliChannel([nan, 0, 0, 0])
        with pytest.raises(ValueError, match="radii: entries must be finite"):
            UnitalChannel(np.eye(2), np.eye(2), (nan, 0, 0))
        with pytest.raises(ValueError, match="radii: entries must be finite"):
            PauliChannel(chi_from_radii((nan, 0, 0)))
        with pytest.raises(ValueError, match="pre_rotation: entries must be finite"):
            UnitalChannel(np.full((2, 2), nan), np.eye(2), (1, 1, 1))
        assert not is_completely_positive((nan, 0, 0))

    def test_named_family_round_trip(self):
        obj = channel_to_json(channel_for("isotropic", 0.3))
        assert obj == {"family": "isotropic", "p": 0.3}
        back = channel_from_json(obj)
        assert np.allclose(back.chi_diag, channel_for("isotropic", 0.3).chi_diag)

    def test_pauli_round_trip(self):
        rng = np.random.default_rng(36)
        pc = random_pauli_channel(rng)
        back = channel_from_json(channel_to_json(pc))
        assert np.allclose(back.chi_diag, pc.chi_diag, atol=1e-15)

    def test_unital_round_trip(self):
        rng = np.random.default_rng(37)
        ch = random_unital_channel(rng)
        back = channel_from_json(channel_to_json(ch))
        assert np.allclose(bloch_affine_map(back), bloch_affine_map(ch), atol=1e-12)

    def test_exactly_one_parameterization(self):
        with pytest.raises(ValueError, match="exactly"):
            channel_from_json({"family": "isotropic", "p": 0.2, "chi": [1, 0, 0, 0]})
        with pytest.raises(ValueError, match="exactly"):
            channel_from_json({"family": "pauli", "p": 0.2})
        with pytest.raises(ValueError, match="family: expected"):
            channel_from_json({"family": "squeezing", "p": 0.2})

    def test_kraus_operators_complete(self):
        rng = np.random.default_rng(38)
        for ch in (random_pauli_channel(rng), random_unital_channel(rng)):
            total = sum(k.conj().T @ k for k in kraus_operators(ch))
            assert np.allclose(total, np.eye(2), atol=1e-12)


class TestOneChannelForm:
    """A channel is a PauliChannel or a UnitalChannel; no raw array or
    weight list stands in for one."""

    @pytest.mark.parametrize("call, raw, type_name", [
        pytest.param(pauli_transfer_matrix, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), "ndarray",
                     id="chi-matrix"),
        pytest.param(pauli_transfer_matrix, [0.7, 0.1, 0.1, 0.1], "list", id="weight-list"),
        pytest.param(pauli_transfer_matrix, np.eye(4), "ndarray", id="ptm"),
        pytest.param(pauli_transfer_matrix, (1.0, 1.0, 1.0), "tuple", id="radii"),
        pytest.param(pauli_transfer_matrix, {"family": "isotropic", "p": 0.1}, "dict", id="json-object"),
        pytest.param(pauli_transfer_matrix, None, "NoneType", id="none"),
        pytest.param(channel_to_json, [0.7, 0.1, 0.1, 0.1], "list", id="channel_to_json"),
    ])
    def test_raw_forms_rejected(self, call, raw, type_name):
        message = f"channel: expected a PauliChannel or UnitalChannel, got {type_name}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(raw)

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda family=family: channel_for(family, 0.3), id=family)
          for family in PAULI_FAMILIES],
        pytest.param(lambda: random_unital_channel(np.random.default_rng(39)), id="unital"),
    ])
    def test_ptm_is_trace_preserving_and_unital(self, make):
        r = pauli_transfer_matrix(make())
        assert r.dtype == float and r.shape == (4, 4)
        assert r[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert not r[0, 1:].any() and not r[1:, 0].any()
        assert not r.flags.writeable

    @pytest.mark.parametrize("family, rank", [("two-field", 3), ("isotropic", 4), ("dephasing", 2)])
    def test_kraus_rank_is_the_number_of_nonzero_weights(self, family, rank):
        ch = channel_for(family, 0.3)
        assert np.count_nonzero(ch.chi_diag) == rank
        assert len(kraus_operators(ch)) == rank
