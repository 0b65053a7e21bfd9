import numpy as np
import pytest

from entdyn.sampling import random_density_matrix, random_pure_ket
from entdyn.states import (
    BASIS_KETS,
    BELL_KETS,
    PAULIS,
    bell_key,
    bell_state,
    bloch_vector,
    density_from_bloch,
    density_matrix,
    dm,
    fidelity,
    hermitian_eigenvalues,
    ket,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    purity,
    tensor_product,
    trace_distance,
)


def kron_oracle(a, b):
    """Element-by-element Kronecker product definition."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(rho, keep):
    """Explicit index summation."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for s in range(2):
                if keep == 0:
                    out[i, j] += rho[2 * i + s, 2 * j + s]
                else:
                    out[i, j] += rho[2 * s + i, 2 * s + j]
    return out


class TestTensorProduct:
    def test_maximally_mixed(self):
        eye = np.eye(2) / 2
        assert np.allclose(tensor_product(eye, eye), np.eye(4) / 4)

    def test_basis_case(self):
        out = tensor_product(dm(BASIS_KETS["H"]), dm(BASIS_KETS["V"]))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |hv> in the |00>,|01>,|10>,|11> ordering
        assert np.allclose(out, expected)

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            assert np.allclose(tensor_product(a, b), kron_oracle(a, b), atol=1e-14)

    def test_trace_multiplies(self):
        rng = np.random.default_rng(8)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        assert np.trace(tensor_product(a, b)).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(np.eye(4), np.eye(2))


class TestBlochVector:
    def test_maximally_mixed_at_origin(self):
        assert np.allclose(bloch_vector(np.eye(2) / 2), (0, 0, 0), atol=1e-15)

    def test_h_at_north_pole(self):
        assert np.allclose(bloch_vector(dm(BASIS_KETS["H"])), (0, 0, 1), atol=1e-15)

    def test_d_on_x_axis(self):
        assert np.allclose(bloch_vector(dm(BASIS_KETS["D"])), (1, 0, 0), atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rho = random_density_matrix(rng, 2)
            back = density_from_bloch(bloch_vector(rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_norm_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            v = bloch_vector(random_density_matrix(rng, 2))
            assert np.linalg.norm(v) <= 1.0 + 1e-10

    def test_overlong_vector_rejected(self):
        with pytest.raises(ValueError):
            density_from_bloch((1.0, 1.0, 1.0))


class TestPartialTrace:
    def test_bell_marginals_maximally_mixed(self):
        rho = bell_state("phi+")
        for keep in (0, 1):
            assert np.allclose(partial_trace(rho, keep), np.eye(2) / 2, atol=1e-14)

    def test_product_state(self):
        rho = tensor_product(dm(BASIS_KETS["H"]), dm(BASIS_KETS["V"]))
        assert np.allclose(partial_trace(rho, 0), dm(BASIS_KETS["H"]), atol=1e-14)
        assert np.allclose(partial_trace(rho, 1), dm(BASIS_KETS["V"]), atol=1e-14)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            for keep in (0, 1):
                assert np.allclose(
                    partial_trace(rho, keep), partial_trace_oracle(rho, keep), atol=1e-14
                )

    def test_recovers_tensor_factors(self):
        rng = np.random.default_rng(12)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 2)
        rho = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(rho, 0) - a)) < 1e-12
        assert np.max(np.abs(partial_trace(rho, 1) - b)) < 1e-12

    def test_bad_index(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4) / 4, 2)


class TestHermitianEigenvalues:
    def test_maximally_mixed(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4)

    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3])

    def test_residuals_and_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = g + g.conj().T
            vals = hermitian_eigenvalues(m)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.sum(vals) == pytest.approx(np.trace(m).real, abs=1e-10)
            # residual check against eigenvectors from an independent call
            w, v = np.linalg.eigh(m)
            for lam, vec in zip(w, v.T):
                assert np.linalg.norm(m @ vec - lam * vec) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestValidation:
    def test_density_matrix_accepts_valid(self):
        rng = np.random.default_rng(14)
        rho = density_matrix(random_density_matrix(rng, 4))
        assert rho.shape == (4, 4)

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            density_matrix(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            density_matrix(np.eye(2, dtype=complex))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="positive"):
            density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_eigenvalue_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            vals = hermitian_eigenvalues(random_density_matrix(rng, 4))
            assert np.sum(vals) == pytest.approx(1.0, abs=1e-10)
            assert vals[-1] >= -1e-10

    def test_ket_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            ket([1.0, 1.0])
        assert ket([1.0, 0.0]).shape == (2,)

    def test_constructors_freeze_arrays(self):
        rho = density_matrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho[0, 0] = 0.3


class TestMetrics:
    def test_fidelity_pure_overlap(self):
        rng = np.random.default_rng(16)
        psi = random_pure_ket(rng, 4)
        rho = random_density_matrix(rng, 4)
        overlap = float((psi.conj() @ rho @ psi).real)
        assert fidelity(rho, np.outer(psi, psi.conj())) == pytest.approx(overlap, abs=1e-10)

    def test_fidelity_self_is_one(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(rng, 4)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_trace_distance_bounds(self):
        rng = np.random.default_rng(18)
        a = random_density_matrix(rng, 4)
        b = random_density_matrix(rng, 4)
        t = trace_distance(a, b)
        assert 0.0 <= t <= 1.0
        assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_purity_range(self):
        assert purity(np.eye(4) / 4) == pytest.approx(0.25)
        assert purity(bell_state("psi+")) == pytest.approx(1.0)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        for dim in (2, 4):
            m = random_density_matrix(rng, dim)
            obj = matrix_to_json(m)
            assert obj["dim"] == dim
            assert np.allclose(matrix_from_json(obj), m, atol=1e-15)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "re": [1, 0, 0], "im": [0, 0, 0, 0]})
        with pytest.raises(ValueError):
            matrix_from_json({"re": [1.0]})


def test_bell_states_are_orthonormal():
    kets = list(BELL_KETS.values())
    for i, a in enumerate(kets):
        for j, b in enumerate(kets):
            assert np.vdot(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("name, key", [("phi+", "phi_plus"), (" PSI- ", "psi_minus"),
                                       ("PHI_MINUS", "phi_minus"), ("psi_plus", "psi_plus")])
def test_bell_key_normalises_names(name, key):
    assert bell_key(name) == key
    assert np.array_equal(bell_state(name), dm(BELL_KETS[key]))


@pytest.mark.parametrize("name", ["nope", "", "phi", 5, None, ["phi+"]])
def test_bell_key_rejects_other_names(name):
    bells = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"
    with pytest.raises(ValueError, match=rf"^bell: {bells}, got "):
        bell_key(name)
    with pytest.raises(ValueError, match=f"bell: {bells}, got "):
        bell_state(name)


def test_pauli_algebra():
    for i in range(4):
        assert np.allclose(PAULIS[i] @ PAULIS[i], np.eye(2))
    assert np.allclose(PAULIS[1] @ PAULIS[2], 1j * PAULIS[3])
