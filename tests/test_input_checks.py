"""Every array argument is checked by the shared checks of entdyn.states: a
bad one fails at the boundary with a ValueError that starts with its name."""

import re

import numpy as np
import pytest

from entdyn.channels import (
    PauliChannel,
    UnitalChannel,
    apply,
    apply_one_sided,
    apply_two_sided,
    chi_from_radii,
    decompose_unital,
    isotropic_channel,
    process_matrix,
    su2_from_rotation,
)
from entdyn.dynamics import concurrence
from entdyn.states import (
    bell_state,
    bloch_vector,
    density_from_bloch,
    density_matrix,
    hermitian_eigenvalues,
    ket,
    partial_trace,
    tensor_product,
)
from entdyn.tomography import (
    ReconstructionResult,
    monte_carlo_errors,
    reconstruct_state_mle,
    simulate_counts,
    standard_settings,
)

_RECORDS = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=0)
_CHANNEL = isotropic_channel(0.2)


def _base(rho_hat):
    return ReconstructionResult(rho_hat=rho_hat, log_likelihood=0.0, iterations=1,
                                converged=True, rounds=0)


# (argument name, call taking the argument, a valid value, a wrong shape)
VALIDATORS = {
    "ket": ("amplitudes", ket, [1.0, 0.0], (3,)),
    "density_matrix": ("matrix", density_matrix, np.eye(2) / 2, (3, 3)),
    "density_from_bloch": ("vec", density_from_bloch, [0.0, 0.0, 0.0], (2,)),
    "hermitian_eigenvalues": ("matrix", hermitian_eigenvalues, np.eye(2), (2, 3)),
    "process_matrix": ("chi", process_matrix, np.diag([1.0, 0, 0, 0]), (2, 2)),
    "PauliChannel": ("chi_diag", PauliChannel, [1.0, 0, 0, 0], (3,)),
    "UnitalChannel.pre_rotation": (
        "pre_rotation", lambda v: UnitalChannel(v, np.eye(2), (1, 1, 1)), np.eye(2), (3, 3)),
    "UnitalChannel.post_rotation": (
        "post_rotation", lambda u: UnitalChannel(np.eye(2), u, (1, 1, 1)), np.eye(2), (2, 1)),
    "UnitalChannel.radii": (
        "radii", lambda r: UnitalChannel(np.eye(2), np.eye(2), r), [1.0, 1.0, 1.0], (4,)),
    "chi_from_radii": ("radii", chi_from_radii, [1.0, 1.0, 1.0], (2,)),
    "decompose_unital": ("m", decompose_unital, np.eye(3), (2, 2)),
    "su2_from_rotation": ("o", su2_from_rotation, np.eye(3), (3, 2)),
    "reconstruct_state_mle.initial": (
        "initial", lambda m: reconstruct_state_mle(_RECORDS, initial=m), np.eye(4) / 4, (2, 2)),
    "monte_carlo_errors.base": (
        "base.rho_hat", lambda m: monte_carlo_errors(_RECORDS, 2, "purity", 0, base=_base(m)),
        np.eye(4) / 4, (3, 3)),
}

# (argument name, call taking the argument, a wrong shape)
OPERATIONS = {
    "apply": ("rho", lambda m: apply(_CHANNEL, m), (4, 4)),
    "apply_one_sided": ("rho", lambda m: apply_one_sided(_CHANNEL, m), (2, 2)),
    "apply_two_sided": ("rho", lambda m: apply_two_sided(_CHANNEL, m), (2, 2)),
    "concurrence": ("rho", concurrence, (2, 2)),
    "partial_trace": ("rho", lambda m: partial_trace(m, 0), (2, 2)),
    "bloch_vector": ("rho", bloch_vector, (4, 4)),
    "tensor_product.a": ("a", lambda m: tensor_product(m, np.eye(2)), (4, 4)),
    "tensor_product.b": ("b", lambda m: tensor_product(np.eye(2), m), (2,)),
}


def _with_first_entry(value, x):
    bad = np.array(value, dtype=float)
    bad.flat[0] = x
    return bad


CASES = [
    *[pytest.param(name, call, _with_first_entry(good, x), rule, id=f"{key}-{label}")
      for key, (name, call, good, _) in VALIDATORS.items()
      for label, x, rule in (("nan", np.nan, "entries must be finite"),
                             ("inf", np.inf, "entries must be finite"))],
    *[pytest.param(name, call, np.zeros(shape), "expected ", id=f"{key}-shape")
      for key, (name, call, _, shape) in VALIDATORS.items()],
    *[pytest.param(name, call, np.zeros(shape), "expected ", id=f"{key}-shape")
      for key, (name, call, shape) in OPERATIONS.items()],
]


@pytest.mark.parametrize("name, call, value, rule", CASES)
def test_bad_array_argument_is_named(name, call, value, rule):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: {rule}"):
        call(value)


def test_valid_values_pass():
    for name, call, good, _ in VALIDATORS.values():
        call(good)


def test_shape_message_names_argument_shape_and_expected_shapes():
    with pytest.raises(ValueError, match=r"^rho: expected shape \(4, 4\), got \(2, 2\)$"):
        apply_two_sided(_CHANNEL, np.eye(2) / 2)
    with pytest.raises(ValueError, match=r"^amplitudes: expected shape \(2,\) or \(4,\), got \(3,\)$"):
        ket([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^matrix: expected a square matrix, got \(2, 3\)$"):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_vector_shape_takes_any_array_of_that_many_entries():
    assert ket([[1.0], [0.0]]).shape == (2,)
    assert ket(np.eye(2) / np.sqrt(2)).shape == (4,)
    assert PauliChannel([[1.0, 0.0], [0.0, 0.0]]).chi_diag.shape == (4,)
    assert chi_from_radii([[1.0, 1.0, 1.0]]).shape == (4,)
