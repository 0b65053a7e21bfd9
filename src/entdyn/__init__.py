"""Entanglement dynamics of qubit pairs under unital noise.

Simulation library covering the closed-form concurrence laws for one- and
two-sided Pauli noise, channel geometry in the Bloch-ellipsoid picture, and
a synthetic photon-counting tomography pipeline with maximum-likelihood
reconstruction and Monte Carlo error bars.
"""

from .states import (
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
from .channels import (
    PauliChannel,
    UnitalChannel,
    apply,
    apply_one_sided,
    apply_two_sided,
    bloch_affine_map,
    channel_for,
    channel_from_json,
    channel_to_json,
    chi_from_radii,
    compose,
    decompose_unital,
    dephasing_channel,
    hwp_angle_to_p,
    is_completely_positive,
    isotropic_channel,
    kraus_operators,
    noise_probability,
    pauli_channel_from_radii,
    pauli_transfer_matrix,
    process_matrix,
    radii_from_chi,
    two_field_channel,
)
from .dynamics import (
    ConcurrenceResult,
    InitialStateSpec,
    breaking_point,
    concurrence,
    factorization_prediction,
    lambda_two_sided,
    make_initial,
    mixed_evolution_prediction,
    predict_one_sided,
    predict_two_sided,
    predict_two_sided_unital,
    predict_x_state,
)
from .tomography import (
    CountRecord,
    ErrorEstimate,
    MeasurementSetting,
    ReconstructionResult,
    ellipsoid_mesh,
    monte_carlo_errors,
    process_tomography_single_qubit,
    reconstruct_state_mle,
    simulate_counts,
    standard_settings,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
