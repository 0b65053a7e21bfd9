"""Entanglement dynamics of qubit pairs under unital noise.

Simulation library covering the closed-form concurrence laws for one- and
two-sided Pauli noise, channel geometry in the Bloch-ellipsoid picture, and
a synthetic photon-counting tomography pipeline with maximum-likelihood
reconstruction and Monte Carlo error bars.
"""

from .states import (
    bell_state,
    dm,
    fidelity,
    matrix_from_json,
    matrix_to_json,
    purity,
)
from .channels import (
    PauliChannel,
    UnitalChannel,
    apply_one_sided,
    apply_two_sided,
    bloch_affine_map,
    channel_for,
    channel_from_json,
    channel_radii,
    channel_to_json,
    chi_from_radii,
    compose,
    decompose_unital,
    is_completely_positive,
    pauli_transfer_matrix,
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
