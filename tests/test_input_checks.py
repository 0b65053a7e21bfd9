"""Every argument is checked by the shared checks of entdyn.states (and the
count bound of entdyn.tomography): a bad one fails at the boundary with a
ConfigError, a ValueError that starts with its name, ``<argument>: <rule>``."""

import re

import numpy as np
import pytest

import entdyn.states
from entdyn.channels import (
    PauliChannel,
    UnitalChannel,
    apply_one_sided,
    apply_two_sided,
    channel_for,
    channel_from_json,
    chi_from_radii,
    decompose_unital,
    family_weights,
    su2_from_rotation,
)
from entdyn.cli import build_parser
from entdyn.dynamics import InitialStateSpec, breaking_point, concurrence
from entdyn.harness import (
    ConfigError,
    SweepRow,
    read_rows,
    render,
    render_mesh,
    sweep_config_from_dict,
)
from entdyn.states import bell_state, matrix_to_json
from entdyn.tomography import (
    CountRecord,
    MeasurementSetting,
    ReconstructionResult,
    ellipsoid_mesh,
    monte_carlo_errors,
    probe_outputs,
    process_tomography_single_qubit,
    reconstruct_state_mle,
    simulate_counts,
    simulate_probe_outputs,
    standard_settings,
)

_BELLS = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"
_RECORDS = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=0)
_CHANNEL = channel_for("isotropic", 0.2)
_PROBES = simulate_probe_outputs(_CHANNEL)


def _base(rho_hat):
    return ReconstructionResult(rho_hat=rho_hat, log_likelihood=0.0, iterations=1,
                                converged=True, rounds=0)


# (argument name, call taking the argument, a valid value, a wrong shape)
VALIDATORS = {
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
    "monte_carlo_errors.base": (
        "base.rho_hat", lambda m: monte_carlo_errors(_RECORDS, 2, 0, _base(m)),
        np.eye(4) / 4, (3, 3)),
    "simulate_counts": (
        "rho", lambda m: simulate_counts(m, standard_settings(), 100, seed=0), np.eye(4) / 4, (2, 2)),
    # a probe input is a ket; a density matrix is refused by name
    "process_tomography_single_qubit": (
        "probe_in", lambda k: process_tomography_single_qubit([(k, _PROBES[0][1]), *_PROBES[1:]]),
        [1.0, 0.0], (2, 2)),
    "process_tomography_single_qubit.probe_out": (
        "probe_out", lambda m: process_tomography_single_qubit([(_PROBES[0][0], m), *_PROBES[1:]]),
        _PROBES[0][1].real, (3, 3)),
}

# (argument name, call taking the argument, a wrong shape)
OPERATIONS = {
    "apply_one_sided": ("rho", lambda m: apply_one_sided(_CHANNEL, m), (2, 2)),
    "apply_two_sided": ("rho", lambda m: apply_two_sided(_CHANNEL, m), (2, 2)),
    "concurrence": ("rho", concurrence, (2, 2)),
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
    pytest.param("base.rho_hat", VALIDATORS["monte_carlo_errors.base"][1],
                 np.triu(np.ones((4, 4))) / 4, "matrix is not Hermitian",
                 id="monte_carlo_errors.base-hermitian"),
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
    with pytest.raises(ValueError, match=r"^matrix: expected a square matrix, got \(2, 3\)$"):
        matrix_to_json(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^rho: expected shape \(4, 4\), got \(2, 2\)$"):
        simulate_counts(np.eye(2) / 2, standard_settings(), 100, seed=0)
    with pytest.raises(ValueError, match=r"^rho: entries must be finite$"):
        simulate_counts(np.full((4, 4), np.nan), standard_settings(), 100, seed=0)


def test_vector_shape_takes_any_array_of_that_many_entries():
    assert PauliChannel([[1.0, 0.0], [0.0, 0.0]]).chi_diag.shape == (4,)
    assert chi_from_radii([[1.0, 1.0, 1.0]]).shape == (4,)


# ---------------------------------------------------------------------------
# Scalar rules: one check and one wording each, whatever the call site.


def _flag(*argv):
    """The verb of a command line run as the CLI runs it, minus the error
    printing of ``main``, so that its exception can be inspected."""
    args = build_parser().parse_args(argv)
    return lambda: args.func(args)


_HH = MeasurementSetting("H", "H")
_RHO = np.eye(4) / 4
_MESH = ("ellipsoid", "--family", "isotropic", "--p", "0.2")

# (call, expected message), keyed by the call site: a library function or
# constructor (which words its rule as the CLI and config reader do), a
# config field (``config.``) or a flag (``flag.``)
SCALAR_CASES = {
    # p in [0, 1]
    "channel_for.p": (lambda: channel_for("isotropic", 1.5), "p: value 1.5 outside [0, 1]"),
    "channel_from_json.p": (lambda: channel_from_json({"family": "dephasing", "p": -0.5}),
                            "p: value -0.5 outside [0, 1]"),
    "config.p_grid": (lambda: sweep_config_from_dict({"p_grid": [0.0, 1.5]}),
                      "p_grid[1]: value 1.5 outside [0, 1]"),
    "config.dephasing": (lambda: sweep_config_from_dict({"initial": "mixed:0.1:2"}),
                         "initial.dephasing: value 2.0 outside [0, 1]"),
    "flag.ellipsoid_p": (_flag("ellipsoid", "--p", "1.5"), "p: value 1.5 outside [0, 1]"),
    "flag.tomo_sim_p": (_flag("tomo-sim", "--p", "-0.1"), "p: value -0.1 outside [0, 1]"),
    # the 1 to 1e18 count (and a record's 0 to 2e18)
    "simulate_counts.low": (lambda: simulate_counts(_RHO, [_HH], 0, seed=0),
                            "n_per_setting: must be >= 1, got 0"),
    "simulate_counts.high": (lambda: simulate_counts(_RHO, [_HH], 10**19, seed=0),
                             f"n_per_setting: must be <= 1e18, got {10**19}"),
    "probe_outputs": (lambda: probe_outputs(np.eye(4)[None], n_per_projector=0, seeds=[0]),
                      "n_per_projector: must be >= 1, got 0"),
    "simulate_probe_outputs": (
        lambda: simulate_probe_outputs(_CHANNEL, n_per_projector=-1, seed=0),
        "n_per_projector: must be >= 1, got -1"),
    "CountRecord.count.low": (lambda: CountRecord(_HH, -1, 1.0), "count: must be >= 0, got -1"),
    "CountRecord.count.high": (lambda: CountRecord(_HH, 2 * 10**18 + 1, 1.0),
                               f"count: must be <= 2e18, got {2 * 10**18 + 1}"),
    "config.n_per_setting": (lambda: sweep_config_from_dict({"pipeline": {"n_per_setting": 0}}),
                             "pipeline.n_per_setting: must be >= 1, got 0"),
    "flag.characterize_counts": (_flag("characterize", "--family", "isotropic", "--counts", "0"),
                                 "counts: must be >= 1, got 0"),
    "flag.tomo_sim_counts": (_flag("tomo-sim", "--counts", str(10**19)),
                             f"pipeline.n_per_setting: must be <= 1e18, got {10**19}"),
    # must be >= k
    "monte_carlo_errors.trials": (lambda: monte_carlo_errors(_RECORDS, 1, 0, _base(_RHO)),
                                  "trials: must be >= 2, got 1"),
    "ellipsoid_mesh.n_theta": (lambda: ellipsoid_mesh(_CHANNEL, n_theta=1),
                               "n_theta: must be >= 2, got 1"),
    "ellipsoid_mesh.n_phi": (lambda: ellipsoid_mesh(_CHANNEL, n_phi=0),
                             "n_phi: must be >= 1, got 0"),
    "config.trials": (lambda: sweep_config_from_dict({"pipeline": {"trials": 1}}),
                      "pipeline.trials: must be >= 2, got 1"),
    "config.seed": (lambda: sweep_config_from_dict({"pipeline": {"seed": -1}}),
                    "pipeline.seed: must be >= 0, got -1"),
    "flag.n_theta": (_flag(*_MESH, "--n-theta", "1"), "n_theta: must be >= 2, got 1"),
    "flag.n_phi": (_flag(*_MESH, "--n-phi", "0"), "n_phi: must be >= 1, got 0"),
    "flag.trials": (_flag("tomo-sim", "--trials", "0"), "pipeline.trials: must be >= 2, got 0"),
    "flag.characterize_seed": (_flag("characterize", "--family", "isotropic", "--seed", "-1"),
                               "seed: must be >= 0, got -1"),
    # positive and finite
    "CountRecord.exposure": (lambda: CountRecord(_HH, 5, float("nan")),
                             "exposure: must be positive and finite, got nan"),
    "config.p_scale": (lambda: sweep_config_from_dict({"p_scale": "inf"}),
                       "p_scale: must be positive and finite, got inf"),
    "flag.p_scale": (_flag("sweep", "--p-scale", "-1"), "p_scale: must be positive and finite, got -1.0"),
    # finite
    "config.initial_delta": (
        lambda: sweep_config_from_dict({"initial": {"kind": "pure_pes", "delta": "nan"}}),
        "initial.delta: must be finite, got nan"),
    "config.p_grid_start": (
        lambda: sweep_config_from_dict({"p_grid": {"start": "inf", "stop": 1, "points": 3}}),
        "p_grid.start: must be finite, got inf"),
    # one of a vocabulary
    "family_weights.family": (lambda: family_weights("x", 0.5),
                              "family: expected 'two-field', 'isotropic' or 'dephasing', got 'x'"),
    "channel_for.family": (lambda: channel_for("x", 0.5),
                           "family: expected 'two-field', 'isotropic' or 'dephasing', got 'x'"),
    "channel_from_json.family": (lambda: channel_from_json({"family": "x", "p": 0.5}),
                                 "family: expected 'two-field', 'isotropic', 'dephasing', 'pauli' or "
                                 "'unital', got 'x'"),
    "config.family": (lambda: sweep_config_from_dict({"family": "x"}),
                      "family: expected 'two-field', 'isotropic' or 'dephasing', got 'x'"),
    "breaking_point.mode": (lambda: breaking_point("isotropic", "x"),
                            "mode: expected 'one_sided' or 'two_sided', got 'x'"),
    "config.mode": (lambda: sweep_config_from_dict({"mode": "x"}),
                    "mode: expected 'one_sided' or 'two_sided', got 'x'"),
    "reconstruct_state_mle.likelihood": (lambda: reconstruct_state_mle(_RECORDS, likelihood="x"),
                                         "likelihood: expected 'gaussian' or 'poisson', got 'x'"),
    "config.likelihood": (lambda: sweep_config_from_dict({"pipeline": {"likelihood": "x"}}),
                          "pipeline.likelihood: expected 'gaussian' or 'poisson', got 'x'"),
    "config.pipeline_kind": (lambda: sweep_config_from_dict({"pipeline": "x"}),
                             "pipeline.kind: expected 'analytic', 'exact_simulation' or 'shot_noise', "
                             "got 'x'"),
    "InitialStateSpec.kind": (lambda: InitialStateSpec(kind="x"),
                              "kind: expected 'bell', 'pure_pes' or 'mixed_pes', got 'x'"),
    "config.initial_kind": (lambda: sweep_config_from_dict({"initial": {"kind": "x"}}),
                            "initial.kind: expected 'bell', 'pure_pes' or 'mixed_pes', got 'x'"),
    "flag.initial_kind": (_flag("sweep", "--initial", "x:1"),
                          "initial.kind: expected 'bell', 'pure_pes' or 'mixed_pes', got 'x'"),
    "bell_state.name": (lambda: bell_state("nope"), f"bell: {_BELLS}, got 'nope'"),
    "config.initial_bell": (lambda: sweep_config_from_dict({"initial": {"kind": "bell", "bell": 5}}),
                            f"initial.bell: {_BELLS}, got 5"),
    "MeasurementSetting.proj_a": (lambda: MeasurementSetting("Q", "H"),
                                  "proj_a: expected 'H', 'V', 'D', 'A', 'R' or 'L', got 'Q'"),
    "MeasurementSetting.proj_b": (lambda: MeasurementSetting("H", "Q"),
                                  "proj_b: expected 'H', 'V', 'D', 'A', 'R' or 'L', got 'Q'"),
    "apply_one_sided.target": (lambda: apply_one_sided(_CHANNEL, _RHO, target=2),
                               "target: expected 0 or 1, got 2"),
    "config.noisy_qubit": (lambda: sweep_config_from_dict({"noisy_qubit": 2}),
                           "noisy_qubit: expected 0 or 1, got 2"),
    "render.format": (lambda: render([SweepRow(0.0, 1.0, None, 1.0)], "x"),
                      "format: expected 'csv' or 'json', got 'x'"),
    "render_mesh.format": (lambda: render_mesh(np.zeros((1, 3)), "x"),
                           "format: expected 'csv' or 'json', got 'x'"),
    "read_rows.format": (lambda: read_rows("rows.txt", "x"),
                         "format: expected 'csv' or 'json', got 'x'"),
    # the value rules of the validating constructors
    "PauliChannel.negative": (lambda: PauliChannel([1.1, -0.1, 0.0, 0.0]),
                              "chi_diag: must be non-negative, got chi_1 = -0.1"),
    "PauliChannel.sum": (lambda: PauliChannel([0.5, 0.0, 0.0, 0.0]),
                         "chi_diag: must sum to 1, got 0.5"),
    "UnitalChannel.pre_rotation": (lambda: UnitalChannel(2 * np.eye(2), np.eye(2), (1, 1, 1)),
                                   "pre_rotation: matrix is not unitary"),
    "UnitalChannel.post_rotation": (lambda: UnitalChannel(np.eye(2), 2 * np.eye(2), (1, 1, 1)),
                                    "post_rotation: matrix is not unitary"),
    "UnitalChannel.radii": (lambda: UnitalChannel(np.eye(2), np.eye(2), (1, 1, -1)),
                            "radii: not completely positive: "),
}


@pytest.mark.parametrize("call, message", [pytest.param(*case, id=key) for key, case in SCALAR_CASES.items()])
def test_bad_scalar_argument_is_named(call, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        call()


def test_config_error_is_the_shared_one():
    assert ConfigError is entdyn.states.ConfigError
    assert issubclass(ConfigError, ValueError)
