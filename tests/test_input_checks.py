"""Every argument is checked by the shared checks of entdyn.states (and the
count bound of entdyn.tomography): a bad one fails at the boundary with a
ConfigError, a ValueError that starts with its name, ``<argument>: <rule>``."""

import json
import re

import numpy as np
import pytest

import entdyn.states
import entdyn.tomography
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
from entdyn.cli import build_parser, main
from entdyn.dynamics import (
    InitialStateSpec,
    breaking_point,
    concurrence,
    factorization_prediction,
    make_initial,
    mixed_evolution_prediction,
    predict_x_state,
)
from entdyn.harness import (
    ConfigError,
    Pipeline,
    SweepConfig,
    SweepRow,
    read_rows,
    render,
    initial_spec_from,
    render_mesh,
    run_channel_characterization,
    run_pes_sweep,
    sweep_config_from_dict,
)
from entdyn.sampling import random_pure_ket
from entdyn.states import bell_state, matrix_to_json
from entdyn.tomography import (
    CountRecord,
    MeasurementSetting,
    ReconstructionResult,
    ellipsoid_mesh,
    linear_inversion_state,
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
    # the pure state a PES law scales by its concurrence
    "factorization_prediction": (
        "initial state", lambda m: factorization_prediction(m, _CHANNEL), np.diag([1.0, 0, 0, 0]), (2, 2)),
    "mixed_evolution_prediction": (
        "sigma", lambda m: mixed_evolution_prediction(m, _CHANNEL, _CHANNEL), np.diag([1.0, 0, 0, 0]),
        (2, 2)),
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
    *[pytest.param(VALIDATORS[key][0], VALIDATORS[key][1], value, rule, id=f"{key}-{label}")
      for key in ("factorization_prediction", "mixed_evolution_prediction")
      for label, value, rule in (
          ("hermitian", np.outer([1.0, 0, 0, 0], [1.0, 1, 0, 0]), "matrix is not Hermitian"),
          ("trace", np.diag([2.0, 0, 0, 0]), r"trace must be 1, got 2\.0$"))],
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
    # p read by the config reader's float rule before its range
    "channel_for.p_none": (lambda: channel_for("isotropic", None), "p: expected float, got None"),
    "channel_for.p_text": (lambda: channel_for("isotropic", "abc"), "p: expected float, got 'abc'"),
    "channel_for.p_list": (lambda: channel_for("isotropic", [0.1, 0.2]),
                           "p: expected float, got [0.1, 0.2]"),
    "channel_for.p_bool": (lambda: channel_for("isotropic", True), "p: expected float, got True"),
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
    # a count is read by the config reader's int rule before its range
    "probe_outputs.fraction": (lambda: probe_outputs(np.eye(4)[None], n_per_projector=10.5, seeds=[0]),
                               "n_per_projector: expected int, got 10.5"),
    "run_channel_characterization.n_per_probe": (
        lambda: run_channel_characterization("isotropic", [0.1], n_per_probe=10.5),
        "n_per_projector: expected int, got 10.5"),
    "simulate_counts.fraction": (lambda: simulate_counts(_RHO, [_HH], 10.5, seed=0),
                                 "n_per_setting: expected int, got 10.5"),
    "simulate_counts.bool": (lambda: simulate_counts(_RHO, [_HH], True, seed=0),
                             "n_per_setting: expected int, got True"),
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
    # trials read by the config reader's int rule; a seed is an int >= 0 or a
    # sequence of them, entry i named seed[i]
    "monte_carlo_errors.trials_fraction": (lambda: monte_carlo_errors(_RECORDS, 2.5, 0, _base(_RHO)),
                                           "trials: expected int, got 2.5"),
    "monte_carlo_errors.trials_none": (lambda: monte_carlo_errors(_RECORDS, None, 0, _base(_RHO)),
                                       "trials: expected int, got None"),
    "monte_carlo_errors.seed_fraction": (lambda: monte_carlo_errors(_RECORDS, 2, 1.5, _base(_RHO)),
                                         "seed: expected int, got 1.5"),
    "monte_carlo_errors.seed_none": (lambda: monte_carlo_errors(_RECORDS, 2, None, _base(_RHO)),
                                     "seed: expected int, got None"),
    "monte_carlo_errors.seed_text": (lambda: monte_carlo_errors(_RECORDS, 2, "x1", _base(_RHO)),
                                     "seed: expected int, got 'x1'"),
    "monte_carlo_errors.seed_negative": (lambda: monte_carlo_errors(_RECORDS, 2, -1, _base(_RHO)),
                                         "seed: must be >= 0, got -1"),
    "monte_carlo_errors.seed_entry": (lambda: monte_carlo_errors(_RECORDS, 2, (4, 0.5), _base(_RHO)),
                                      "seed[1]: expected int, got 0.5"),
    "simulate_counts.seed_fraction": (lambda: simulate_counts(_RHO, [_HH], 100, seed=1.5),
                                      "seed: expected int, got 1.5"),
    "simulate_counts.seed_bool": (lambda: simulate_counts(_RHO, [_HH], 100, seed=True),
                                  "seed: expected int, got True"),
    "simulate_counts.seed_entry": (lambda: simulate_counts(_RHO, [_HH], 100, seed=[0, -2]),
                                   "seed[1]: must be >= 0, got -2"),
    "ellipsoid_mesh.n_theta": (lambda: ellipsoid_mesh(_CHANNEL, n_theta=1),
                               "n_theta: must be >= 2, got 1"),
    "ellipsoid_mesh.n_phi": (lambda: ellipsoid_mesh(_CHANNEL, n_phi=0),
                             "n_phi: must be >= 1, got 0"),
    # mesh sizes read by the config reader's int rule before their range
    "ellipsoid_mesh.n_theta_fraction": (lambda: ellipsoid_mesh(_CHANNEL, n_theta=2.5),
                                        "n_theta: expected int, got 2.5"),
    "ellipsoid_mesh.n_phi_bool": (lambda: ellipsoid_mesh(_CHANNEL, n_phi=True), "n_phi: expected int, got True"),
    "random_pure_ket.dim": (lambda: random_pure_ket(np.random.default_rng(0), 0),
                            "dim: must be >= 1, got 0"),
    "random_pure_ket.dim_negative": (lambda: random_pure_ket(np.random.default_rng(0), -1),
                                     "dim: must be >= 1, got -1"),
    "config.trials": (lambda: sweep_config_from_dict({"pipeline": {"trials": 1}}),
                      "pipeline.trials: must be >= 2, got 1"),
    "config.seed": (lambda: sweep_config_from_dict({"pipeline": {"seed": -1}}),
                    "pipeline.seed: must be >= 0, got -1"),
    # a library-built config reads each field by the config file's rule when built
    "Pipeline.trials_fraction": (lambda: Pipeline(kind="shot_noise", trials=2.5),
                                 "pipeline.trials: expected int, got 2.5"),
    "Pipeline.seed_bool": (lambda: Pipeline(seed=True), "pipeline.seed: expected int, got True"),
    "Pipeline.n_per_setting_fraction": (lambda: Pipeline(n_per_setting=10.5),
                                        "pipeline.n_per_setting: expected int, got 10.5"),
    "SweepConfig.noisy_qubit_bool": (lambda: SweepConfig(noisy_qubit=True),
                                     "noisy_qubit: expected int, got True"),
    "SweepConfig.pipeline_trials": (lambda: SweepConfig(pipeline={"kind": "shot-noise", "trials": 2.5}),
                                    "pipeline.trials: expected int, got 2.5"),
    "SweepConfig.p_grid_entry": (lambda: SweepConfig(p_grid=[0.0, "x"]), "p_grid[1]: expected float, got 'x'"),
    "SweepConfig.p_grid_0d": (lambda: SweepConfig(p_grid=np.array(0.5)), "p_grid: expected list, got array(0.5)"),
    "SweepConfig.initial_kind": (lambda: SweepConfig(initial="x:1"),
                                 "initial.kind: expected 'bell', 'pure_pes' or 'mixed_pes', got 'x'"),
    "run_channel_characterization.seed_bool": (
        lambda: run_channel_characterization("isotropic", [0.1], n_per_probe=10, seed=True),
        "seed: expected int, got True"),
    "run_channel_characterization.seed_text": (
        lambda: run_channel_characterization("isotropic", [0.1], seed="x3"), "seed: expected int, got 'x3'"),
    # a mesh numpy refuses to size (2**62 points) before it allocates anything
    "ellipsoid_mesh.too_big": (lambda: ellipsoid_mesh(_CHANNEL, n_theta=2, n_phi=2**62),
                               f"n_theta, n_phi: cannot make 2 x {2**62} points (array is too big"),
    "flag.n_phi_too_big": (_flag(*_MESH, "--n-theta", "2", "--n-phi", str(2**62)),
                           f"n_theta, n_phi: cannot make 2 x {2**62} points (array is too big"),
    "flag.n_theta": (_flag(*_MESH, "--n-theta", "1"), "n_theta: must be >= 2, got 1"),
    "flag.n_phi": (_flag(*_MESH, "--n-phi", "0"), "n_phi: must be >= 1, got 0"),
    "flag.trials": (_flag("tomo-sim", "--trials", "0"), "pipeline.trials: must be >= 2, got 0"),
    "flag.characterize_seed": (_flag("characterize", "--family", "isotropic", "--seed", "-1"),
                               "seed: must be >= 0, got -1"),
    # positive and finite
    "CountRecord.exposure": (lambda: CountRecord(_HH, 5, float("nan")),
                             "exposure: must be positive and finite, got nan"),
    # an exposure read by the config reader's float rule before its range
    "CountRecord.exposure_bool": (lambda: CountRecord(_HH, 5, True), "exposure: expected float, got True"),
    "CountRecord.exposure_none": (lambda: CountRecord(_HH, 5, None), "exposure: expected float, got None"),
    "CountRecord.exposure_text": (lambda: CountRecord(_HH, 5, "-10"),
                                  "exposure: must be positive and finite, got -10.0"),
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
    # the recipe angles, worded as the config reader words them, without its path
    "make_initial.pure_delta": (
        lambda: make_initial(InitialStateSpec(kind="pure_pes", delta=float("nan"))),
        "delta: must be finite, got nan"),
    "make_initial.pure_phi": (
        lambda: make_initial(InitialStateSpec(kind="pure_pes", delta=0.1, phi=float("inf"))),
        "phi: must be finite, got inf"),
    "make_initial.mixed_delta": (
        lambda: make_initial(InitialStateSpec(kind="mixed_pes", delta=float("inf"), dephasing=0.1)),
        "delta: must be finite, got inf"),
    "make_initial.dephasing": (
        lambda: make_initial(InitialStateSpec(kind="mixed_pes", delta=0.1, dephasing=2.0)),
        "dephasing: value 2.0 outside [0, 1]"),
    "make_initial.dephasing_none": (
        lambda: make_initial(InitialStateSpec(kind="mixed_pes", delta=0.1, dephasing=None)),
        "dephasing: expected float, got None"),
    # a spec reads its own fields when built, whether or not a config holds it
    "InitialStateSpec.delta_bool": (lambda: InitialStateSpec(kind="pure_pes", delta=True),
                                    "delta: expected float, got True"),
    "InitialStateSpec.delta_text": (lambda: InitialStateSpec(kind="pure_pes", delta="x"),
                                    "delta: expected float, got 'x'"),
    "InitialStateSpec.phi_none": (lambda: InitialStateSpec(kind="pure_pes", delta=0.1, phi=None),
                                  "phi: expected float, got None"),
    "InitialStateSpec.dephasing_none": (lambda: InitialStateSpec(kind="mixed_pes", delta=0.1, dephasing=None),
                                        "dephasing: expected float, got None"),
    "InitialStateSpec.dephasing_text": (lambda: InitialStateSpec(kind="mixed_pes", delta=0.1, dephasing="2"),
                                        "dephasing: value 2.0 outside [0, 1]"),
    "InitialStateSpec.bell": (lambda: InitialStateSpec(kind="bell", bell=5), f"bell: {_BELLS}, got 5"),
    "SweepConfig.initial_given": (
        lambda: SweepConfig(initial=InitialStateSpec(kind="pure_pes", delta="0.1", phi="nan")),
        "phi: must be finite, got nan"),
    "predict_x_state.delta": (lambda: predict_x_state((1.0, 1.0, 1.0), (1.0, 1.0, 1.0), float("nan")),
                              "delta: must be finite, got nan"),
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
    # an integer
    "random_pure_ket.dim_fraction": (lambda: random_pure_ket(np.random.default_rng(0), 2.5),
                                     "dim: expected int, got 2.5"),
    # a fit needs at least one record; refused by name, as an empty count file is
    "reconstruct_state_mle.records": (lambda: reconstruct_state_mle([]), "records: must not be empty"),
    "linear_inversion_state.records": (lambda: linear_inversion_state([]), "records: must not be empty"),
    "monte_carlo_errors.records": (lambda: monte_carlo_errors([], 3, 0, _base(_RHO)),
                                   "records: must not be empty"),
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


def test_mesh_that_cannot_be_allocated_is_a_field_error(monkeypatch, capsys):
    # the allocator refuses as numpy does when memory runs out; nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(entdyn.tomography.np, "linspace", out_of_memory)
    message = "n_theta, n_phi: cannot make 2 x 100000000000 points (Unable to allocate 745. GiB)"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ellipsoid_mesh(_CHANNEL, n_theta=2, n_phi=10**11)
    assert main([*_MESH, "--n-theta", "2", "--n-phi", str(10**11)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_seeds_and_trials_read_as_their_numbers_draw_the_same_streams():
    # a numeric string reads as its number, as every flag and file reader
    # reads it, not as a sequence of its characters; numpy integers, tuples
    # (the harness's (seed, index, k)) and arrays draw as they always did
    base = reconstruct_state_mle(_RECORDS)
    want = monte_carlo_errors(_RECORDS, 3, 12, base)
    for seed in ("12", 12.0, np.int64(12), [12]):
        assert monte_carlo_errors(_RECORDS, 3, seed, base) == want
    for trials in ("3", 3.0, np.int64(3)):
        assert monte_carlo_errors(_RECORDS, trials, 12, base) == want
    want = monte_carlo_errors(_RECORDS, 2, (4, 1, 1), base)
    for seed in ([4, 1, 1], np.array([4, 1, 1]), ("4", np.int64(1), 1.0)):
        assert monte_carlo_errors(_RECORDS, 2, seed, base) == want
    counts = [r.count for r in simulate_counts(_RHO, standard_settings(), 100, seed=(4, 1, 0))]
    for seed in ([4, 1, 0], np.array([4, 1, 0]), ("4", np.uint8(1), 0)):
        assert [r.count for r in simulate_counts(_RHO, standard_settings(), 100, seed)] == counts
    counts = [r.count for r in simulate_counts(_RHO, standard_settings(), 100, seed=7)]
    for seed in ("7", 7.0, np.int64(7)):
        assert [r.count for r in simulate_counts(_RHO, standard_settings(), 100, seed)] == counts


# Library values that a config file writes as JSON: each builds the config the
# file reader builds from the JSON, or fails naming the field (above).
LIBRARY_CONFIGS = {
    "p_grid_array": ({"p_grid": np.linspace(0, 1, 3)}, '{"p_grid": [0.0, 0.5, 1.0]}'),
    "p_grid_text": ({"p_grid": [0.0, "0.5"]}, '{"p_grid": [0, 0.5]}'),
    "pipeline_shorthand": ({"pipeline": "exact"}, '{"pipeline": {"kind": "exact_simulation"}}'),
    "initial_string": ({"initial": "bell:phi+"}, '{"initial": {"kind": "bell", "bell": "phi_plus"}}'),
    "initial_spec_text": ({"initial": InitialStateSpec(kind="pure_pes", delta="0.1")},
                          '{"initial": {"kind": "pure_pes", "delta": 0.1}}'),
    "initial_spec_short_bell": ({"initial": InitialStateSpec(kind="bell", bell="psi-")}, '{"initial": "bell:psi-"}'),
    "initials_spec_numbers": (
        {"initials": [InitialStateSpec(kind="mixed_pes", delta=np.float64(0.2), dephasing="0.1")]},
        '{"initials": ["mixed:0.2:0.1"]}'),
}


@pytest.mark.parametrize("kwargs, text", LIBRARY_CONFIGS.values(), ids=LIBRARY_CONFIGS)
def test_library_config_is_the_file_readers_config(kwargs, text):
    assert SweepConfig(**kwargs) == sweep_config_from_dict(json.loads(text))


def test_characterization_seeds_and_counts_read_as_their_numbers_draw_the_same_streams():
    want = run_channel_characterization("isotropic", [0.1, 0.4], n_per_probe=10_000, seed=3)
    for seed in ("3", 3.0, np.int64(3)):
        assert run_channel_characterization("isotropic", [0.1, 0.4], n_per_probe=10_000, seed=seed) == want
    for n in ("10000", 1e4, np.int64(10_000)):
        assert run_channel_characterization("isotropic", [0.1, 0.4], n_per_probe=n, seed=3) == want


def test_given_spec_is_the_readers_spec_and_keys_the_same_tables():
    # a short Bell name and numeric text read as the file reader reads them,
    # so a PES sweep keys its tables by the same labels
    given = (InitialStateSpec(kind="bell", bell="PSI-"),
             InitialStateSpec(kind="pure_pes", delta="0.13", phi=np.float64(0.5)),
             InitialStateSpec(kind="mixed_pes", delta="0.2", dephasing="0.1"))
    read = ("bell:psi-", "pes:0.13:0.5", "mixed:0.2:0.1")
    assert given == tuple(initial_spec_from(x) for x in read)
    assert {type(getattr(s, name)) for s in given for name in ("delta", "phi", "dephasing")} == {float}
    tables = run_pes_sweep(SweepConfig(initials=given, p_grid=[0.0, 0.5]))
    assert tables == run_pes_sweep(sweep_config_from_dict({"initials": list(read), "p_grid": [0.0, 0.5]}))
    assert sorted(tables) == ["bell_psi_minus", "mixed_pes_delta0.2_p0.1", "pure_pes_delta0.13_phi0.5"]


def test_mesh_sizes_and_exposures_read_as_their_numbers():
    assert np.array_equal(ellipsoid_mesh(_CHANNEL, n_theta="5", n_phi=np.int64(4)), ellipsoid_mesh(_CHANNEL, 5, 4))
    assert np.array_equal(ellipsoid_mesh(_CHANNEL, n_theta=5.0, n_phi="4"), ellipsoid_mesh(_CHANNEL, 5, 4))
    for exposure in ("10", np.float64(10.0), np.int64(10), 10):
        record = CountRecord(_HH, 5, exposure)
        assert record == CountRecord(_HH, 5, 10.0) and type(record.exposure) is float
