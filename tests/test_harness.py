import json
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import entdyn.dynamics
import entdyn.harness

from entdyn.channels import (
    apply_one_sided,
    apply_two_sided,
    channel_for,
    pauli_radii,
)
from entdyn.cli import main
from entdyn.dynamics import (
    InitialStateSpec,
    concurrence,
    factorization_prediction,
    make_initial,
    mixed_evolution_prediction,
    predict_one_sided,
    predict_two_sided,
    pure_pes_ket,
)
from entdyn.harness import (
    BreakingPoint,
    ConfigError,
    NumericalError,
    Pipeline,
    SweepConfig,
    SweepRow,
    initial_spec_from,
    p_grid_from,
    read_rows,
    render,
    run_breaking_points,
    run_channel_characterization,
    run_pes_sweep,
    run_selftest,
    run_sweep,
    shot_noise_point,
    sweep_config_from_dict,
)
from entdyn.states import dm
from entdyn.tomography import MAX_COUNT, simulate_counts, standard_settings

BELL = InitialStateSpec(kind="bell", bell="phi_plus")


def analytic_config(**kwargs):
    base = dict(
        family="two-field",
        mode="one_sided",
        initial=BELL,
        p_grid=(0.0, 0.25, 0.5),
        pipeline=Pipeline(kind="analytic"),
    )
    base.update(kwargs)
    return SweepConfig(**base)


class TestRunSweep:
    def test_two_field_one_sided_reference_points(self):
        rows = run_sweep(analytic_config())
        assert [r.concurrence for r in rows] == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)
        assert [r.predicted for r in rows] == pytest.approx([1.0, 0.5, 0.0], abs=1e-12)

    def test_isotropic_two_sided_breaking_point(self):
        p_star = (3 - math.sqrt(3)) / 4
        config = analytic_config(
            family="isotropic",
            mode="two_sided",
            p_grid=(p_star,),
            pipeline=Pipeline(kind="exact_simulation"),
        )
        rows = run_sweep(config)
        assert rows[0].concurrence == pytest.approx(0.0, abs=1e-10)

    def test_exact_simulation_matches_prediction(self):
        for family in ("two-field", "isotropic"):
            for mode in ("one_sided", "two_sided"):
                config = analytic_config(
                    family=family,
                    mode=mode,
                    p_grid=tuple(np.linspace(0, 1, 11)),
                    pipeline=Pipeline(kind="exact_simulation"),
                )
                for row in run_sweep(config):
                    assert abs(row.concurrence - row.predicted) < 1e-9

    def test_noisy_qubit_choice_irrelevant_for_bell(self):
        base = analytic_config(pipeline=Pipeline(kind="exact_simulation"))
        rows0 = run_sweep(SweepConfig(**{**base.__dict__, "noisy_qubit": 0}))
        rows1 = run_sweep(SweepConfig(**{**base.__dict__, "noisy_qubit": 1}))
        for a, b in zip(rows0, rows1):
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-12)

    def test_analytic_rows_have_no_error(self):
        for row in run_sweep(analytic_config()):
            assert row.error is None

    def test_shot_noise_smoke(self):
        config = analytic_config(
            family="isotropic",
            p_grid=(0.0, 0.3),
            pipeline=Pipeline(kind="shot_noise", n_per_setting=800, trials=4, seed=5),
        )
        rows = run_sweep(config)
        for row in rows:
            assert row.error is not None and row.error >= 0.0
            assert abs(row.concurrence - row.predicted) < 0.1

    def test_shot_noise_point_streams(self):
        pipeline = Pipeline(kind="shot_noise", n_per_setting=500, trials=3, seed=4)
        config = analytic_config(p_grid=(0.1, 0.3), pipeline=pipeline)
        records, fit, estimate = shot_noise_point(config, BELL, 1)
        rho = apply_one_sided(channel_for("two-field", 0.3), make_initial(BELL), target=1)
        expected = simulate_counts(rho, standard_settings(), 500, seed=(4, 1, 0))
        assert [r.count for r in records] == [r.count for r in expected]
        # given records are fitted as they are, with the same bootstrap stream
        again = shot_noise_point(config, BELL, 1, records=expected)
        assert again[0] is expected
        assert np.array_equal(again[1].rho_hat, fit.rho_hat) and again[2] == estimate
        assert estimate.trials == 3
        rows = run_sweep(config)
        assert rows[1].concurrence == concurrence(fit.rho_hat).c
        assert rows[1].error == estimate.std_dev

    def test_unconverged_shot_noise_fit_names_the_point(self, monkeypatch):
        # the harness fits each point's counts once; the refits run inside
        # the bootstrap
        fit = entdyn.harness.reconstruct_state_mle
        calls = []

        def second_fit_unconverged(*args, **kwargs):
            calls.append(1)
            result = fit(*args, **kwargs)
            return replace(result, converged=False) if len(calls) == 2 else result

        monkeypatch.setattr(entdyn.harness, "reconstruct_state_mle", second_fit_unconverged)
        config = analytic_config(
            p_grid=(0.1, 0.3, 0.5),
            pipeline=Pipeline(kind="shot_noise", n_per_setting=500, trials=2, seed=4),
        )
        with pytest.raises(NumericalError, match=r"^p_grid\[1\]: likelihood fit did not converge"):
            run_sweep(config)
        assert len(calls) == 2


class TestPesSweep:
    def test_pure_pes_linear_and_zero_at_half(self):
        delta = math.asin(0.5) / 4  # C0 = 0.5
        config = analytic_config(
            family="isotropic",
            initial=InitialStateSpec(kind="pure_pes", delta=delta),
            p_grid=tuple(np.linspace(0.0, 1.0, 21)),
        )
        (rows,) = run_pes_sweep(config).values()
        for row in rows:
            assert row.concurrence == pytest.approx(0.5 * max(1 - 2 * row.p, 0.0), abs=1e-9)

    def test_mixed_pes_breaks_strictly_earlier(self):
        delta = math.asin(0.5) / 4
        grid = tuple(np.linspace(0.0, 0.6, 61))
        config = analytic_config(
            family="isotropic",
            p_grid=grid,
            initials=(
                InitialStateSpec(kind="pure_pes", delta=delta),
                InitialStateSpec(kind="mixed_pes", delta=math.radians(22.5), dephasing=0.25),
            ),
        )
        tables = run_pes_sweep(config)
        assert len(tables) == 2
        zeros = {}
        for label, rows in tables.items():
            assert rows[0].concurrence == pytest.approx(0.5, abs=1e-9)
            zeros[label] = next(r.p for r in rows if r.concurrence <= 1e-12)
        z_pure = zeros[[k for k in zeros if k.startswith("pure")][0]]
        z_mixed = zeros[[k for k in zeros if k.startswith("mixed")][0]]
        assert z_mixed < z_pure - 0.05
        assert z_pure == pytest.approx(0.5, abs=0.011)

    def test_maximal_pes_reduces_to_bell_sweep(self):
        config = analytic_config(
            family="isotropic",
            initial=InitialStateSpec(kind="pure_pes", delta=math.radians(22.5)),
            p_grid=(0.0, 0.2, 0.4),
            pipeline=Pipeline(kind="exact_simulation"),
        )
        (rows,) = run_pes_sweep(config).values()
        bell_rows = run_sweep(analytic_config(family="isotropic", p_grid=(0.0, 0.2, 0.4),
                                              pipeline=Pipeline(kind="exact_simulation")))
        for a, b in zip(rows, bell_rows):
            assert a.concurrence == pytest.approx(b.concurrence, abs=1e-10)

    def test_p_scale_moves_predicted_zero_only(self):
        config = analytic_config(
            family="isotropic",
            p_grid=tuple(np.linspace(0.0, 1.0, 101)),
            pipeline=Pipeline(kind="exact_simulation"),
            p_scale=0.62 / 0.5,
        )
        rows = run_sweep(config)
        predicted_zero = next(r.p for r in rows if r.predicted <= 1e-12)
        simulated_zero = next(r.p for r in rows if r.concurrence <= 1e-12)
        assert predicted_zero == pytest.approx(0.62, abs=0.011)
        assert simulated_zero == pytest.approx(0.5, abs=0.011)

    def test_p_scale_off_by_default(self):
        assert SweepConfig().p_scale is None


def reference_rows(config, spec):
    """Per-point sweep rows built from single channels and single states, as
    the table was computed before sweeps were batched over the grid."""
    rho0 = make_initial(spec, noisy_qubit=config.noisy_qubit)

    def simulated(channel):
        if config.mode == "one_sided":
            rho = apply_one_sided(channel, rho0, target=config.noisy_qubit)
        else:
            rho = apply_two_sided(channel, rho0)
        return concurrence(rho).c

    def law(channel):
        if config.mode == "two_sided":
            if spec.kind == "bell":
                return predict_two_sided(pauli_radii(channel.chi_diag))
            return simulated(channel)
        if spec.kind == "bell":
            return predict_one_sided(pauli_radii(channel.chi_diag))
        if spec.kind == "pure_pes":
            return factorization_prediction(rho0, channel)
        sigma = dm(pure_pes_ket(spec.delta))
        return mixed_evolution_prediction(sigma, channel_for("dephasing", spec.dephasing), channel)

    rows = []
    for p in config.p_grid:
        p_eff = p if config.p_scale is None else min(1.0, p / config.p_scale)
        channel = channel_for(config.family, p)
        value = law(channel) if config.pipeline.kind == "analytic" else simulated(channel)
        rows.append((p, value, law(channel_for(config.family, p_eff))))
    return rows


ORACLE_GRID = (0.0, 0.07, 0.25, 0.31, 0.37, 0.5, 0.62, 0.75, 0.93, 1.0)
ORACLE_SPECS = (
    InitialStateSpec(kind="bell", bell="psi_minus"),
    InitialStateSpec(kind="pure_pes", delta=0.17, phi=0.4),
    InitialStateSpec(kind="mixed_pes", delta=0.21, dephasing=0.15),
)


class TestBatchedSweepOracle:
    """Batched sweep tables against the per-point reference, within 1e-12."""

    @pytest.mark.parametrize("p_scale", [None, 1.3])
    @pytest.mark.parametrize("pipeline", ["analytic", "exact_simulation"])
    @pytest.mark.parametrize("noisy_qubit", [0, 1])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("mode", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("family", ["two-field", "isotropic", "dephasing"])
    def test_run_sweep_matches_per_point_reference(
        self, family, mode, spec, noisy_qubit, pipeline, p_scale
    ):
        config = analytic_config(family=family, mode=mode, initial=spec, p_grid=ORACLE_GRID,
                                 noisy_qubit=noisy_qubit, pipeline=Pipeline(kind=pipeline),
                                 p_scale=p_scale)
        rows = run_sweep(config)
        expected = reference_rows(config, spec)
        assert [r.p for r in rows] == [p for p, _, _ in expected]
        assert all(r.error is None for r in rows)
        assert np.max(np.abs([r.concurrence - c for r, (_, c, _) in zip(rows, expected)])) < 1e-12
        assert np.max(np.abs([r.predicted - c for r, (_, _, c) in zip(rows, expected)])) < 1e-12

    @pytest.mark.parametrize("pipeline", ["analytic", "exact_simulation"])
    @pytest.mark.parametrize("mode", ["one_sided", "two_sided"])
    def test_run_pes_sweep_matches_per_point_reference(self, mode, pipeline):
        config = analytic_config(family="two-field", mode=mode, initials=ORACLE_SPECS[1:],
                                 p_grid=ORACLE_GRID, pipeline=Pipeline(kind=pipeline))
        tables = run_pes_sweep(config)
        assert sorted(tables) == sorted(s.label() for s in ORACLE_SPECS[1:])
        for spec in ORACLE_SPECS[1:]:
            expected = reference_rows(config, spec)
            for row, (p, c, predicted) in zip(tables[spec.label()], expected, strict=True):
                assert row.p == p
                assert abs(row.concurrence - c) < 1e-12
                assert abs(row.predicted - predicted) < 1e-12


def test_analytic_rows_run_no_simulation(monkeypatch):
    """No analytic row evolves a state or takes a Wootters concurrence, by
    the harness's own call or through ``dynamics`` (``concurrence`` and
    ``pure_state_concurrence`` take it there): every family, mode, initial
    kind and noisy qubit, with and without p_scale."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)
        label = f"{module.__name__.rpartition('.')[2]}.{name}"
        return lambda *args, **kwargs: calls.append(label) or original(*args, **kwargs)

    for module, name in ((entdyn.harness, "wootters"), (entdyn.harness, "apply_ptm"),
                         (entdyn.dynamics, "wootters")):
        monkeypatch.setattr(module, name, counted(module, name))
    for family, mode, noisy_qubit, p_scale in product(
            ("two-field", "isotropic", "dephasing"), ("one_sided", "two_sided"), (0, 1), (None, 1.3)):
        config = analytic_config(family=family, mode=mode, noisy_qubit=noisy_qubit, p_scale=p_scale,
                                 p_grid=ORACLE_GRID, initials=ORACLE_SPECS[1:])
        for spec in ORACLE_SPECS:
            run_sweep(replace(config, initial=spec))
        run_pes_sweep(config)
    assert calls == []
    run_sweep(analytic_config(mode="two_sided", pipeline=Pipeline(kind="exact_simulation")))
    assert calls == ["harness.apply_ptm", "harness.wootters"]  # the guard sees the simulation


class TestBreakingPointsTable:
    def test_four_reference_values(self):
        rows = run_breaking_points()
        table = {(r.family, r.mode): r.p_star for r in rows}
        assert len(rows) == 4
        assert table[("two-field", "one_sided")] == pytest.approx(0.5, abs=1e-6)
        assert table[("isotropic", "one_sided")] == pytest.approx(0.5, abs=1e-6)
        assert table[("two-field", "two_sided")] == pytest.approx(1 / 3, abs=1e-6)
        assert table[("isotropic", "two_sided")] == pytest.approx(0.31699, abs=1e-5)

    def test_stable_across_runs(self):
        a = run_breaking_points()
        b = run_breaking_points()
        for ra, rb in zip(a, b):
            assert abs(ra.p_star - rb.p_star) < 1e-8


class TestCharacterization:
    def test_two_field_exact(self):
        rows = run_channel_characterization("two-field", p_grid=(0.0, 0.4, 1.0))
        assert np.allclose(rows[1].chi, (0.6, 0.2, 0.2, 0.0), atol=1e-10)
        assert np.allclose(rows[1].theory, (0.6, 0.2, 0.2, 0.0), atol=1e-15)
        assert np.allclose(rows[0].chi, (1, 0, 0, 0), atol=1e-10)

    def test_isotropic_exact(self):
        rows = run_channel_characterization("isotropic", p_grid=(0.6,))
        assert np.allclose(rows[0].chi, (0.4, 0.2, 0.2, 0.2), atol=1e-10)

    def test_shot_noise_close_to_theory(self):
        rows = run_channel_characterization(
            "isotropic", p_grid=(0.3,), n_per_probe=100_000, seed=4
        )
        assert np.max(np.abs(np.array(rows[0].chi) - np.array(rows[0].theory))) < 0.02

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="family"):
            run_channel_characterization("bit-flip", p_grid=(0.1,))


class TestEmit:
    def test_csv_shape_and_header(self, tmp_path):
        rows = run_sweep(analytic_config())
        path = tmp_path / "sweep.csv"
        path.write_text(render(rows, "csv"))
        lines = path.read_text().splitlines()
        assert lines[0] == "p,concurrence,error,predicted"
        assert len(lines) == 4

    def test_deterministic_bytes(self, tmp_path):
        rows = run_sweep(analytic_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(render(rows, "csv"))
        b.write_text(render(rows, "csv"))
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        rows = run_sweep(analytic_config())
        path = tmp_path / "sweep.json"
        path.write_text(render(rows, "json"))
        assert read_rows(path, "json") == rows

    def test_csv_round_trip(self, tmp_path):
        config = analytic_config(
            family="isotropic",
            p_grid=(0.1, 0.2),
            pipeline=Pipeline(kind="shot_noise", n_per_setting=500, trials=2, seed=1),
        )
        rows = run_sweep(config)
        path = tmp_path / "sweep.csv"
        path.write_text(render(rows, "csv"))
        back = read_rows(path, "csv")
        for a, b in zip(back, rows):
            assert a.p == b.p and a.concurrence == b.concurrence and a.error == b.error

    @pytest.mark.parametrize("format, text, message", [
        ("json", '[{"p": 0.0, "concurrence": 1.0, "predicted": 1.0}]', "data row 1: error: missing"),
        ("json", '[{"p": true, "concurrence": 1.0, "error": null, "predicted": 1.0}]',
         "data row 1: p: expected float, got True"),
        ("json", '[{"p": null, "concurrence": 1.0, "error": null, "predicted": 1.0}]',
         "data row 1: p: expected float, got None"),
        ("json", '{"p": 0.0}', "expected a list of row objects"),
        ("json", '[0.5]', "expected a list of row objects"),
        ("csv", "p,concurrence,predicted\n0.0,1.0,1.0\n", "data row 1: error: missing"),
        ("csv", "p,concurrence,error,predicted\n0.0,1.0,,1.0\nx,1.0,,1.0\n", "data row 2: p: expected float, got 'x'"),
        ("csv", "p,concurrence,error,predicted\n0.0,1.0,,\n", "data row 1: predicted: expected float, got ''"),
        ("csv", "p,concurrence,error,predicted\n0.0,1.0\n", "data row 1: expected 4 cells (the header's), got 2"),
        ("csv", "p,concurrence,error,predicted\n0.0,1.0,,1.0\n0.0,1.0,,1.0,9,9\n",
         "data row 2: expected 4 cells (the header's), got 6"),
        ("csv", "p,concurrence,error,p\n0.0,1.0,,1.0\n", "header repeats column 'p'"),
        ("json", '[{"p": 0.0, "concurrence": 1.0, "error": null, "predicted": 1.0, "junk": 1}]',
         "data row 1: junk: unknown field"),
        ("csv", "p,concurrence,error,predicted,notes\n0.0,1.0,,1.0,x\n", "data row 1: notes: unknown field"),
    ])
    def test_malformed_table_names_file_row_and_cell(self, tmp_path, format, text, message):
        path = tmp_path / f"rows.{format}"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            read_rows(path, format)
        assert str(info.value) == f"{path}: {message}"

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            render([], "csv")

    def test_rows_are_named_tuples(self):
        rows = run_sweep(analytic_config(p_grid=(0.0, 0.25, 0.5)))
        assert rows == [(0.0, 1.0, None, 1.0), (0.25, 0.5, None, 0.5), (0.5, 0.0, None, 0.0)]
        assert rows[1]._replace(error=0.5) == SweepRow(0.25, 0.5, 0.5, 0.5)
        assert SweepRow._fields == ("p", "concurrence", "error", "predicted")
        assert BreakingPoint._fields == ("family", "mode", "p_star")

    def test_other_row_types_render(self):
        text = render(run_breaking_points(), "csv")
        assert text.splitlines()[0] == "family,mode,p_star"
        text = render(run_channel_characterization("two-field", p_grid=(0.2,)), "json")
        assert json.loads(text)[0]["theory_0"] == pytest.approx(0.8)

    def test_infinite_p_star_serialized(self, tmp_path):
        rows = [BreakingPoint(family="dephasing", mode="one_sided", p_star=math.inf)]
        assert "inf" in render(rows, "csv")
        assert json.loads(render(rows, "json"))[0]["p_star"] is None


class TestConfigValidation:
    def test_bad_family(self):
        with pytest.raises(ConfigError, match="^family"):
            run_sweep(analytic_config(family="gaussian"))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="^mode"):
            run_sweep(analytic_config(mode="both"))

    def test_grid_out_of_range(self):
        with pytest.raises(ConfigError, match=r"^p_grid\[1\]"):
            run_sweep(analytic_config(p_grid=(0.5, 1.5)))

    def test_grid_not_increasing(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            run_sweep(analytic_config(p_grid=(0.5, 0.5)))

    def test_bad_pipeline_kind(self):
        with pytest.raises(ConfigError, match=r"^pipeline\.kind"):
            run_sweep(analytic_config(pipeline=Pipeline(kind="monte_carlo")))

    def test_counts_above_the_limit(self):
        with pytest.raises(ConfigError, match=r"^pipeline\.n_per_setting: must be <= 1e18"):
            run_sweep(analytic_config(pipeline=Pipeline(kind="shot_noise", n_per_setting=MAX_COUNT + 1)))

    @pytest.mark.parametrize("pipeline", ["analytic", "exact", "shot_noise"])
    def test_unknown_bell_state(self, pipeline):
        bells = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"
        with pytest.raises(ConfigError, match=rf"^initial\.bell: {bells}, got 'nope'"):
            sweep_config_from_dict({"initial": "bell:nope", "pipeline": pipeline})
        initials = ["bell:psi-", {"kind": "bell", "bell": "nope"}]
        with pytest.raises(ConfigError, match=rf"^initials\[1\]\.bell: {bells}, got 'nope'"):
            sweep_config_from_dict({"initials": initials, "pipeline": pipeline})

    def test_bad_trials(self):
        with pytest.raises(ConfigError, match=r"^pipeline\.trials"):
            run_sweep(analytic_config(pipeline=Pipeline(kind="shot_noise", trials=1)))

    def test_bad_dephasing(self):
        spec = InitialStateSpec(kind="mixed_pes", delta=0.2, dephasing=1.5)
        with pytest.raises(ConfigError, match="dephasing"):
            run_sweep(analytic_config(initial=spec))

    @pytest.mark.parametrize("p_scale", [math.nan, math.inf, 0.0])
    def test_bad_p_scale(self, p_scale):
        with pytest.raises(ConfigError, match="^p_scale"):
            run_sweep(analytic_config(p_scale=p_scale))

    @pytest.mark.parametrize(
        "obj, message",
        [({"initial": {"kind": "bell", "delta": 0.1}}, r"initial\.delta: unknown field"),
         ({"p_grid": {"start": 0, "stop": 1, "points": 3, "step": 9}}, r"p_grid\.step: unknown field"),
         ({"initial": "pes:0.1:0.2:0.3"}, "initial: too many fields"),
         ({"initials": ["pes:0.1", "bell:phi+:extra"]}, r"initials\[1\]: too many fields")],
        ids=["mapping_field", "grid_field", "pes_string", "bell_string"],
    )
    def test_unknown_nested_field_named(self, obj, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            sweep_config_from_dict(obj)

    def test_valid_grid_names_no_point(self, monkeypatch):
        # each point is checked under the grid's own path and its index; the
        # point's path is formatted only inside the raise
        paths = set()
        check = entdyn.harness._check_probability
        monkeypatch.setattr(entdyn.harness, "_check_probability",
                            lambda p, path, index=None: paths.add(path) or check(p, path, index))
        grid = tuple(np.linspace(0.0, 1.0, 201).tolist())
        analytic_config(p_grid=grid)
        assert paths == {"p_grid"}
        with pytest.raises(ConfigError, match=r"^p_grid\[200\]: value 1.5 outside \[0, 1\]$"):
            analytic_config(p_grid=(*grid[:-1], 1.5))
        assert paths == {"p_grid"}

    def test_config_is_checked_once_when_built(self, monkeypatch, capsys):
        # one sweep op checks its grid once, when its config is built, and
        # neither the reader nor run_sweep checks it again
        calls = []

        def counted(check):
            return lambda *args, **kwargs: calls.append(check.__name__) or check(*args, **kwargs)

        for check in (entdyn.harness._check_grid, entdyn.harness._check_probability):
            monkeypatch.setattr(entdyn.harness, check.__name__, counted(check))
        assert main(["sweep", "--pipeline", "exact", "--p-grid", "0:1:201"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 202
        assert (calls.count("_check_grid"), calls.count("_check_probability")) == (1, 201)

    def test_invalid_config_cannot_be_built(self):
        valid = analytic_config(pipeline=Pipeline(kind="shot_noise", n_per_setting=100, trials=2))
        message = r"^pipeline\.likelihood: expected 'gaussian' or 'poisson', got 'x'$"
        with pytest.raises(ConfigError, match=message):
            analytic_config(pipeline=Pipeline(kind="shot_noise", likelihood="x"))
        with pytest.raises(ConfigError, match=message):
            replace(valid, pipeline=replace(valid.pipeline, likelihood="x"))
        # so the shot-noise step, which tomo-sim runs without run_sweep, is
        # never handed a config that names no field in its errors
        with pytest.raises(ConfigError, match=message):
            shot_noise_point(analytic_config(pipeline=Pipeline(kind="shot_noise", likelihood="x")), BELL, 0)
        with pytest.raises(ConfigError, match=r"^p_grid\[0\]: value 2\.0 outside \[0, 1\]$"):
            replace(valid, p_grid=(2.0,))

    def test_initials_labels_are_distinct(self):
        # pes-sweep keys its tables by label, so a repeated label would drop a table
        pes = [InitialStateSpec(kind="pure_pes", delta=d) for d in (0.1309, 0.2, 0.13090001)]
        with pytest.raises(ConfigError, match=r"^initials\[2\]: label 'pure_pes_delta0.1309_phi0' "
                                              r"repeats initials\[0\]$"):
            analytic_config(initials=tuple(pes))
        with pytest.raises(ConfigError, match=r"^initials\[1\]: label 'mixed_pes_delta0.2_p0.1' "
                                              r"repeats initials\[0\]$"):
            sweep_config_from_dict({"initials": ["mixed:0.2:0.1", "mixed:0.2:0.1000001"]})
        assert len(run_pes_sweep(analytic_config(initials=tuple(pes[:2])))) == 2

    def test_grid_errors_keep_their_order(self):
        # point by point, range before order
        with pytest.raises(ConfigError, match=r"^p_grid\[1\]: values must be strictly increasing$"):
            analytic_config(p_grid=(0.5, 0.2, 1.5))
        with pytest.raises(ConfigError, match=r"^p_grid\[1\]: value nan outside \[0, 1\]$"):
            analytic_config(p_grid=(0.5, math.nan, 0.2))

    def test_grid_list_names_the_first_bad_point(self):
        assert p_grid_from(["0", 0.5, np.float64(1.0)]) == (0.0, 0.5, 1.0)
        with pytest.raises(ConfigError, match=r"^p_grid\[2\]: expected float, got 'x'$"):
            p_grid_from([0.0, "0.5", "x", None])

    def test_non_finite_initial_angles(self):
        with pytest.raises(ConfigError, match=r"^initial\.delta"):
            sweep_config_from_dict({"initial": "pes:nan"})
        with pytest.raises(ConfigError, match=r"^initial\.phi"):
            sweep_config_from_dict({"initial": "pes:0.1:inf"})
        with pytest.raises(ConfigError, match=r"^initials\[1\]\.delta"):
            sweep_config_from_dict({"initials": ["pes:0.1", "mixed:nan:0.2"]})


class TestConfigParsing:
    def test_full_dict(self):
        config = sweep_config_from_dict(
            {
                "family": "isotropic",
                "mode": "two_sided",
                "initial": {"kind": "bell", "bell": "psi-"},
                "p_grid": {"start": 0.0, "stop": 1.0, "points": 5},
                "pipeline": {"kind": "shot_noise", "n_per_setting": 100, "trials": 3, "seed": 9},
                "noisy_qubit": 0,
            }
        )
        assert config.family == "isotropic"
        assert config.initial.bell == "psi_minus"
        assert len(config.p_grid) == 5
        assert config.pipeline.trials == 3

    def test_string_shorthands(self):
        assert initial_spec_from("bell:psi-").bell == "psi_minus"
        spec = initial_spec_from("pes:0.13:0.5")
        assert spec.kind == "pure_pes" and spec.delta == 0.13 and spec.phi == 0.5
        spec = initial_spec_from("mixed:0.39:0.25")
        assert spec.kind == "mixed_pes" and spec.dephasing == 0.25

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="temperature"):
            sweep_config_from_dict({"temperature": 300})

    def test_bad_initial_string(self):
        with pytest.raises(ConfigError, match="initial"):
            initial_spec_from("werner:0.5")

    def test_pipeline_shorthand(self):
        config = sweep_config_from_dict({"pipeline": "exact"})
        assert config.pipeline.kind == "exact_simulation"


def test_selftest_passes():
    results = run_selftest(fast=True)
    assert all(ok for _, ok, _ in results), [n for n, ok, _ in results if not ok]
    # the factorization check draws 10 (state, channel) pairs
    detail = {name: detail for name, _, detail in results}["factorization law"]
    assert detail.endswith(" over 10 pairs"), detail


def test_selftest_fails_a_breaking_point_off_by_1e5(monkeypatch, capsys):
    def shifted():
        first, *rest = run_breaking_points()
        return [first._replace(p_star=first.p_star + 1e-5), *rest]

    monkeypatch.setattr(entdyn.harness, "run_breaking_points", shifted)
    passed = {name: ok for name, ok, _ in run_selftest(fast=True)}
    assert passed["breaking points"] is False
    assert sum(passed.values()) == len(passed) - 1
    assert main(["selftest"]) == 2
    assert "FAIL  breaking points" in capsys.readouterr().out
