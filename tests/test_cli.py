import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entdyn.cli
import entdyn.harness
import entdyn.tomography
from entdyn.cli import build_parser, main
from entdyn.dynamics import MODES
from entdyn.harness import (
    _MODE_ALIASES,
    _PIPELINE_ALIASES,
    NOISY_QUBITS,
    PIPELINES,
    NumericalError,
)
from entdyn.states import bell_state
from entdyn.tomography import (
    LIKELIHOODS, MAX_COUNT, simulate_counts, standard_settings, write_counts_csv,
)

BELLS = "expected 'phi_plus', 'phi_minus', 'psi_plus' or 'psi_minus'"


def test_sweep_to_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--family", "two-field",
            "--mode", "one_sided",
            "--initial", "bell:phi+",
            "--p-grid", "0,0.25,0.5",
            "--pipeline", "analytic",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,concurrence,error,predicted"
    assert lines[1].startswith("0.0,1.0,")


def test_sweep_stdout_json(capsys):
    code = main(
        [
            "sweep",
            "--family", "isotropic",
            "--p-grid", "0:1:3",
            "--pipeline", "exact",
            "--format", "json",
        ]
    )
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[0]["concurrence"] == pytest.approx(1.0)


def test_config_file_with_flag_override(tmp_path):
    config = {
        "family": "two-field",
        "mode": "one_sided",
        "p_grid": [0.0, 0.25],
        "pipeline": "analytic",
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "rows.json"
    # flag overrides the config's family
    code = main(
        ["sweep", "--config", str(cfg_path), "--family", "isotropic",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    # isotropic and two-field coincide on a Bell pair one-sided; check grid came from file
    assert [r["p"] for r in rows] == [0.0, 0.25]
    # a mode shorthand in the file reads as the flag does
    for mode in ("one-sided", "two-sided"):
        cfg_path.write_text(json.dumps({**config, "mode": mode}))
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        flag_out = tmp_path / "flag.csv"
        assert main(["sweep", "--family", "two-field", "--mode", mode, "--p-grid", "0,0.25",
                     "--pipeline", "analytic", "--out", str(flag_out)]) == 0
        assert out.read_bytes() == flag_out.read_bytes()


def test_bad_config_exit_code(tmp_path):
    assert main(["sweep", "--p-grid", "0.9,0.1"]) == 1
    assert main(["sweep", "--initial", "werner:0.3"]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_unknown_nested_field_exit_1(tmp_path, capsys):
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"p_grid": {"start": 0, "stop": 1, "points": 3, "step": 9}}')
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: p_grid.step: unknown field")
    assert main(["sweep", "--initial", "pes:0.1:0.2:0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: initial: too many fields")
    assert not out.exists()


def test_unwritable_out_exit_code(tmp_path):
    out = tmp_path / "no_such_dir"
    out.write_text("block")  # a file where a directory is needed
    code = main(
        ["sweep", "--p-grid", "0,0.5", "--pipeline", "analytic",
         "--out", str(out / "rows.csv")]
    )
    assert code == 3


def test_numerical_error_exit_code(monkeypatch):
    def boom():
        raise NumericalError("did not converge")

    monkeypatch.setattr(entdyn.harness, "run_breaking_points", boom)
    monkeypatch.setattr("entdyn.cli.run_breaking_points", boom)
    assert main(["breaking-points"]) == 2


def test_unconverged_shot_noise_sweep_exit_code(monkeypatch, capsys, tmp_path):
    fit = entdyn.harness.reconstruct_state_mle

    def unconverged(*args, **kwargs):
        return dataclasses.replace(fit(*args, **kwargs), converged=False)

    monkeypatch.setattr(entdyn.harness, "reconstruct_state_mle", unconverged)
    out = tmp_path / "rows.csv"
    argv = ["sweep", "--pipeline", "shot-noise", "--p-grid", "0.2,0.4", "--counts", "500",
            "--trials", "2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("numerical failure: p_grid[0]: likelihood fit")
    assert not out.exists()


def test_reused_parser_keeps_calls_apart(capsys):
    def pes_labels(*initials):
        argv = ["pes-sweep", "--p-grid", "0,0.5", "--format", "json"]
        for initial in initials:
            argv += ["--initial", initial]
        assert main(argv) == 0
        return sorted(json.loads(capsys.readouterr().out))

    assert pes_labels("pes:0.1", "mixed:0.2:0.1") == [
        "mixed_pes_delta0.2_p0.1", "pure_pes_delta0.1_phi0"
    ]
    assert pes_labels("pes:0.3") == ["pure_pes_delta0.3_phi0"]
    assert main(["pes-sweep", "--initial", "pes:0.1", "--no-such-flag"]) == 1
    assert pes_labels("pes:0.2") == ["pure_pes_delta0.2_phi0"]


def test_breaking_points_stdout(capsys):
    assert main(["breaking-points", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    table = {(r["family"], r["mode"]): r["p_star"] for r in rows}
    assert table[("two-field", "two_sided")] == pytest.approx(1 / 3, abs=1e-6)


def test_pes_sweep_writes_per_initial_files(tmp_path):
    out = tmp_path / "pes.csv"
    code = main(
        [
            "pes-sweep",
            "--family", "isotropic",
            "--initial", "pes:0.1309",
            "--initial", "mixed:0.3927:0.25",
            "--p-grid", "0,0.2,0.4",
            "--pipeline", "analytic",
            "--out", str(out),
        ]
    )
    assert code == 0
    written = sorted(p.name for p in tmp_path.glob("pes_*.csv"))
    assert len(written) == 2
    assert any("mixed" in name for name in written)


def test_pes_sweep_json_keyed_by_label(capsys):
    code = main(
        ["pes-sweep", "--family", "isotropic", "--initial", "pes:0.1309",
         "--p-grid", "0,0.5", "--pipeline", "analytic", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    label, rows = next(iter(payload.items()))
    assert label.startswith("pure_pes")
    assert len(rows) == 2


def test_pes_sweep_csv_to_stdout(capsys):
    # one "# initial: <label>" block per table, in sorted label order, the
    # blocks apart by a blank line
    argv = ["pes-sweep", "--family", "isotropic", "--p-grid", "0,0.5", "--pipeline", "analytic",
            "--initial", "pes:0.1309", "--initial", "mixed:0.3927:0.25", "--initial", "bell:psi-"]
    assert main(argv) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    labels = ["bell_psi_minus", "mixed_pes_delta0.3927_p0.25", "pure_pes_delta0.1309_phi0"]
    assert [block.splitlines()[0] for block in blocks] == [f"# initial: {label}" for label in labels]
    for block in blocks:
        lines = block.splitlines()
        assert lines[1] == "p,concurrence,error,predicted" and len(lines) == 4
    assert blocks[-1].endswith("\n") and not blocks[-1].endswith("\n\n")


def test_characterize(tmp_path):
    out = tmp_path / "chars.csv"
    code = main(
        ["characterize", "--family", "two-field", "--p-grid", "0,0.4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,chi_0")
    cells = lines[2].split(",")
    assert float(cells[1]) == pytest.approx(0.6, abs=1e-10)


def test_ellipsoid_csv_and_json(tmp_path, capsys):
    code = main(["ellipsoid", "--family", "two-field", "--p", "0.5",
                 "--n-theta", "3", "--n-phi", "4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 13
    code = main(["ellipsoid", "--family", "isotropic", "--p", "0.75",
                 "--n-theta", "3", "--n-phi", "4", "--format", "json"])
    assert code == 0
    points = json.loads(capsys.readouterr().out)
    assert np.max(np.abs(np.asarray(points))) < 1e-12  # fully depolarizing


def test_ellipsoid_from_channel_file(tmp_path, capsys):
    channel_path = tmp_path / "channel.json"
    channel_path.write_text(json.dumps({"family": "pauli", "chi": [0.7, 0.1, 0.1, 0.1]}))
    code = main(["ellipsoid", "--channel", str(channel_path), "--n-theta", "3", "--n-phi", "4",
                 "--format", "json"])
    assert code == 0
    points = np.asarray(json.loads(capsys.readouterr().out))
    # isotropic-like channel: all radii 1 - 4*0.3/3 ... here chi -> radii (0.6, 0.6, 0.6)
    assert np.allclose(np.linalg.norm(points, axis=1), 0.6, atol=1e-12)


@pytest.mark.parametrize(
    "channel, field",
    [({"family": "unital", "radii": [float("nan"), 0.1, 0.1],
       "u": {"dim": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]},
       "v": {"dim": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}}, "radii"),
     ({"family": "pauli", "chi": [float("nan"), 0.5, 0.25, 0.25]}, "chi_diag")],
)
def test_ellipsoid_rejects_non_finite_channel(tmp_path, capsys, channel, field):
    channel_path = tmp_path / "channel.json"
    channel_path.write_text(json.dumps(channel))  # NaN is written as the bare token NaN
    assert main(["ellipsoid", "--channel", str(channel_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err and "finite" in captured.err


def test_non_finite_sweep_settings_exit_code(capsys):
    assert main(["sweep", "--family", "isotropic", "--p-grid", "0.1,0.2", "--p-scale", "nan"]) == 1
    assert "p_scale" in capsys.readouterr().err
    assert main(["sweep", "--initial", "pes:nan", "--p-grid", "0.1,0.2"]) == 1
    assert "initial.delta" in capsys.readouterr().err


def test_counts_in_with_non_finite_exposure(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("proj_a,proj_b,count,exposure\nH,H,500,nan\n")
    assert main(["tomo-sim", "--counts-in", str(counts), "--trials", "2"]) == 1
    assert "data row 1" in capsys.readouterr().err


def _counts_file(tmp_path, counts):
    path = tmp_path / "counts.csv"
    assert main(["tomo-sim", "--counts", str(counts), "--trials", "2", "--seed", "3",
                 "--counts-out", str(path), "--out", str(tmp_path / "first.json")]) == 0
    return path


def test_counts_in_reports_the_file_exposure(tmp_path):
    path = _counts_file(tmp_path, 500)
    out = tmp_path / "summary.json"
    assert main(["tomo-sim", "--trials", "2", "--counts-in", str(path), "--out", str(out)]) == 0
    n = json.loads(out.read_text())["n_per_setting"]
    assert (n, type(n)) == (500, int)


def test_counts_in_rejects_a_different_counts_flag(tmp_path, capsys):
    path = _counts_file(tmp_path, 500)
    argv = ["tomo-sim", "--trials", "2", "--counts-in", str(path), "--counts", "400"]
    assert main([*argv, "--out", str(tmp_path / "summary.json")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: counts: 400 differs from the exposure 500.0 in {path}")
    assert not (tmp_path / "summary.json").exists()


def test_counts_in_with_mixed_exposures_reports_null(tmp_path):
    path = _counts_file(tmp_path, 500)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(",500.0", ",501.0")
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "summary.json"
    assert main(["tomo-sim", "--trials", "2", "--counts-in", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_per_setting"] is None


def test_ellipsoid_requires_p_or_channel():
    assert main(["ellipsoid", "--family", "isotropic"]) == 1


def test_tomo_sim_summary_and_counts_round_trip(tmp_path):
    summary_path = tmp_path / "summary.json"
    counts_path = tmp_path / "counts.csv"
    code = main(
        [
            "tomo-sim",
            "--family", "isotropic",
            "--mode", "one_sided",
            "--p", "0.2",
            "--initial", "bell:phi+",
            "--counts", "400",
            "--trials", "2",
            "--seed", "7",
            "--counts-out", str(counts_path),
            "--out", str(summary_path),
        ]
    )
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["predicted"] == pytest.approx(0.6)
    assert abs(summary["concurrence"] - 0.6) < 0.15
    assert summary["rho"]["dim"] == 4
    assert counts_path.exists()

    # reconstruct from the written counts file
    summary2_path = tmp_path / "summary2.json"
    code = main(
        ["tomo-sim", "--family", "isotropic", "--p", "0.2", "--trials", "2",
         "--counts-in", str(counts_path), "--out", str(summary2_path)]
    )
    assert code == 0
    summary2 = json.loads(summary2_path.read_text())
    assert summary2["concurrence"] == pytest.approx(summary["concurrence"], abs=1e-9)


@pytest.mark.parametrize(
    "flags",
    [["--p", "0.3", "--seed", "5"],
     ["--p", "0.0", "--seed", "8", "--family", "two-field", "--initial", "bell:psi+"],
     ["--p", "0.6", "--mode", "two_sided", "--likelihood", "poisson", "--initial", "pes:0.2"]],
)
def test_tomo_sim_is_a_one_point_shot_noise_sweep(tmp_path, capsys, flags):
    # tomo-sim runs grid point 0 of the sweep's shot-noise pipeline: counts
    # from stream (seed, 0, 0), bootstrap from (seed, 0, 1)
    common = ["--counts", "800", "--trials", "3"]
    out = tmp_path / "summary.json"
    assert main(["tomo-sim", *flags, *common, "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    sweep_flags = [f if f != "--p" else "--p-grid" for f in flags]
    assert main(["sweep", "--pipeline", "shot-noise", *sweep_flags, *common,
                 "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["concurrence"] == summary["concurrence"]
    assert row["error"] == summary["error"]
    assert row["predicted"] == summary["predicted"]


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_tomo_sim_p_outside_unit_interval_names_p(tmp_path, capsys, p):
    out = tmp_path / "summary.json"
    assert main(["tomo-sim", "--p", p, "--trials", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: p: value {float(p)!r} outside [0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["tomo-sim", "--trials", "2"], "pipeline.n_per_setting: must be <= 1e18"),
     (["sweep", "--pipeline", "shot-noise", "--p-grid", "0.2", "--trials", "2"],
      "pipeline.n_per_setting: must be <= 1e18"),
     (["characterize", "--family", "isotropic", "--p-grid", "0.2"], "counts: must be <= 1e18")],
)
def test_counts_above_the_limit_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "--counts", str(10**20), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}, got {10**20}\n"
    assert not out.exists()
    assert main([*argv, "--counts", str(MAX_COUNT), "--out", str(out)]) in (0, 2)
    capsys.readouterr()


@pytest.mark.parametrize("counts_in", [False, True], ids=["simulated", "counts_in"])
def test_tomo_sim_converts_records_to_arrays_twice(tmp_path, monkeypatch, capsys, counts_in):
    # one conversion for the fit and its linear-inversion seed, one for the
    # bootstrap; a counts file's completeness check reads the keys it collected
    path = tmp_path / "counts.csv"
    argv = ["tomo-sim", "--p", "0.3", "--trials", "2", "--counts", "1000", "--seed", "3"]
    assert main([*argv, "--counts-out", str(path)]) == 0
    calls = []

    def counted(name):
        fn = getattr(entdyn.tomography, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("_arrays", "linear_inversion_state"):
        monkeypatch.setattr(entdyn.tomography, name, counted(name))
    assert main([*argv, *(["--counts-in", str(path)] if counts_in else [])]) == 0
    assert calls == ["_arrays", "_arrays"]
    capsys.readouterr()


def test_counts_in_above_the_limit_names_the_row(tmp_path, capsys):
    records = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=2)
    path = tmp_path / "counts.csv"
    write_counts_csv(records, path)
    lines = path.read_text().splitlines()
    lines[3] = f"H,D,{2 * MAX_COUNT + 1},1000.0"
    path.write_text("\n".join(lines) + "\n")
    assert main(["tomo-sim", "--trials", "2", "--counts-in", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: malformed count record on data row 3" in err
    assert "count: must be <= 2e18" in err


@pytest.mark.parametrize("verb", ["sweep", "pes-sweep"])
@pytest.mark.parametrize("pipeline", ["analytic", "exact"])
def test_unknown_bell_state_exit_1(tmp_path, capsys, verb, pipeline):
    out = tmp_path / "rows.csv"
    argv = [verb, "--pipeline", pipeline, "--p-grid", "0,0.5", "--initial", "bell:nope",
            "--out", str(out)]
    assert main(argv) == 1
    field = "initial.bell" if verb == "sweep" else "initials[0].bell"
    assert capsys.readouterr().err.startswith(f"error: {field}: {BELLS}, got 'nope'")
    assert not out.exists()


def test_tomo_sim_summary_reports_the_fit(tmp_path):
    out = tmp_path / "summary.json"
    code = main(["tomo-sim", "--p", "0.3", "--counts", "1000", "--trials", "2",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["converged"] is True
    assert 1 <= summary["rounds"] < summary["iterations"]
    assert summary["bootstrap_unconverged"] == 0
    assert summary["bootstrap_dropped"] == 0
    assert summary["trials"] == 2


@pytest.mark.parametrize(
    "flags, message",
    [(["--trials", "0"], "pipeline.trials: must be >= 2, got 0"),
     (["--trials", "1"], "pipeline.trials: must be >= 2, got 1"),
     (["--counts", "0"], "pipeline.n_per_setting: must be >= 1, got 0")],
)
def test_tomo_sim_rejects_zero_trials_and_counts(tmp_path, capsys, flags, message):
    out = tmp_path / "summary.json"
    assert main(["tomo-sim", "--p", "0.3", *flags, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["tomo-sim", "--p", "0.3", "--trials", "2"], "pipeline.seed: must be >= 0, got -1"),
     (["sweep", "--pipeline", "shot-noise", "--p-grid", "0.2", "--trials", "2"],
      "pipeline.seed: must be >= 0, got -1"),
     (["characterize", "--family", "isotropic", "--p-grid", "0.2", "--counts", "100"],
      "seed: must be >= 0, got -1")],
)
def test_negative_seed_rejected_naming_the_field(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}\n" == err
    assert not out.exists()


def test_tomo_sim_counts_in_rejects_repeated_and_missing_settings(tmp_path, capsys):
    records = simulate_counts(bell_state("phi+"), standard_settings(), 1000, seed=2)
    repeated = tmp_path / "repeated.csv"
    write_counts_csv(records + records[:3], repeated)
    assert main(["tomo-sim", "--trials", "2", "--counts-in", str(repeated)]) == 1
    assert f"{repeated}: setting HH repeated on data rows 1 and 37" in capsys.readouterr().err

    partial = tmp_path / "partial.csv"
    write_counts_csv(records[:20], partial)
    assert main(["tomo-sim", "--trials", "2", "--counts-in", str(partial)]) == 1
    err = capsys.readouterr().err
    assert f"{partial}: settings are not informationally complete (operator rank" in err
    assert "lacks AD, AA, AR, AL, RH, RV, RD, RA, RR, RL, LH, LV, LD, LA, LR, LL" in err


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTDYN_OUTDIR", str(tmp_path))
    code = main(["sweep", "--p-grid", "0,0.5", "--pipeline", "analytic",
                 "--out", "rows.csv"])
    assert code == 0
    assert (tmp_path / "rows.csv").exists()


def test_selftest_exit_code():
    assert main(["selftest"]) == 0


def test_help_exit_code():
    assert main(["--help"]) == 0
    assert main([]) == 1  # missing sub-command counts as bad usage


def test_cli_import_does_not_load_scipy():
    src = str(Path(entdyn.harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, entdyn.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# Every flag of every verb: option strings -> (dest, action, choices, default,
# type, required). Help text and declaration order are left out on purpose.
_MODES = ("one_sided", "two_sided", "one-sided", "two-sided")
_FAMILIES = ("two-field", "isotropic", "dephasing")
_OUTPUT = {
    ("--out",): ("out", "_StoreAction", None, None, None, False),
    ("--format",): ("format", "_StoreAction", ("csv", "json"), "csv", None, False),
}
_HELP = {("-h", "--help"): ("help", "_HelpAction", None, "==SUPPRESS==", None, False)}
_SWEEP = {
    ("--config",): ("config", "_StoreAction", None, None, None, False),
    ("--counts",): ("counts", "_StoreAction", None, None, "int", False),
    ("--family",): ("family", "_StoreAction", _FAMILIES, None, None, False),
    ("--likelihood",): ("likelihood", "_StoreAction", ("gaussian", "poisson"), None, None, False),
    ("--mode",): ("mode", "_StoreAction", _MODES, None, None, False),
    ("--noisy-qubit",): ("noisy_qubit", "_StoreAction", (0, 1), None, "int", False),
    ("--p-grid",): ("p_grid", "_StoreAction", None, None, None, False),
    ("--p-scale",): ("p_scale", "_StoreAction", None, None, "float", False),
    ("--pipeline",): ("pipeline", "_StoreAction",
                      ("analytic", "exact", "exact_simulation", "shot-noise", "shot_noise"),
                      None, None, False),
    ("--seed",): ("seed", "_StoreAction", None, None, "int", False),
    ("--trials",): ("trials", "_StoreAction", None, None, "int", False),
    **_OUTPUT, **_HELP,
}
CLI_FLAGS = {
    "sweep": {
        **_SWEEP,
        ("--initial",): ("initial", "_StoreAction", None, None, None, False),
    },
    "pes-sweep": {
        **_SWEEP,
        ("--initial",): ("initial", "_AppendAction", None, None, None, False),
    },
    "breaking-points": {**_OUTPUT, **_HELP},
    "characterize": {
        ("--counts",): ("counts", "_StoreAction", None, None, "int", False),
        ("--family",): ("family", "_StoreAction", _FAMILIES, None, None, True),
        ("--p-grid",): ("p_grid", "_StoreAction", None, None, None, False),
        ("--seed",): ("seed", "_StoreAction", None, None, "int", False),
        **_OUTPUT, **_HELP,
    },
    "ellipsoid": {
        ("--channel",): ("channel", "_StoreAction", None, None, None, False),
        ("--family",): ("family", "_StoreAction", _FAMILIES, "isotropic", None, False),
        ("--n-phi",): ("n_phi", "_StoreAction", None, 50, "int", False),
        ("--n-theta",): ("n_theta", "_StoreAction", None, 25, "int", False),
        ("--p",): ("p", "_StoreAction", None, None, "float", False),
        **_OUTPUT, **_HELP,
    },
    "tomo-sim": {
        ("--counts",): ("counts", "_StoreAction", None, None, "int", False),
        ("--counts-in",): ("counts_in", "_StoreAction", None, None, None, False),
        ("--counts-out",): ("counts_out", "_StoreAction", None, None, None, False),
        ("--family",): ("family", "_StoreAction", _FAMILIES, None, None, False),
        ("--initial",): ("initial", "_StoreAction", None, None, None, False),
        ("--likelihood",): ("likelihood", "_StoreAction", ("gaussian", "poisson"), None, None, False),
        ("--mode",): ("mode", "_StoreAction", _MODES, None, None, False),
        ("--out",): ("out", "_StoreAction", None, None, None, False),
        ("--p",): ("p", "_StoreAction", None, 0.0, "float", False),
        ("--seed",): ("seed", "_StoreAction", None, None, "int", False),
        ("--trials",): ("trials", "_StoreAction", None, None, "int", False),
        **_HELP,
    },
    "selftest": {
        ("--full",): ("full", "_StoreTrueAction", None, False, None, False),
        **_HELP,
    },
}


def test_cli_flags_snapshot():
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(verbs.choices) == list(CLI_FLAGS)
    for verb, parser in verbs.choices.items():
        flags = {
            tuple(a.option_strings): (a.dest, type(a).__name__,
                                      None if a.choices is None else tuple(a.choices),
                                      a.default, getattr(a.type, "__name__", None), a.required)
            for a in parser._actions
        }
        assert flags == CLI_FLAGS[verb], verb


def test_vocabulary_flags_offer_the_config_reader_vocabularies():
    # choices come from the reader's vocabularies and alias tables, in the
    # order the snapshot above pins; no vocabulary is spelled out in cli.py
    expected = {"mode": (*MODES, *_MODE_ALIASES),
                "pipeline": tuple(sorted([*PIPELINES, *_PIPELINE_ALIASES])),
                "likelihood": LIKELIHOODS,
                "noisy_qubit": NOISY_QUBITS}
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    offered = {(verb, a.dest): tuple(a.choices)
               for verb, parser in verbs.choices.items() for a in parser._actions if a.dest in expected}
    assert {dest for _, dest in offered} == set(expected)
    for (verb, dest), choices in offered.items():
        assert choices == expected[dest], (verb, dest)
    words = {*MODES, *_MODE_ALIASES, *PIPELINES, *_PIPELINE_ALIASES, *LIKELIHOODS}
    tree = ast.parse(Path(entdyn.cli.__file__).read_text())
    qubit_choices = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            constants = [e.value for e in node.elts if isinstance(e, ast.Constant)]
            spelled = set(constants) & words
            assert not spelled, f"cli.py line {node.lineno} spells out {sorted(spelled)}"
        # the qubits are plain ints, so look at the flag's own choices
        if isinstance(node, ast.Call) and node.args and getattr(node.args[0], "value", None) == "--noisy-qubit":
            qubit_choices += [ast.unparse(k.value) for k in node.keywords if k.arg == "choices"]
    assert qubit_choices == ["NOISY_QUBITS"]


@pytest.mark.parametrize(
    "argv, config, message",
    [(["sweep", "--p-grid", "0:1:x"], None, "p_grid.points: expected int, got 'x'"),
     (["sweep", "--p-grid", "a,b"], None, "p_grid[0]: expected float, got 'a'"),
     (["sweep", "--p-grid", "inf:1:3"], None, "p_grid.start: must be finite, got inf"),
     (["characterize", "--family", "isotropic", "--p-grid", "0:1:x"], None,
      "p_grid.points: expected int, got 'x'"),
     ([], {"initial": {"kind": "bell", "bell": 5}}, f"initial.bell: {BELLS}, got 5"),
     ([], {"initial": {"kind": "pure_pes", "delta": "x"}}, "initial.delta: expected float, got 'x'"),
     ([], {"initials": ["pes:0.1", {"kind": "mixed_pes", "delta": 0.1}]},
      "initials[1].dephasing: missing"),
     ([], {"initials": ["pes:0.1", "pes:x"]}, "initials[1].delta: expected float, got 'x'"),
     ([], {"initials": 5}, "initials: expected a list, got 5"),
     ([], {"initials": "pes:0.1"}, "initials: expected a list, got 'pes:0.1'"),
     ([], {"pipeline": {"trials": "x"}}, "pipeline.trials: expected int, got 'x'"),
     ([], {"pipeline": {"seed": None}}, "pipeline.seed: expected int, got None"),
     ([], {"noisy_qubit": None}, "noisy_qubit: expected int, got None"),
     ([], {"p_scale": [1]}, "p_scale: expected float, got [1]"),
     # initial is checked even when initials is given
     ([], {"initial": {"kind": "pure_pes", "delta": "nan"}, "initials": ["bell:phi+"],
           "pipeline": "exact"}, "initial.delta: must be finite, got nan"),
     (["ellipsoid", "--p", "1.5"], None, "p: value 1.5 outside [0, 1]"),
     (["ellipsoid", "--p", "nan"], None, "p: value nan outside [0, 1]"),
     (["ellipsoid", "--p", "0.2", "--n-theta", "1"], None, "n_theta: must be >= 2, got 1"),
     (["ellipsoid", "--p", "0.2", "--n-phi", "0"], None, "n_phi: must be >= 1, got 0"),
     (["characterize", "--family", "isotropic", "--counts", "0"], None,
      "counts: must be >= 1, got 0"),
     # the examples of docs/config_schema.md
     ([], {"p_grid": [0.0, 0.4, 0.8, 1.2]}, "p_grid[3]: value 1.2 outside [0, 1]"),
     ([], {"pipeline": {"trials": 1}}, "pipeline.trials: must be >= 2, got 1"),
     ([], {"pipeline": {"seed": -1}}, "pipeline.seed: must be >= 0, got -1"),
     ([], {"initials": ["pes:0.1", "pes:nan"]}, "initials[1].delta: must be finite, got nan"),
     ([], {"initial": "bell:nope"}, f"initial.bell: {BELLS}, got 'nope'"),
     ([], {"mode": "x"}, "mode: expected 'one_sided' or 'two_sided', got 'x'"),
     # the reader's own rule for a config that is not a mapping
     ([], [1], "config: expected a mapping, got list"),
     ([], {"noisy_qubit": 2}, "noisy_qubit: expected 0 or 1, got 2"),
     ([], {"pipeline": {"likelihood": "x"}},
      "pipeline.likelihood: expected 'gaussian' or 'poisson', got 'x'"),
     (["sweep", "--p-grid", "0:1"], None, "p_grid: expected start:stop:points, got '0:1'"),
     (["sweep", "--p-grid", "0:1:-1"], None, "p_grid.points: cannot make -1 points"),
     # pes-sweep keys its tables and files by label, so labels must differ
     (["pes-sweep", "--initial", "pes:0.1309", "--initial", "pes:0.13090001", "--format", "json"], None,
      "initials[1]: label 'pure_pes_delta0.1309_phi0' repeats initials[0]"),
     (["pes-sweep", "--initial", "mixed:0.2:0.1", "--initial", "mixed:0.2:0.1000001"], None,
      "initials[1]: label 'mixed_pes_delta0.2_p0.1' repeats initials[0]")],
)
def test_malformed_input_names_the_field(tmp_path, argv, config, message):
    # run as a subprocess, so a traceback would show on stderr
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["sweep", "--config", str(path)]
    src = str(Path(entdyn.harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "entdyn", *argv, "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def _matrix(re):
    """A 2x2 real matrix in the matrix JSON form of channel descriptions."""
    return {"dim": 2, "re": re, "im": [0, 0, 0, 0]}


_EYE = _matrix([1, 0, 0, 1])
_EYE3 = {"dim": 3, "re": [1, 0, 0, 0, 1, 0, 0, 0, 1], "im": [0] * 9}


@pytest.mark.parametrize(
    "channel, message",
    [({"family": "isotropic", "p": None}, "p: float() argument must be"),
     ({"family": "isotropic", "p": "x"}, "p: could not convert string to float: 'x'"),
     ({"family": "isotropic", "p": 1.5}, "p: value 1.5 outside [0, 1]"),
     # chi and radii reach the constructors as read, which word a value numpy cannot read
     ({"family": "pauli", "chi": "abc"}, "chi: chi_diag: expected shape (4,) of numbers, got str\n"),
     ({"family": "pauli", "chi": ["nan", 0.5, 0.25, 0.25]}, "chi: chi_diag: entries must be finite"),
     ({"family": "pauli", "chi": [1.5, 0, 0, -0.5]},
      "chi: chi_diag: must be non-negative, got chi_3 = -0.5\n"),
     ({"family": "unital", "radii": [1, 1, 1], "u": 5,
       "v": {"dim": 2, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}}, "u: malformed matrix object"),
     # a unital channel's rule names the file's key, not the UnitalChannel field
     ({"family": "unital", "radii": [1, 1, 1], "u": _EYE, "v": _matrix([2, 0, 0, 2])},
      "v: matrix is not unitary\n"),
     ({"family": "unital", "radii": [1, 1, 1], "u": _EYE, "v": _matrix([float("nan"), 0, 0, 1])},
      "v: entries must be finite\n"),
     ({"family": "unital", "radii": [1, 1, 1], "u": _matrix([0, 2, 1, 0]), "v": _EYE},
      "u: matrix is not unitary\n"),
     ({"family": "unital", "radii": [1, 1, 1], "u": _matrix([1, 0, 0, float("inf")]), "v": _EYE},
      "u: entries must be finite\n"),
     ({"family": "unital", "radii": [1, 1, -1], "u": _EYE, "v": _EYE}, "radii: not completely positive: "),
     # a pair of rotations that does not stack still names the one at fault
     ({"family": "unital", "radii": [1, 1, 1], "u": _EYE3, "v": _EYE},
      "u: expected shape (2, 2), got (3, 3)\n"),
     ({"family": "unital", "radii": [1, 1, 1], "u": _EYE3, "v": _EYE3},
      "v: expected shape (2, 2), got (3, 3)\n"),
     ({"family": "pauli", "p": 0.2}, "family 'pauli' takes exactly the parameter 'chi'"),
     ({"family": "pauli", "chi": [[0.5, 0.5], [0]]},
      "chi: chi_diag: expected shape (4,) of numbers, got list\n"),
     ({"family": "pauli", "chi": [0.5, "x", 0.5, 0]},
      "chi: chi_diag: expected shape (4,) of numbers, got list\n"),
     ({"family": "unital", "radii": [[1, 1], [1]], "u": _EYE, "v": _EYE},
      "radii: expected shape (3,) of numbers, got list\n")],
)
def test_ellipsoid_channel_file_errors_name_file_and_field(tmp_path, capsys, channel, message):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel))
    assert main(["ellipsoid", "--channel", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: {message}")


def test_ellipsoid_channel_file_invalid_json(tmp_path, capsys):
    path = tmp_path / "channel.json"
    path.write_text("{not json")
    assert main(["ellipsoid", "--channel", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: channel: {path} is not valid JSON (Expecting property name")
