"""The template writers must emit the bytes the standard-library encoders did:
mesh CSV as a ``repr`` join, mesh and table JSON as ``json.dumps(indent=2)``."""

import json
import math

import numpy as np
import pytest

from entdyn.channels import channel_for, channel_to_json
from entdyn.cli import main
from entdyn.dynamics import InitialStateSpec
from entdyn.harness import (
    BreakingPoint,
    CharacterizationRow,
    Pipeline,
    SweepConfig,
    SweepRow,
    _headers,
    _row_cells,
    render,
    render_mesh,
    render_tables,
    run_breaking_points,
    run_channel_characterization,
    run_pes_sweep,
    run_sweep,
)
from entdyn.sampling import random_unital_channel
from entdyn.tomography import ellipsoid_mesh


def mesh_csv_reference(mesh) -> str:
    lines = ["x,y,z"] + [",".join(repr(float(x)) for x in point) for point in mesh]
    return "\n".join(lines) + "\n"


def mesh_json_reference(mesh) -> str:
    return json.dumps([[float(x) for x in point] for point in mesh], indent=2) + "\n"


def _cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def table_json_reference(rows) -> str:
    headers = _headers(rows[0])
    payload = [{k: _cell(v) for k, v in zip(headers, _row_cells(row))} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def named_meshes():
    for family in ("two-field", "isotropic", "dephasing"):
        for p in (0.0, 0.37, 0.75, 1.0):
            yield ellipsoid_mesh(channel_for(family, p), n_theta=9, n_phi=7)


class TestMesh:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_named_families(self, fmt):
        reference = mesh_csv_reference if fmt == "csv" else mesh_json_reference
        for mesh in named_meshes():
            assert render_mesh(mesh, fmt) == reference(mesh)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_random_unital_channels(self, fmt):
        reference = mesh_csv_reference if fmt == "csv" else mesh_json_reference
        rng = np.random.default_rng(5)
        for _ in range(5):
            mesh = ellipsoid_mesh(random_unital_channel(rng), n_theta=11, n_phi=13)
            assert render_mesh(mesh, fmt) == reference(mesh)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_single_azimuth(self, fmt):
        mesh = ellipsoid_mesh(channel_for("two-field", 0.2), n_theta=2, n_phi=1)
        reference = mesh_csv_reference if fmt == "csv" else mesh_json_reference
        assert render_mesh(mesh, fmt) == reference(mesh)

    def test_signed_zero_tiny_and_exponent_forms(self):
        points = np.array([
            [-0.0, 0.0, 6.123233995736766e-17],
            [1e-05, -2.5e-300, 1.5e16],
            [0.1, -0.30000000000000004, 5e-324],
            [1e22, -1e-07, 123456789.0],
        ])
        assert "-0.0" in render_mesh(points, "csv") and "e-17" in render_mesh(points, "json")
        assert render_mesh(points, "csv") == mesh_csv_reference(points)
        assert render_mesh(points, "json") == mesh_json_reference(points)

    def test_non_finite_values_as_json_dumps_writes_them(self):
        points = np.array([[math.nan, math.inf, -math.inf], [0.5, -0.0, 1e-20]])
        assert render_mesh(points, "json") == mesh_json_reference(points)
        assert "NaN" in render_mesh(points, "json")
        assert render_mesh(points, "csv") == mesh_csv_reference(points)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            render_mesh(np.zeros((1, 3)), "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_named_and_channel_file(self, tmp_path, fmt):
        out = tmp_path / f"mesh.{fmt}"
        reference = mesh_csv_reference if fmt == "csv" else mesh_json_reference
        assert main(["ellipsoid", "--family", "dephasing", "--p", "0.3", "--n-theta", "6",
                     "--n-phi", "5", "--format", fmt, "--out", str(out)]) == 0
        mesh = ellipsoid_mesh(channel_for("dephasing", 0.3), n_theta=6, n_phi=5)
        assert out.read_text() == reference(mesh)
        channel = random_unital_channel(np.random.default_rng(11))
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_to_json(channel)))
        assert main(["ellipsoid", "--channel", str(path), "--n-theta", "4", "--n-phi", "1",
                     "--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == reference(ellipsoid_mesh(channel, n_theta=4, n_phi=1))


class TestTables:
    def test_sweep_rows_with_null_and_non_finite_cells(self):
        rows = [
            SweepRow(p=0.0, concurrence=1.0, error=None, predicted=1.0),
            SweepRow(p=0.05, concurrence=math.nan, error=0.0125, predicted=math.inf),
            SweepRow(p=-0.0, concurrence=6.1e-17, error=-math.inf, predicted=1e-05),
        ]
        text = render(rows, "json")
        assert text == table_json_reference(rows)
        assert json.loads(text)[1]["concurrence"] is None

    def test_computed_sweep_tables(self):
        for pipeline in ("analytic", "exact_simulation"):
            rows = run_sweep(SweepConfig(family="isotropic", pipeline=Pipeline(kind=pipeline),
                                         p_grid=tuple(np.linspace(0.0, 1.0, 41))))
            assert render(rows, "json") == table_json_reference(rows)

    def test_breaking_points_with_strings_and_inf(self):
        rows = run_breaking_points() + [
            BreakingPoint(family="dephasing", mode="one_sided", p_star=math.inf),
            BreakingPoint(family='quote"and\\slash é', mode="two_sided", p_star=0.25),
        ]
        text = render(rows, "json")
        assert text == table_json_reference(rows)
        assert json.loads(text)[-2]["p_star"] is None

    def test_characterization_rows(self):
        rows = run_channel_characterization("two-field", p_grid=(0.0, 0.3, 1.0))
        rows.append(CharacterizationRow(p=0.5, chi=(0.5, 0.25, 0.25, -0.0), theory=(
            0.5, 0.25, 0.25, math.nan)))
        assert render(rows, "json") == table_json_reference(rows)

    def test_pes_sweep_tables(self, capsys):
        initials = (InitialStateSpec(kind="pure_pes", delta=0.2),
                    InitialStateSpec(kind="mixed_pes", delta=0.15, dephasing=0.1))
        config = SweepConfig(family="two-field", mode="two_sided", initials=initials,
                             p_grid=tuple(np.linspace(0.0, 1.0, 17)))
        tables = run_pes_sweep(config)
        reference = json.dumps(
            {label: json.loads(table_json_reference(rows))
             for label, rows in sorted(tables.items())},
            indent=2,
        ) + "\n"
        assert render_tables(tables) == reference
        assert main(["pes-sweep", "--family", "two-field", "--mode", "two_sided",
                     "--initial", "pes:0.2", "--initial", "mixed:0.15:0.1",
                     "--p-grid", "0:1:17", "--format", "json"]) == 0
        assert capsys.readouterr().out == reference

    def test_labelled_tables_escape_labels_and_null_cells(self):
        rows = [SweepRow(p=0.5, concurrence=math.nan, error=None, predicted=0.0)]
        tables = {"b": rows, 'a"é': rows}
        reference = json.dumps(
            {k: json.loads(table_json_reference(v)) for k, v in sorted(tables.items())},
            indent=2,
        ) + "\n"
        assert render_tables(tables) == reference
