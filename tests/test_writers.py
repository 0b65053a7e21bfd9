"""The template writers must emit the bytes the standard-library encoders did:
mesh CSV as a ``repr`` join, table CSV as ``csv.writer`` with float cells by
``float.__repr__``, mesh and table JSON as ``json.dumps(indent=2)``."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdyn.channels import channel_for, channel_to_json
from entdyn.cli import main
from entdyn.dynamics import InitialStateSpec
from entdyn.harness import (
    BreakingPoint,
    CharacterizationRow,
    Pipeline,
    SweepConfig,
    SweepRow,
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


def lines(text) -> list[str]:
    """Text as a list of lines, which pytest compares line by line without
    diffing the whole text when long outputs differ."""
    return text.splitlines(keepends=True)


def layout(row) -> tuple[list, list]:
    """Header and cells of a row, as docs/file_formats.md lists the columns."""
    if isinstance(row, SweepRow):
        return ["p", "concurrence", "error", "predicted"], [
            row.p, row.concurrence, row.error, row.predicted]
    if isinstance(row, BreakingPoint):
        return ["family", "mode", "p_star"], [row.family, row.mode, row.p_star]
    headers = ["p"] + [f"chi_{i}" for i in range(4)] + [f"theory_{i}" for i in range(4)]
    return headers, [row.p, *row.chi, *row.theory]


def _cell(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def table_json_payload(rows) -> list:
    return [{k: _cell(v) for k, v in zip(*layout(row))} for row in rows]


def table_json_reference(rows) -> str:
    return json.dumps(table_json_payload(rows), indent=2) + "\n"


def tables_json_reference(tables) -> str:
    payload = {label: table_json_payload(rows) for label, rows in sorted(tables.items())}
    return json.dumps(payload, indent=2) + "\n"


def table_csv_reference(rows) -> str:
    """Each row as csv.writer writes it under a CR LF terminator (which
    quotes a carriage return as well as a newline), ended by LF."""
    lines = [layout(rows[0])[0]]
    lines += [[float.__repr__(v) if isinstance(v, float) else v for v in layout(row)[1]]
              for row in rows]
    out = []
    for line in lines:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(line)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def table_csv_cells(rows) -> list[list[str]]:
    """The cells a CSV reader must get back: the header, then each cell as
    text, a float by ``float.__repr__`` and None as empty."""
    def text(v):
        return "" if v is None else float.__repr__(v) if isinstance(v, float) else str(v)

    return [layout(rows[0])[0]] + [[text(v) for v in layout(row)[1]] for row in rows]


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
    @pytest.mark.parametrize("size", [(50, 100), (25, 50)], ids=["50x100", "25x50"])
    def test_named_families_at_benchmark_and_default_sizes(self, fmt, size):
        # mostly repeated coordinates: these take the deduplicated fill
        reference = mesh_csv_reference if fmt == "csv" else mesh_json_reference
        for family in ("two-field", "isotropic", "dephasing"):
            for p in (0.0, 0.25, 0.75, 1.0):
                mesh = ellipsoid_mesh(channel_for(family, p), *size)
                assert lines(render_mesh(mesh, fmt)) == lines(reference(mesh))

    def test_repeated_special_values_keep_their_bits(self):
        # -0.0 and 0.0 are equal floats with different text, so repeats are
        # keyed by bit pattern; 8 distinct values in 6000 take the deduplicated fill
        block = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 6.123233995736766e-17, 1e16]
        points = np.tile(block, 750).reshape(2000, 3)
        assert lines(render_mesh(points, "csv")) == lines(mesh_csv_reference(points))
        assert lines(render_mesh(points, "json")) == lines(mesh_json_reference(points))

    def test_repeat_share_of_named_and_random_meshes(self):
        # the input property the fill's 75%-distinct cutoff reads
        def distinct(mesh):
            return len(np.unique(mesh.ravel().view(np.int64))) / mesh.size

        for size in ((50, 100), (25, 50)):
            for family in ("two-field", "isotropic", "dephasing"):
                for p in (0.0, 0.25, 0.37, 0.75, 1.0):
                    assert distinct(ellipsoid_mesh(channel_for(family, p), *size)) <= 0.55
        rng = np.random.default_rng(21)
        for i in range(20):
            size = ((50, 100), (25, 50))[i % 2]
            assert distinct(ellipsoid_mesh(random_unital_channel(rng), *size)) >= 0.9

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
        reference = tables_json_reference(tables)
        assert render_tables(tables) == reference
        assert main(["pes-sweep", "--family", "two-field", "--mode", "two_sided",
                     "--initial", "pes:0.2", "--initial", "mixed:0.15:0.1",
                     "--p-grid", "0:1:17", "--format", "json"]) == 0
        assert capsys.readouterr().out == reference

    def test_labelled_tables_escape_labels_and_null_cells(self):
        rows = [SweepRow(p=0.5, concurrence=math.nan, error=None, predicted=0.0)]
        tables = {"b": rows, 'a"é': rows}
        assert render_tables(tables) == tables_json_reference(tables)

    def test_csv_float_cells_by_float_repr(self):
        rows = [
            SweepRow(p=np.float64(0.5), concurrence=-math.inf, error=np.float64(0.25),
                     predicted=math.inf),
            SweepRow(p=0.75, concurrence=math.nan, error=None, predicted=np.float64(-0.0)),
        ]
        text = render(rows, "csv")
        assert text == "p,concurrence,error,predicted\n0.5,-inf,0.25,inf\n0.75,nan,,-0.0\n"
        assert text == table_csv_reference(rows)
        assert render(rows, "json") == table_json_reference(rows)

    def test_mixed_or_unknown_row_types_rejected(self):
        rows = [SweepRow(p=0.0, concurrence=1.0, error=None, predicted=1.0),
                BreakingPoint(family="isotropic", mode="one_sided", p_star=0.5)]
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="cannot emit rows of type"):
                render(rows, fmt)
            with pytest.raises(ValueError, match="cannot emit rows of type"):
                render([object()], fmt)


# Cells a table may hold: finite and non-finite floats, -0.0, subnormals,
# numpy float64 scalars, None and (for the string columns) text with the
# characters CSV quotes.
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e16, 1e-5]),
)
_CELL_FLOATS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r%\\é\u2603')) | st.characters(),
                max_size=8)


@st.composite
def _column(draw, n_rows, cells):
    """One column: finite Python floats only, all None, None mixed with other
    cells, or any cells."""
    kind = draw(st.sampled_from(["finite", "none", "mixed", "any"]))
    if kind == "finite":
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=n_rows, max_size=n_rows))
    if kind == "none":
        return [None] * n_rows
    if kind == "mixed":
        cells = st.one_of(st.none(), cells)
    return draw(st.lists(cells, min_size=n_rows, max_size=n_rows))


@st.composite
def tables(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([SweepRow, BreakingPoint, CharacterizationRow]))
    if kind is SweepRow:
        p, c, e, y = (draw(_column(n, _CELL_FLOATS)) for _ in range(4))
        return [SweepRow(*cells) for cells in zip(p, c, e, y)]
    if kind is BreakingPoint:
        family, mode = (draw(_column(n, _TEXT)) for _ in range(2))
        p_star = draw(_column(n, _CELL_FLOATS))
        return [BreakingPoint(*cells) for cells in zip(family, mode, p_star)]
    columns = [draw(_column(n, _CELL_FLOATS)) for _ in range(9)]
    return [CharacterizationRow(p=cells[0], chi=cells[1:5], theory=cells[5:])
            for cells in zip(*columns)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tables())
def test_render_matches_csv_writer_and_json_dumps(rows):
    text = render(rows, "csv")
    assert text == table_csv_reference(rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == table_csv_cells(rows)
    assert render(rows, "json") == table_json_reference(rows)


def test_carriage_return_cell_reads_back():
    rows = [BreakingPoint(family="r\rx", mode="one_sided", p_star=0.5)]
    text = render(rows, "csv")
    assert text == 'family,mode,p_star\n"r\rx",one_sided,0.5\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == table_csv_cells(rows)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.dictionaries(_TEXT, tables(), min_size=1, max_size=3))
def test_render_tables_matches_json_dumps(tables_by_label):
    assert render_tables(tables_by_label) == tables_json_reference(tables_by_label)
