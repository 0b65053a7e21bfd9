"""Sweep orchestration: concurrence-vs-noise curves, breaking points, channel
characterization tables, and deterministic CSV/JSON emission.

A sweep applies the channel family to the initial state one- or two-sided
over its whole grid of noise probabilities at once, through one of three
pipelines:

* ``analytic``          the closed-form law on the (N, 3) stack of radii,
* ``exact_simulation``  one PTM evolution of the (N, 4, 4) stack of states,
                        then one batched Wootters concurrence (no law),
* ``shot_noise``        per point (:func:`shot_noise_point`, which ``tomo-sim``
                        runs too): Poisson coincidence counts, a maximum-
                        likelihood reconstruction and a bootstrap error.

Every row also carries the analytic prediction so pipelines can be compared
against theory point by point. The prediction is always a closed form: the
paper's one- and two-sided laws for a Bell pair, the factorization law for
one-sided noise on a partially entangled state, and the X-state law
(:func:`~entdyn.dynamics.predict_x_state`) for two-sided noise on one.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .channels import (
    PAULI_FAMILIES,
    apply_one_sided,
    apply_ptm,
    apply_two_sided,
    family_weights,
    pauli_ptm,
    pauli_radii,
)
from .dynamics import (
    MODES,
    InitialStateSpec,
    breaking_point,
    concurrence,
    factorization_prediction,
    make_initial,
    predict_one_sided,
    predict_two_sided,
    predict_x_state,
    wootters,
)
from .states import (
    ConfigError, _check_at_least, _check_choice, _check_finite, _check_mapping, _check_positive,
    _check_probability, _checked, _csv_rows, _field, _known, _read,
)
from .tomography import (
    LIKELIHOODS,
    _arrays,
    _bootstrap,
    _check_count,
    _draw,
    _fit,
    _scan_arrays,
    probe_outputs,
    process_matrices,
    reconstruct_state_mle,
    standard_settings,
)

#: Environment variable naming the default directory for relative output paths.
ENV_OUTDIR = "ENTDYN_OUTDIR"

PIPELINES = ("analytic", "exact_simulation", "shot_noise")

NOISY_QUBITS = (0, 1)

DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(21))


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or produce a usable result."""


class SweepRow(NamedTuple):
    """One row of a sweep table. Rows are named tuples: a table is built
    from its columns by ``SweepRow._make`` and read back with ``zip(*rows)``,
    a row equals the plain tuple of its cells, and ``row._replace(...)``
    gives an edited copy."""

    p: float
    concurrence: float
    error: float | None
    predicted: float


class BreakingPoint(NamedTuple):
    """Entanglement-breaking probability of one family and side (a named
    tuple, as :class:`SweepRow`)."""

    family: str
    mode: str
    p_star: float


class CharacterizationRow(NamedTuple):
    """Process-matrix diagonal vs theory at one noise setting (a named tuple
    whose ``chi`` and ``theory`` cells are tuples of four)."""

    p: float
    chi: tuple
    theory: tuple


def _check_grid(p_grid, increasing: bool = False):
    """A non-empty list of probabilities, strictly increasing if ``increasing``; returns it."""
    if not p_grid:
        raise ConfigError("p_grid: must not be empty")
    for i, p in enumerate(p_grid):
        _check_probability(p, "p_grid", i)
        if increasing and i > 0 and p <= p_grid[i - 1]:
            raise ConfigError(f"p_grid[{i}]: values must be strictly increasing")
    return p_grid


def _evolved_states(config: SweepConfig, spec: InitialStateSpec, p) -> np.ndarray:
    """The initial state of ``spec`` after the family's channel at each noise
    probability in ``p``: one PTM evolution of the whole (..., 4, 4) stack."""
    rho0 = make_initial(spec, noisy_qubit=config.noisy_qubit)
    targets = (config.noisy_qubit,) if config.mode == "one_sided" else (0, 1)
    return apply_ptm(pauli_ptm(family_weights(config.family, p)), rho0, targets)


def _exact(config: SweepConfig, spec: InitialStateSpec, p) -> np.ndarray:
    """Wootters concurrence of the evolved states: a simulation, never a law."""
    return np.maximum(wootters(_evolved_states(config, spec, p))[0], 0.0)


def _law(config: SweepConfig, spec: InitialStateSpec, p) -> np.ndarray:
    """Closed-form concurrence at each noise probability in ``p``: the
    paper's laws for a Bell pair, the factorization law for one-sided noise
    on a partially entangled state (the Bell-pair law times the pure
    state's concurrence |sin 4 delta|), and the X-state law for two-sided
    noise on one. No configuration evolves a state."""
    radii = pauli_radii(family_weights(config.family, p))
    if spec.kind == "bell":
        return (predict_one_sided if config.mode == "one_sided" else predict_two_sided)(radii)
    noisy, phi = radii, spec.phi
    if spec.kind == "mixed_pes":  # the pure state (phi = 0) after its dephasing prep: radii multiply
        noisy, phi = radii * pauli_radii(family_weights("dephasing", spec.dephasing)), 0.0
    if config.mode == "two_sided":
        pair = (noisy, radii) if config.noisy_qubit == 0 else (radii, noisy)
        return predict_x_state(*pair, spec.delta, phi)
    return predict_one_sided(noisy) * abs(math.sin(4.0 * spec.delta))


def analytic_prediction(config: SweepConfig, p, spec: InitialStateSpec):
    """Prediction attached to the sweep row of ``spec`` at ``p`` (to each row
    for an array ``p``).

    ``p_scale`` stretches the prediction's noise axis (theory evaluated at
    p / p_scale) for comparison against figures whose measured breaking point
    sits beyond the ideal one; it never touches simulated values.
    """
    p = np.asarray(p, dtype=float)
    return _law(config, spec, p if config.p_scale is None else np.minimum(1.0, p / config.p_scale))


def shot_noise_point(config: SweepConfig, spec: InitialStateSpec, index: int, records=None):
    """The shot-noise pipeline at grid point ``index``, in one array pass.

    The evolved state's Poisson counts on the 36-setting scan are drawn from
    stream ``(seed, index, 0)`` straight into one integer array, unless
    ``records`` are given, which are converted to arrays once. Those arrays
    are fitted from the linear-inversion seed and resampled from stream
    ``(seed, index, 1)``, by the cores of
    :func:`~entdyn.tomography.reconstruct_state_mle` and
    :func:`~entdyn.tomography.monte_carlo_errors`, and one Wootters call on
    the stack of the fit and its refits gives the fit's concurrence with the
    bootstrap values. No record is built. Returns ``(counts, fit,
    concurrence, estimate)``, with ``counts`` the drawn integer array in the
    scan's order, or None when ``records`` are given; the caller judges
    ``fit.converged``.
    """
    pl = config.pipeline
    counts = None
    if records is None:
        rho = _evolved_states(config, spec, config.p_grid[index])
        counts = _draw(rho, pl.n_per_setting, (pl.seed, index, 0))
        arrays = _scan_arrays(counts, pl.n_per_setting)
    else:
        arrays = _arrays(records)
    fit = _fit(pl.likelihood, *arrays)
    c, estimate = _bootstrap(pl.likelihood, *arrays, fit.rho_hat, pl.trials, (pl.seed, index, 1))
    return counts, fit, c, estimate


def _sweep_rows(config: SweepConfig, spec: InitialStateSpec) -> list[SweepRow]:
    p = np.asarray(config.p_grid, dtype=float)
    pl = config.pipeline
    errors = [None] * p.size
    if pl.kind == "analytic":
        values = _law(config, spec, p)
    elif pl.kind == "exact_simulation":
        values = _exact(config, spec, p)
    else:
        values = []
        for i in range(p.size):
            _, fit, c, estimate = shot_noise_point(config, spec, i)
            if not fit.converged:
                raise NumericalError(f"p_grid[{i}]: likelihood fit did not converge "
                                     f"({fit.iterations} evaluations, {fit.rounds} Newton steps)")
            values.append(c)
            errors[i] = estimate.std_dev
    reuse = pl.kind == "analytic" and config.p_scale is None
    predicted = values if reuse else analytic_prediction(config, p, spec)
    cells = zip(p.tolist(), np.asarray(values, dtype=float).tolist(), errors, predicted.tolist())
    return list(map(SweepRow._make, cells))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Concurrence versus noise probability for one initial state."""
    return _sweep_rows(config, config.initial)


def run_pes_sweep(config: SweepConfig) -> dict[str, list[SweepRow]]:
    """Sweeps for a set of partially-entangled initial states, keyed by label.

    Uses ``config.initials`` when given, else the single ``config.initial``.
    Pure PES rows get factorization-law predictions, mixed PES rows the
    composed-channel law.
    """
    specs = config.initials if config.initials else (config.initial,)
    return {spec.label(): _sweep_rows(config, spec) for spec in specs}


def run_breaking_points() -> list[BreakingPoint]:
    """Entanglement-breaking probability for each family/side combination."""
    out = []
    for family in ("two-field", "isotropic"):
        for mode in MODES:
            out.append(BreakingPoint(family=family, mode=mode, p_star=breaking_point(family, mode)))
    return out


def run_channel_characterization(
    family: str,
    p_grid,
    n_per_probe: int | None = None,
    seed: int = 0,
) -> list[CharacterizationRow]:
    """Reconstructed process-matrix diagonal against theory over a noise grid.

    The grid is one stack, as in sweeps: the family's weights at every p give
    the (N, 4, 4) Pauli-transfer matrices, which map the four probe inputs
    (:func:`~entdyn.tomography.probe_outputs`), and one batched linear
    inversion reconstructs all N process matrices
    (:func:`~entdyn.tomography.process_matrices`), warning once per
    projected estimate. Probe outputs are exact unless ``n_per_probe``
    switches on shot noise; grid point i then draws its counts from stream
    ``(seed, i)``, ``seed`` an int by the config reader's rule. For these channels
    the process matrix is diagonal in the Pauli basis: its eigenvalue curves.
    """
    _check_choice(family, PAULI_FAMILIES, "family")
    seed = _checked(seed, int, "seed", _check_at_least, 0)
    p = np.asarray(_check_grid(list(p_grid)), dtype=float)
    weights = family_weights(family, p)
    seeds = None if n_per_probe is None else [(seed, i) for i in range(p.size)]
    outputs = probe_outputs(pauli_ptm(weights), n_per_projector=n_per_probe, seeds=seeds)
    chi = process_matrices(outputs)
    diagonals = np.diagonal(chi, axis1=1, axis2=2).real
    return [
        CharacterizationRow(p=x, chi=tuple(d), theory=tuple(t))
        for x, d, t in zip(p.tolist(), diagonals.tolist(), weights.tolist())
    ]


# ---------------------------------------------------------------------------
# Emission


#: Column headers of each row type, and the flattener of a row type whose
#: cells are not its fields (``None`` where the row is its own cells).
_LAYOUTS = {
    SweepRow: (SweepRow._fields, None),
    BreakingPoint: (BreakingPoint._fields, None),
    CharacterizationRow: (
        ("p", "chi_0", "chi_1", "chi_2", "chi_3", "theory_0", "theory_1", "theory_2", "theory_3"),
        lambda row: (row.p, *row.chi, *row.theory),
    ),
}


def _columns(rows) -> tuple[tuple, list]:
    """Headers and cell columns of a non-empty table of one row type."""
    kinds = set(map(type, rows))
    if len(kinds) != 1 or type(rows[0]) not in _LAYOUTS:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise ValueError(f"cannot emit rows of type {names}")
    headers, cells = _LAYOUTS[type(rows[0])]
    return headers, list(zip(*(rows if cells is None else map(cells, rows))))


def _cell_csv(value) -> str:
    """A cell as csv.writer writes it in a row: empty for None, a float by
    ``float.__repr__`` (so ``np.float64(0.5)`` is ``0.5`` and -inf is
    ``-inf``), anything else as its ``str``, quoted by csv's rules. The
    writer's line terminator is CR LF so that a carriage return is quoted
    like a newline; unquoted, it would split the row on reading."""
    if value is None:
        return ""
    if isinstance(value, float):
        return float.__repr__(value)
    text = str(value)
    if not text:
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text,))
    return buf.getvalue()[:-2]


def _cell_json(value) -> str:
    """A cell as json.dumps writes it, with None and non-finite floats as null."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    return "null" if value is None else json.dumps(value)


def _fields(columns, null: str, cell) -> tuple[list[str], list]:
    """Template field of each column and the columns of values that fill them.

    A column of finite Python floats fills a ``%r`` field as it is (a
    column whose sum overflows takes the cell path, to the same text), an
    all-None column is the literal ``null`` and fills nothing, and any other
    column is written cell by cell with ``cell`` into a ``%s`` field.
    """
    fields, values = [], []
    for column in columns:
        if set(map(type, column)) == {float} and math.isfinite(sum(column)):
            fields.append("%r")
            values.append(column)
        elif column.count(None) == len(column):
            fields.append(null)
        else:
            fields.append("%s")
            values.append(list(map(cell, column)))
    return fields, values


def _fill(row_template: str, separator: str, values: list, n_rows: int) -> str:
    """``n_rows`` copies of ``row_template`` joined by ``separator``, filled
    row by row from the value columns."""
    return separator.join([row_template] * n_rows) % tuple(chain.from_iterable(zip(*values)))


def _json_rows(rows, indent: str = "") -> str:
    """The JSON array of row objects that ``json.dumps(..., indent=2)`` writes
    when the array sits ``indent`` deep, from one fixed per-row template."""
    headers, columns = _columns(rows)
    fields, values = _fields(columns, "null", _cell_json)
    body = ",\n".join(f"{indent}    {json.dumps(h)}: {f}" for h, f in zip(headers, fields))
    template = f"{indent}  {{\n{body}\n{indent}  }}"
    objects = _fill(template, ",\n", values, len(rows))
    return f"[\n{objects}\n{indent}]"


def render(rows, format: str = "csv") -> str:
    """Deterministic text rendering of a row table (same input, same bytes).

    Both formats fill one per-row ``%`` template over the table's columns
    (see :func:`_fields`). CSV is what ``csv.writer`` writes under the
    header with every float cell as ``float.__repr__`` writes it (``inf``,
    ``-inf`` and ``nan`` included) and ``None`` as an empty cell. JSON is a
    list of objects keyed by the CSV header, laid out as
    ``json.dumps(..., indent=2)`` lays it out (floats by ``repr``; ``None``
    and non-finite floats as ``null``).
    """
    rows = list(rows)
    if not rows:
        raise ValueError("rows must be non-empty")
    if format == "csv":
        headers, columns = _columns(rows)
        fields, values = _fields(columns, "", _cell_csv)
        return ",".join(headers) + "\n" + _fill(",".join(fields) + "\n", "", values, len(rows))
    if format == "json":
        return _json_rows(rows) + "\n"
    _check_choice(format, ("csv", "json"), "format")  # raises: it is neither


def render_tables(tables: dict) -> str:
    """JSON object of row tables keyed by label, in sorted label order, laid
    out as ``json.dumps(..., indent=2)`` lays it out (see :func:`render`)."""
    items = ",\n".join(
        f"  {json.dumps(label)}: {_json_rows(rows, '  ')}"
        for label, rows in sorted(tables.items())
    )
    return f"{{\n{items}\n}}\n"


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def render_mesh(points, format: str = "csv") -> str:
    """Text of an (n, 3) array of points: CSV rows ``x,y,z`` under that
    header, or the JSON array of ``[x, y, z]`` triples exactly as
    ``json.dumps(..., indent=2)`` writes it (non-finite values as its
    ``NaN``/``Infinity``/``-Infinity`` tokens). Both fill one template with
    each coordinate's ``repr``, without the pure-Python JSON encoder.

    ``float.__repr__`` is most of the cost, so when at least a quarter of
    the coordinates repeat, each distinct one is formatted once and the
    template is filled with its text through the inverse index. Repeats are
    found by IEEE bit pattern, not by value: ``-0.0`` and ``0.0`` are equal
    floats that print differently. The cutoff comes from the
    per-coordinate costs: a ``repr`` fill costs ~0.6 µs per coordinate, and
    the deduplicated one ~0.08 µs per coordinate (``np.unique``, the gather
    and the fill of ready text) plus ~0.56 µs per distinct value, which
    breaks even near 85–90% distinct. A Pauli channel's mesh is at most 53%
    distinct at 25 x 50 and 50% at 50 x 100 (its z column takes one value
    per θ row, and mirror rows repeat x and y); a random unital channel's is
    92–97%. A cutoff at 75% sits below break-even and clear of both. The
    guard is a sort and a diff (~0.1 ms per 15,000 coordinates), not a bare
    ``np.unique``, which numpy 2.4 runs on a slower hash path.
    """
    points = np.ascontiguousarray(points, dtype=float).reshape(-1, 3)
    bits = points.ravel().view(np.int64)
    distinct = 1 + np.count_nonzero(np.diff(np.sort(bits)))
    if 4 * distinct <= 3 * bits.size:
        keys, index = np.unique(bits, return_inverse=True)
        keys = keys.view(float)
        texts = list(map(repr, keys.tolist()))
        if format == "json" and not np.isfinite(keys).all():
            texts = [_JSON_NON_FINITE.get(t, t) for t in texts]
        values = np.array(texts, dtype=object)[index]
    else:
        values = points.ravel().tolist()
        if format == "json" and not np.isfinite(points).all():
            values = [_JSON_NON_FINITE.get(repr(x), x) for x in values]
    if format == "csv":
        return "x,y,z\n" + "%s,%s,%s\n" * len(points) % tuple(values)
    if format == "json":
        template = ",\n".join(["  [\n    %s,\n    %s,\n    %s\n  ]"] * len(points))
        return f"[\n{template % tuple(values)}\n]\n"
    _check_choice(format, ("csv", "json"), "format")  # raises: it is neither


def read_rows(path, format: str = "json") -> list[SweepRow]:
    """Read sweep rows back from a file of :func:`render` text; a JSON
    ``null`` or an empty CSV cell in the ``error`` column reads as ``None``.
    Cells are read by the config reader's rules (a CSV table by
    :func:`states._csv_rows`, which refuses a row whose cells do not match
    the header); a malformed table is a ConfigError naming the file, data
    row and cell (``t.json: data row 2: error: missing``, ``junk: unknown field``)."""
    if format == "json":
        with open(path) as fh:
            records, null = json.load(fh), None
        if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
            raise ConfigError(f"{path}: expected a list of row objects")
    elif format == "csv":
        records, null = _csv_rows(path), ""
    else:
        _check_choice(format, ("csv", "json"), "format")  # raises: it is neither
    rows = []
    for i, r in enumerate(records, start=1):
        prefix = f"{path}: data row {i}: "
        _known(r, SweepRow._fields, prefix)
        cells = (None if name == "error" and name in r and r[name] == null else _read(r, name, float, prefix)
                 for name in SweepRow._fields)
        rows.append(SweepRow._make(cells))
    return rows


# ---------------------------------------------------------------------------
# Configuration: one path for config files, flags and library calls


#: Fields of each initial-state kind in compact-string order; a config must
#: give those of ``_INITIAL_REQUIRED``, the others take the class's defaults.
_INITIAL_FIELDS = {"bell": ("bell",), "pure_pes": ("delta", "phi"), "mixed_pes": ("delta", "dephasing")}
_INITIAL_REQUIRED = ("delta", "dephasing")
_INITIAL_ALIASES = {"pes": "pure_pes", "mixed": "mixed_pes"}
_PIPELINE_ALIASES = {"exact": "exact_simulation", "shot-noise": "shot_noise"}
_MODE_ALIASES = {"one-sided": "one_sided", "two-sided": "two_sided"}


def _word(value, path: str, choices: tuple, aliases: dict) -> str:
    """A str of ``choices``, or a shorthand for one in ``aliases``."""
    word = _field(value, str, path)
    return _checked(aliases.get(word, word), str, path, _check_choice, choices)


@dataclass(frozen=True)
class Pipeline:
    """How a sweep computes its concurrence column, each field read and checked when
    built by the config file's rule for it (``pipeline.trials: expected int, got 2.5``)."""

    kind: str = "analytic"
    n_per_setting: int = 10_000
    trials: int = 50
    seed: int = 0
    likelihood: str = "gaussian"

    def __post_init__(self):
        vars(self).update(
            kind=_word(self.kind, "pipeline.kind", PIPELINES, _PIPELINE_ALIASES),
            n_per_setting=_checked(self.n_per_setting, int, "pipeline.n_per_setting", _check_count),
            trials=_checked(self.trials, int, "pipeline.trials", _check_at_least, 2),
            seed=_checked(self.seed, int, "pipeline.seed", _check_at_least, 0),
            likelihood=_checked(self.likelihood, str, "pipeline.likelihood", _check_choice, LIKELIHOODS))


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's settings, each field read and checked when the config is built
    (directly, by ``dataclasses.replace`` or by :func:`sweep_config_from_dict`)
    by the config file's rule for it, so it takes a file's shapes (``initial="bell:phi+"``,
    ``pipeline="exact"``). A ConfigError names the first bad field (``initials[1].delta``)."""

    family: str = "isotropic"
    mode: str = "one_sided"
    initial: InitialStateSpec = InitialStateSpec(kind="bell")
    p_grid: tuple = DEFAULT_P_GRID
    pipeline: Pipeline = Pipeline()
    noisy_qubit: int = 1
    p_scale: float | None = None
    initials: tuple | None = None  # extra initial states for PES sweeps

    def __post_init__(self):
        scale = self.p_scale
        vars(self).update(
            family=_checked(self.family, str, "family", _check_choice, PAULI_FAMILIES),
            mode=_word(self.mode, "mode", MODES, _MODE_ALIASES),
            initial=initial_spec_from(self.initial),
            p_grid=_check_grid(p_grid_from(self.p_grid), increasing=True),
            pipeline=pipeline_from(self.pipeline),
            noisy_qubit=_checked(self.noisy_qubit, int, "noisy_qubit", _check_choice, NOISY_QUBITS),
            p_scale=None if scale is None else _checked(scale, float, "p_scale", _check_positive),
            initials=_initials(self.initials))


def initial_spec_from(obj, path: str = "initial") -> InitialStateSpec:
    """A given :class:`InitialStateSpec` as it is (it checked its fields when built), or one
    built from a mapping of its fields or a compact string read as that mapping (``bell:phi+``,
    ``pes:<delta>[:<phi>]``, ``mixed:<delta>:<p>``), which must give its kind's required
    fields and no others. Errors name ``path`` (``initials[1].dephasing: missing``)."""
    if isinstance(obj, InitialStateSpec):
        return obj
    prefix = f"{path}."
    if isinstance(obj, str):
        kind, *values = obj.split(":")
        kind = _INITIAL_ALIASES.get(kind, kind)
        if kind in _INITIAL_FIELDS and len(values) > len(_INITIAL_FIELDS[kind]):
            raise ConfigError(f"{path}: too many fields in {obj!r}")
        obj = {"kind": kind, **dict(zip(_INITIAL_FIELDS.get(kind, ()), values))}
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping or string, got {type(obj).__name__}")
    kind = obj.get("kind")
    _check_choice(kind, tuple(_INITIAL_FIELDS), prefix + "kind")
    _known(obj, ("kind", *_INITIAL_FIELDS[kind]), prefix)
    for name in _INITIAL_FIELDS[kind]:
        if name in _INITIAL_REQUIRED and name not in obj:
            raise ConfigError(f"{prefix}{name}: missing")
    try:
        return InitialStateSpec(**obj)
    except ConfigError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def p_grid_from(obj) -> tuple:
    """A noise grid as floats, from a list (tuple, array) of values or a ``{start, stop,
    points}`` range; errors name the field (``p_grid[2]``, ``p_grid.points``)."""
    if isinstance(obj, dict):
        _known(obj, ("start", "stop", "points"), "p_grid.")
        start, stop = (_read(obj, name, float, "p_grid.") for name in ("start", "stop"))
        points = _read(obj, "points", int, "p_grid.")
        _check_finite(start, "p_grid.start")
        _check_finite(stop, "p_grid.stop")
        try:
            return tuple(np.linspace(start, stop, points).tolist())
        except (ValueError, MemoryError) as exc:
            raise ConfigError(f"p_grid.points: cannot make {points} points ({exc})") from None
    if isinstance(obj, (list, tuple, np.ndarray)):
        return tuple(_field(obj, list, "p_grid"))
    raise ConfigError(f"p_grid: expected a list or a {{start, stop, points}} range, got {obj!r}")


def pipeline_from(obj) -> Pipeline:
    """A :class:`Pipeline` as given, or built from a mapping of its fields or
    a kind string (``"exact"``)."""
    if isinstance(obj, Pipeline):
        return obj
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict):
        raise ConfigError(f"pipeline: expected a mapping or string, got {type(obj).__name__}")
    _known(obj, Pipeline.__dataclass_fields__, "pipeline.")
    return Pipeline(**obj)


def _initials(obj) -> tuple | None:
    """Initial states, None if none, whose labels differ: PES tables are keyed by label."""
    if obj is None:
        return None
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"initials: expected a list, got {obj!r}")
    specs = tuple(initial_spec_from(x, f"initials[{i}]") for i, x in enumerate(obj))
    labels = [spec.label() for spec in specs]
    for i, label in enumerate(labels):
        if labels.index(label) < i:
            raise ConfigError(f"initials[{i}]: label {label!r} repeats initials[{labels.index(label)}]")
    return specs or None


def sweep_config_from_dict(obj: dict) -> SweepConfig:
    """``SweepConfig(**obj)`` of a mapping whose keys all name fields: files, flags and calls share it."""
    _check_mapping(obj, "config")
    _known(obj, SweepConfig.__dataclass_fields__, "")
    return SweepConfig(**obj)


# ---------------------------------------------------------------------------
# Self-test battery (quick versions of the verification suite)


def run_selftest(fast: bool = True) -> list[tuple[str, bool, str]]:
    """Run the property battery on random draws from one fixed seed; returns
    (name, passed, detail) triples. ``fast`` runs the quick sample sizes."""
    from .dynamics import lambda_two_sided, predict_two_sided_unital
    from .sampling import random_pauli_channel, random_pure_ket, random_unital_channel
    from .states import bell_state, fidelity
    from .tomography import CountRecord, born_probability

    rng = np.random.default_rng(20260808)
    results = []

    def check(name, passed, detail=""):
        results.append((name, bool(passed), detail))

    bell = bell_state("phi_plus")
    p = 0.05 * np.arange(21)
    worst = max(
        np.max(np.abs(_exact(c, c.initial, p) - np.maximum(1.0 - 2.0 * p, 0.0)))
        for c in (SweepConfig(family="two-field"), SweepConfig(family="isotropic"))
    )
    check("one-sided law on Bell pair", worst < 1e-9, f"max deviation {worst:.2e}")

    n = 100 if fast else 1000
    worst = 0.0
    for _ in range(n):
        channel = random_pauli_channel(rng)
        lam = np.sort(lambda_two_sided(channel))[::-1]
        num = concurrence(apply_two_sided(channel, bell)).lambdas
        worst = max(worst, float(np.max(np.abs(lam - num))))
    check("two-sided spectrum closed form", worst < 1e-10, f"max deviation {worst:.2e} over {n}")

    expected = {
        ("two-field", "one_sided"): 0.5,
        ("two-field", "two_sided"): 1.0 / 3.0,
        ("isotropic", "one_sided"): 0.5,
        ("isotropic", "two_sided"): (3.0 - math.sqrt(3.0)) / 4.0,
    }
    worst = max(
        abs(bp.p_star - expected[(bp.family, bp.mode)]) for bp in run_breaking_points()
    )
    check("breaking points", worst < 1e-6, f"max deviation {worst:.2e}")

    n = 10_000 if fast else 100_000
    samples = rng.uniform(-1.0, 1.0, size=(n, 3))
    from .channels import chi_from_radii, is_completely_positive

    disagreements = sum(
        is_completely_positive(r) != (chi_from_radii(r).min() >= -1e-12) for r in samples
    )
    check("CP tetrahedron vs chi oracle", disagreements == 0, f"{disagreements} disagreements in {n}")

    n = 10 if fast else 100
    worst = 0.0
    for _ in range(n):
        psi = random_pure_ket(rng, 4)
        channel = random_pauli_channel(rng)
        rho0 = np.outer(psi, psi.conj())
        direct = concurrence(apply_one_sided(channel, rho0, target=1)).c
        worst = max(worst, abs(factorization_prediction(rho0, channel) - direct))
    check("factorization law", worst < 1e-9, f"max deviation {worst:.2e} over {n} pairs")

    n = 100 if fast else 1000
    bells = {name: bell_state(name) for name in ("phi_plus", "phi_minus", "psi_plus", "psi_minus")}
    worst_eq, worst_bound, worst_law = 0.0, -1.0, 0.0
    for _ in range(n):
        channel = random_unital_channel(rng)
        pred = predict_two_sided(channel.radii)
        c = {name: concurrence(apply_two_sided(channel, rho)).c for name, rho in bells.items()}
        worst_eq = max(worst_eq, abs(c["psi_minus"] - pred))
        worst_bound = max(worst_bound, c["phi_plus"] - pred)
        worst_law = max(worst_law, *(abs(predict_two_sided_unital(channel, name) - c[name])
                                     for name in bells))
    check("singlet equality", worst_eq < 1e-9, f"max deviation {worst_eq:.2e}")
    check("two-sided upper bound", worst_bound <= 1e-10, f"max excess {worst_bound:.2e}")
    check("two-sided unital law", worst_law < 1e-9,
          f"max deviation {worst_law:.2e} over {n} channels x 4 Bell states")

    n_counts = 2000
    records = [
        CountRecord(s, int(round(n_counts * born_probability(bell, s))), float(n_counts))
        for s in standard_settings()
    ]
    fid = min(fidelity(reconstruct_state_mle(records, likelihood).rho_hat, bell)
              for likelihood in LIKELIHOODS)
    check("tomography reconstruction", fid > 0.999, f"noiseless fidelity {fid:.6f}")

    return results
