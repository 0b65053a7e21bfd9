"""Command-line interface.

Verbs: sweep, pes-sweep, breaking-points, characterize, ellipsoid, tomo-sim,
selftest. Each verb reads an optional JSON config file (--config) and applies
command-line flags on top (flags win). Output goes to --out, or to stdout
when --out is omitted; relative output paths are resolved against the
directory named by the ENTDYN_OUTDIR environment variable when it is set.

Exit codes: 0 success, 1 bad configuration or input, 2 numerical failure
(non-convergence or a failed self-test), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .channels import PAULI_FAMILIES, channel_for, channel_from_json
from .dynamics import MODES, concurrence
from .harness import (
    _MODE_ALIASES,
    _PIPELINE_ALIASES,
    ENV_OUTDIR,
    NOISY_QUBITS,
    PIPELINES,
    ConfigError,
    NumericalError,
    analytic_prediction,
    p_grid_from,
    render,
    render_mesh,
    render_tables,
    run_breaking_points,
    run_channel_characterization,
    run_pes_sweep,
    run_selftest,
    run_sweep,
    shot_noise_point,
    sweep_config_from_dict,
)
from .states import _check_mapping, _check_probability, matrix_to_json, purity
from .tomography import LIKELIHOODS, _check_count, ellipsoid_mesh, read_counts_csv, write_counts_csv


def _resolve_out(path: str | None) -> Path | None:
    """``path`` under ``$ENTDYN_OUTDIR`` when that is set; an absolute path stays as it is."""
    return None if path is None else Path(os.environ.get(ENV_OUTDIR, "")) / path


def _write_or_print(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _read_json(path: str, name: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: {path} is not valid JSON ({exc})") from exc


def _load_config_file(path: str | None) -> dict:
    obj = {} if path is None else _read_json(path, "config")
    _check_mapping(obj, "config")
    return obj


def _parse_grid_flag(text: str):
    """``--p-grid`` text split into the config file's own ``p_grid`` shapes:
    ``start:stop:points`` as a range mapping, a comma list as a list. The
    values stay text for :func:`~entdyn.harness.p_grid_from` to convert."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"p_grid: expected start:stop:points, got {text!r}")
        return dict(zip(("start", "stop", "points"), parts))
    return [x for x in text.split(",") if x.strip()]


def _sweep_config_from_args(args, **fixed):
    """The ``--config`` file's mapping (for verbs that take one) with the
    verb's ``fixed`` fields and then its flags on top, read as one config."""
    obj = {**_load_config_file(getattr(args, "config", None)), **fixed}
    if getattr(args, "p_grid", None) is not None:
        obj["p_grid"] = _parse_grid_flag(args.p_grid)
    for name in ("family", "mode", "noisy_qubit", "p_scale"):
        if getattr(args, name, None) is not None:
            obj[name] = getattr(args, name)
    if args.initial:  # pes-sweep's repeatable flag gives a list
        obj["initials" if isinstance(args.initial, list) else "initial"] = args.initial
    flags = (("kind", getattr(args, "pipeline", None)), ("n_per_setting", args.counts),
             ("trials", args.trials), ("seed", args.seed), ("likelihood", args.likelihood))
    flags = {name: value for name, value in flags if value is not None}
    if flags:
        pipeline = obj.get("pipeline", {})
        pipeline = {"kind": pipeline} if isinstance(pipeline, str) else pipeline
        obj["pipeline"] = {**pipeline, **flags} if isinstance(pipeline, dict) else pipeline
    return sweep_config_from_dict(obj)


def _cmd_sweep(args) -> int:
    config = _sweep_config_from_args(args)
    rows = run_sweep(config)
    _write_or_print(render(rows, args.format), _resolve_out(args.out))
    return 0


def _cmd_pes_sweep(args) -> int:
    config = _sweep_config_from_args(args)
    tables = run_pes_sweep(config)
    out = _resolve_out(args.out)
    if args.format == "json":
        _write_or_print(render_tables(tables), out)
        return 0
    if out is None:
        chunks = [f"# initial: {label}\n{render(rows, 'csv')}" for label, rows in sorted(tables.items())]
        sys.stdout.write("\n".join(chunks))
        return 0
    for label, rows in sorted(tables.items()):
        _write_or_print(render(rows, "csv"), out.with_name(f"{out.stem}_{label}{out.suffix or '.csv'}"))
    return 0


def _cmd_breaking_points(args) -> int:
    rows = run_breaking_points()
    _write_or_print(render(rows, args.format), _resolve_out(args.out))
    return 0


def _cmd_characterize(args) -> int:
    if args.counts is not None:
        _check_count(args.counts, "counts")
    p_grid = p_grid_from(_parse_grid_flag(args.p_grid)) if args.p_grid else np.linspace(0.0, 1.0, 11)
    rows = run_channel_characterization(
        args.family, p_grid, n_per_probe=args.counts, seed=args.seed or 0
    )
    _write_or_print(render(rows, args.format), _resolve_out(args.out))
    return 0


def _cmd_ellipsoid(args) -> int:
    if args.channel:
        obj = _read_json(args.channel, "channel")
        try:
            channel = channel_from_json(obj)
        except ConfigError as exc:
            raise ConfigError(f"{args.channel}: {exc}") from exc
    else:
        if args.p is None:
            raise ConfigError("p: required unless --channel is given")
        channel = channel_for(args.family, args.p)
    mesh = ellipsoid_mesh(channel, n_theta=args.n_theta, n_phi=args.n_phi)
    _write_or_print(render_mesh(mesh, args.format), _resolve_out(args.out))
    return 0


def _exposure(records, counts, path):
    """The pairs per setting of the records a counts file holds: their one
    exposure, an integer when integral (as ``--counts-out`` writes it), or
    None when the rows differ. A ``--counts`` that differs from a row's
    exposure is a ConfigError."""
    exposures = sorted({record.exposure for record in records})
    if counts is not None and exposures != [counts]:
        other = next(e for e in exposures if e != counts)
        raise ConfigError(f"counts: {counts} differs from the exposure {other!r} in {path}")
    if len(exposures) > 1:
        return None
    return int(exposures[0]) if float(exposures[0]).is_integer() else exposures[0]


def _cmd_tomo_sim(args) -> int:
    _check_probability(args.p, "p")
    config = _sweep_config_from_args(args, p_grid=[args.p], pipeline="shot_noise")
    pipeline, spec = config.pipeline, config.initial
    records, n_per_setting = None, pipeline.n_per_setting
    if args.counts_in:
        records = read_counts_csv(args.counts_in)
        n_per_setting = _exposure(records, args.counts, args.counts_in)
    records, fit, estimate = shot_noise_point(config, spec, 0, records)
    if args.counts_out:
        counts_out = _resolve_out(args.counts_out)
        counts_out.parent.mkdir(parents=True, exist_ok=True)
        write_counts_csv(records, counts_out)
    summary = {
        "family": config.family,
        "mode": config.mode,
        "p": args.p,
        "initial": spec.label(),
        "n_per_setting": n_per_setting,
        "trials": pipeline.trials,
        "seed": pipeline.seed,
        "concurrence": concurrence(fit.rho_hat).c,
        "error": estimate.std_dev,
        "predicted": analytic_prediction(config, args.p, spec),
        "purity": purity(fit.rho_hat),
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "rounds": fit.rounds,
        "converged": fit.converged,
        "bootstrap_unconverged": estimate.unconverged,
        "bootstrap_dropped": estimate.dropped,
        "rho": matrix_to_json(fit.rho_hat),
    }
    _write_or_print(json.dumps(summary, indent=2) + "\n", _resolve_out(args.out))
    return 0 if fit.converged else 2


def _cmd_selftest(args) -> int:
    results = run_selftest(fast=not args.full)
    failed = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name}" + (f"  ({detail})" if detail else ""))
        failed += not passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entdyn",
        description="Entanglement dynamics of qubit pairs under unital noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid_help = "comma list or start:stop:points"

    def add_common(p, formats=("csv", "json")):
        p.add_argument("--out", help="output path (stdout if omitted)")
        p.add_argument("--format", choices=formats, default="csv")

    def add_config_flags(p, multi=False):
        """The sweep-config flags that sweep, pes-sweep and tomo-sim share."""
        p.add_argument("--family", choices=PAULI_FAMILIES)
        p.add_argument("--mode", choices=[*MODES, *_MODE_ALIASES])
        p.add_argument("--initial", action="append" if multi else "store",
                       help=("initial state (repeatable): " if multi else "")
                       + "bell:phi+, pes:<delta>[:<phi>], or mixed:<delta>:<p>")
        p.add_argument("--counts", type=int, help="pairs per setting for shot noise")
        p.add_argument("--trials", type=int, help="Monte Carlo trials for error bars")
        p.add_argument("--seed", type=int)
        p.add_argument("--likelihood", choices=LIKELIHOODS)

    def add_sweep_flags(p, multi=False):
        p.add_argument("--config", help="JSON config file; flags override its fields")
        add_config_flags(p, multi)
        p.add_argument("--p-grid", dest="p_grid", help=grid_help)
        p.add_argument("--pipeline", choices=sorted([*PIPELINES, *_PIPELINE_ALIASES]))
        p.add_argument("--noisy-qubit", dest="noisy_qubit", type=int, choices=NOISY_QUBITS)
        p.add_argument("--p-scale", dest="p_scale", type=float,
                       help="stretch predicted curves' noise axis (figure comparison only)")

    p = sub.add_parser("sweep", help="concurrence vs noise probability")
    add_sweep_flags(p)
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pes-sweep", help="sweeps for partially entangled initial states")
    add_sweep_flags(p, multi=True)
    add_common(p)
    p.set_defaults(func=_cmd_pes_sweep)

    p = sub.add_parser("breaking-points", help="entanglement-breaking probabilities")
    add_common(p)
    p.set_defaults(func=_cmd_breaking_points)

    p = sub.add_parser("characterize", help="process-matrix eigenvalue curves vs theory")
    p.add_argument("--family", choices=PAULI_FAMILIES, required=True)
    p.add_argument("--p-grid", dest="p_grid", help=grid_help)
    p.add_argument("--counts", type=int, help="counts per projector (omit for exact probes)")
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("ellipsoid", help="mapped Bloch-sphere mesh points")
    p.add_argument("--family", choices=PAULI_FAMILIES, default="isotropic")
    p.add_argument("--p", type=float)
    p.add_argument("--channel", help="JSON channel description file (overrides family/p)")
    p.add_argument("--n-theta", dest="n_theta", type=int, default=25)
    p.add_argument("--n-phi", dest="n_phi", type=int, default=50)
    add_common(p)
    p.set_defaults(func=_cmd_ellipsoid)

    p = sub.add_parser("tomo-sim", help="simulate counts, reconstruct, report concurrence")
    add_config_flags(p)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--counts-out", dest="counts_out", help="also write the simulated counts CSV here")
    p.add_argument("--counts-in", dest="counts_in", help="reconstruct from this counts CSV instead of simulating")
    p.add_argument("--out", help="summary JSON path (stdout if omitted)")
    p.set_defaults(func=_cmd_tomo_sim)

    p = sub.add_parser("selftest", help="run the quick property battery")
    p.add_argument("--full", action="store_true", help="full-size sample counts")
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: parsing never changes it, and building
    it costs about as much as a small sweep."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
