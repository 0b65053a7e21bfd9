"""Seeded op schedules for the three workloads.

A schedule is one pass: a list of ops that the run repeats until its time is
up. Every argv, grid, seed and random channel comes from the workload seed;
the kind of each op (verb, family, mode, pipeline, output format) is fixed by
its position, so every seed runs the same op mix and only the values move;
paths in an argv are relative to the run's scratch directory, so the same
seed gives byte-identical ops. An op is a dict with

* ``argv``  -- arguments for ``entdyn.cli.main`` (absent for library ops),
* ``check`` -- what the correctness gate needs to judge the op's output,
* ``files`` -- input files (relative path -> text) the op reads.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("tomo_bootstrap", "law_sweep", "channel_tomo")

FAMILIES = ("two-field", "isotropic", "dephasing")
MODES = ("one_sided", "two_sided")
BELLS = ("phi+", "phi-", "psi+", "psi-")

#: Percentile reported as ``op_ms_tail``, fixed per workload by
#: ``stats.tail_percentile`` at the op count a 30 s run completes here
#: (about 30, 800 and 650 ops; see README.md).
TAIL_PERCENTILE = {"tomo_bootstrap": 50.0, "law_sweep": 95.0, "channel_tomo": 95.0}

#: Bootstrap refits per tomo-sim op: the smallest count the CLI accepts, so
#: a 30 s run still completes a pass of sixteen ops.
TOMO_TRIALS = 2

MESH = (50, 100)  # n_theta, n_phi of ellipsoid meshes: 5000 points
UNITAL_ENSEMBLE = 16  # random channels per library op


def _u(rng, lo, hi) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def _grid(rng, points: int) -> dict:
    return {"start": _u(rng, 0.0, 0.05), "stop": _u(rng, 0.95, 1.0), "points": points}


def _grid_flag(grid: dict) -> str:
    return f"{grid['start']!r}:{grid['stop']!r}:{grid['points']}"


def _initial_flag(initial: dict) -> str:
    if initial["kind"] == "bell":
        return f"bell:{initial['bell']}"
    if initial["kind"] == "pure_pes":
        return f"pes:{initial['delta']!r}"
    return f"mixed:{initial['delta']!r}:{initial['dephasing']!r}"


def _bell(rng) -> dict:
    return _bell_named(BELLS[int(rng.integers(len(BELLS)))])


def _bell_named(name: str) -> dict:
    return {"kind": "bell", "bell": name}


def _pure(rng) -> dict:
    # initial concurrence |sin 4 delta| between 0.48 and 0.89
    return {"kind": "pure_pes", "delta": _u(rng, 0.13, 0.27)}


def _mixed(rng) -> dict:
    return {"kind": "mixed_pes", "delta": _u(rng, 0.13, 0.27), "dephasing": _u(rng, 0.05, 0.3)}


def _sweep(rng, i, family, mode, initial, pipeline, points, fmt) -> dict:
    grid = _grid(rng, points)
    out = f"out/op{i}.{fmt}"
    argv = ["sweep", "--family", family, "--mode", mode, "--initial", _initial_flag(initial),
            "--pipeline", pipeline, "--p-grid", _grid_flag(grid), "--format", fmt, "--out", out]
    return {"argv": argv, "check": {"verb": "sweep", "family": family, "mode": mode,
                                    "initials": [initial], "grid": grid, "format": fmt,
                                    "out": out}}


def _pes_sweep(rng, i, family, mode, pipeline, fmt, points) -> dict:
    grid = _grid(rng, points)
    initials = [_pure(rng), _mixed(rng)]
    out = f"out/op{i}.{fmt}"
    argv = ["pes-sweep", "--family", family, "--mode", mode, "--pipeline", pipeline,
            "--p-grid", _grid_flag(grid), "--format", fmt, "--out", out]
    for initial in initials:
        argv += ["--initial", _initial_flag(initial)]
    return {"argv": argv, "check": {"verb": "pes-sweep", "family": family, "mode": mode,
                                    "initials": initials, "grid": grid, "format": fmt,
                                    "out": out}}


def law_sweep(seed: int) -> list[dict]:
    """Closed-form and exact-evolution sweeps, PES sweeps, breaking points and
    a random-unital-channel ensemble: no likelihood fit anywhere."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for family in FAMILIES:
        for mode, fmt in zip(MODES, ("csv", "json")):
            ops.append(_sweep(rng, len(ops), family, mode, _bell(rng), "analytic", 201, fmt))
            ops.append(_sweep(rng, len(ops), family, mode, _bell(rng), "exact", 101, fmt))
    ops.append(_sweep(rng, len(ops), "two-field", "one_sided", _pure(rng), "exact", 101, "json"))
    ops.append(_sweep(rng, len(ops), "isotropic", "two_sided", _pure(rng), "analytic", 51, "csv"))
    ops.append(_pes_sweep(rng, len(ops), "dephasing", "one_sided", "exact", "csv", 51))
    # two-sided PES tables fall back to exact evolution for value and
    # prediction alike; 31 points keep this, the slowest op, near the next
    # slowest ones so that op_ms_tail (p95 of 20 equally frequent ops) does
    # not sit on the step between them
    ops.append(_pes_sweep(rng, len(ops), "two-field", "two_sided", "analytic", "json", 31))
    for fmt in ("csv", "json"):
        out = f"out/op{len(ops)}.{fmt}"
        ops.append({"argv": ["breaking-points", "--format", fmt, "--out", out],
                    "check": {"verb": "breaking-points", "format": fmt, "out": out}})
    for _ in range(2):
        ops.append({"check": {"verb": "unital", "seed": [seed, 3, len(ops)],
                              "channels": UNITAL_ENSEMBLE}})
    return ops


def _tomo(rng, i, family, mode, initial, p, counts, likelihood, counts_out=None, counts_in=None,
          sim_seed=None) -> dict:
    sim_seed = int(rng.integers(2**31)) if sim_seed is None else sim_seed
    out = f"out/op{i}.json"
    argv = ["tomo-sim", "--family", family, "--mode", mode, "--initial", _initial_flag(initial),
            "--p", repr(p), "--counts", str(counts), "--trials", str(TOMO_TRIALS),
            "--seed", str(sim_seed), "--likelihood", likelihood, "--out", out]
    if counts_out:
        argv += ["--counts-out", counts_out]
    if counts_in:
        argv += ["--counts-in", counts_in]
    return {"argv": argv, "check": {"verb": "tomo-sim", "family": family, "mode": mode,
                                    "initials": [initial], "p": p, "counts": counts,
                                    "likelihood": likelihood, "seed": sim_seed,
                                    "trials": TOMO_TRIALS, "out": out,
                                    "counts_file": counts_out or counts_in,
                                    "same_as": i - 1 if counts_in else None}}


def tomo_bootstrap(seed: int) -> list[dict]:
    """tomo-sim ops across the pure-state boundary (p = 0, C = 1), the
    interior and beyond the breaking point (C = 0), at 10^4 and 10^3 pairs
    per setting; six Gaussian-likelihood ops and two Poisson ones, each
    configuration twice with its own draw.

    A fit's cost depends on the state: a pure psi state takes about three
    times the evaluations of a pure phi state, and interior states more than
    separable ones. So each position has a fixed Bell state and a narrow p
    window, and the seed moves p within it and draws the counts; a wider draw
    would change the op mix, and with it the throughput, from seed to seed.
    Even so one op's cost varies by about a fifth with its counts, which is
    why the pass holds sixteen distinct ops rather than eight.
    """
    rng = np.random.default_rng([seed, 1])
    phi_plus, phi_minus = _bell_named("phi+"), _bell_named("phi-")
    ops = []

    def add(family, mode, initial, p, counts, likelihood, **kw):
        ops.append(_tomo(rng, len(ops), family, mode, initial, p, counts, likelihood, **kw))

    for copy in range(2):
        counts_file = f"shared/counts{copy}.csv"
        add("isotropic", "one_sided", phi_plus, 0.0, 10_000, "gaussian")
        p = _u(rng, 0.2, 0.3)
        add("two-field", "one_sided", phi_minus, p, 10_000, "gaussian", counts_out=counts_file)
        add("two-field", "one_sided", phi_minus, p, 10_000, "gaussian",
            counts_in=counts_file, sim_seed=ops[-1]["check"]["seed"])
        add("isotropic", "two_sided", phi_plus, _u(rng, 0.1, 0.2), 1_000, "gaussian")
        add("two-field", "two_sided", _bell_named("psi+"), _u(rng, 0.5, 0.6), 10_000, "poisson")
        add("isotropic", "one_sided", _pure(rng), _u(rng, 0.15, 0.25), 10_000, "gaussian")
        add("isotropic", "one_sided", _bell_named("psi-"), _u(rng, 0.65, 0.75), 1_000, "gaussian")
        add("two-field", "one_sided", _pure(rng), _u(rng, 0.15, 0.25), 1_000, "poisson")
    return ops


def _unital_channel_json(seed) -> dict:
    from entdyn.channels import channel_to_json
    from entdyn.sampling import random_unital_channel

    return channel_to_json(random_unital_channel(np.random.default_rng(seed)))


def channel_tomo(seed: int) -> list[dict]:
    """Process tomography with exact and shot-noise probes, and Bloch
    ellipsoid meshes of named families and random unital channels."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for family, fmt in zip(FAMILIES, ("csv", "json", "csv")):
        grid = _grid(rng, 21)
        out = f"out/op{len(ops)}.{fmt}"
        ops.append({"argv": ["characterize", "--family", family, "--p-grid", _grid_flag(grid),
                             "--format", fmt, "--out", out],
                    "check": {"verb": "characterize", "family": family, "grid": grid,
                              "counts": None, "format": fmt, "out": out}})
    for family, counts, fmt in zip(FAMILIES, (10_000, 1_000, 10_000), ("json", "csv", "json")):
        grid = _grid(rng, 11)
        out = f"out/op{len(ops)}.{fmt}"
        sim_seed = int(rng.integers(2**31))
        ops.append({"argv": ["characterize", "--family", family, "--p-grid", _grid_flag(grid),
                             "--counts", str(counts), "--seed", str(sim_seed), "--format", fmt,
                             "--out", out],
                    "check": {"verb": "characterize", "family": family, "grid": grid,
                              "counts": counts, "format": fmt, "out": out}})
    n_theta, n_phi = MESH
    mesh = ["--n-theta", str(n_theta), "--n-phi", str(n_phi)]
    for family, fmt in (("two-field", "csv"), ("isotropic", "json")):
        p = _u(rng, 0.0, 1.0)
        out = f"out/op{len(ops)}.{fmt}"
        ops.append({"argv": ["ellipsoid", "--family", family, "--p", repr(p), *mesh,
                             "--format", fmt, "--out", out],
                    "check": {"verb": "ellipsoid", "channel": {"family": family, "p": p},
                              "mesh": MESH, "format": fmt, "out": out}})
    for fmt in ("csv", "json"):
        channel = _unital_channel_json([seed, 4, len(ops)])
        path = f"inputs/channel{len(ops)}.json"
        out = f"out/op{len(ops)}.{fmt}"
        ops.append({"argv": ["ellipsoid", "--channel", path, *mesh, "--format", fmt,
                             "--out", out],
                    "check": {"verb": "ellipsoid", "channel": channel, "mesh": MESH,
                              "format": fmt, "out": out},
                    "files": {path: json.dumps(channel)}})
    return ops


def schedule(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"tomo_bootstrap": tomo_bootstrap, "law_sweep": law_sweep,
            "channel_tomo": channel_tomo}[workload](seed)

