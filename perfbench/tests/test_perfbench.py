"""Tests for the benchmark's own code.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from entdyn.cli import main  # noqa: E402
from perfbench import checks, stats, tracing, workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Spans


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.5, 1],
        ["child", 5.0, 9.0, 0],
        ["other_root", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 4.0, 1.0])


def test_layer_totals_sum_self_times_and_account_for_root_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["dynamics.concurrence", 1.0, 4.0, 0],
        ["states.psd_sqrt", 2.0, 3.0, 1],
        ["dynamics.concurrence", 5.0, 6.0, 0],
    ]
    totals = tracing.layer_totals(spans)
    assert totals["dynamics.concurrence"] == (2, pytest.approx(3.0))
    assert totals["states.psd_sqrt"] == (1, pytest.approx(1.0))
    assert totals["tomography.minimize"] == (0, 0.0)
    assert sum(own for _, own in totals.values()) == pytest.approx(10.0)


def test_patches_record_nested_spans_and_restore_originals():
    import entdyn.dynamics as dynamics
    import entdyn.states as states

    original = dynamics.concurrence
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    patches.apply()
    try:
        assert dynamics.concurrence is not original
        dynamics.concurrence(states.bell_state("phi_plus"))
    finally:
        patches.restore()
    assert dynamics.concurrence is original
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("dynamics.concurrence", -1), ("states.psd_sqrt", 0)]


# ---------------------------------------------------------------------------
# Tail percentile


@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_fixed_tail_percentiles_follow_the_rule_at_the_baseline_counts():
    # op counts of a 30 s run measured at the commit that defined the benchmark
    baseline_ops = {"tomo_bootstrap": 32, "law_sweep": 785, "channel_tomo": 640}
    for workload, n in baseline_ops.items():
        assert workloads.TAIL_PERCENTILE[workload] == stats.tail_percentile(n)


def test_percentile_interpolates_like_numpy():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for p in (0.0, 50.0, 90.0, 95.0, 100.0):
        assert stats.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


# ---------------------------------------------------------------------------
# Workload generation


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedule_is_deterministic_under_a_seed(workload):
    first = json.dumps(workloads.schedule(workload, 7), sort_keys=True)
    again = json.dumps(workloads.schedule(workload, 7), sort_keys=True)
    other = json.dumps(workloads.schedule(workload, 8), sort_keys=True)
    assert first == again
    assert first != other


def test_law_sweep_makes_no_likelihood_fit():
    for op in workloads.schedule("law_sweep", 3):
        assert op.get("argv", ["unital"])[0] != "tomo-sim"


def test_tomo_bootstrap_covers_the_three_regions_and_both_likelihoods():
    ops = [op["check"] for op in workloads.schedule("tomo_bootstrap", 3)]
    values = [checks.sweep_expectation(c["family"], c["mode"], c["initials"][0], c["p"])
              for c in ops]
    assert all(exact for _, exact in values)
    assert any(v == 1.0 for v, _ in values)
    assert any(0.0 < v < 1.0 for v, _ in values)
    assert any(v == 0.0 for v, _ in values)
    assert {c["likelihood"] for c in ops} == {"gaussian", "poisson"}
    assert {c["counts"] for c in ops} == {1_000, 10_000}


# ---------------------------------------------------------------------------
# Correctness gate


def _run(tmp_path, op):
    os.makedirs(tmp_path / "out", exist_ok=True)
    os.makedirs(tmp_path / "shared", exist_ok=True)
    for rel, text in op.get("files", {}).items():
        os.makedirs(tmp_path / os.path.dirname(rel), exist_ok=True)
        (tmp_path / rel).write_text(text)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(op["argv"]) == 0
    finally:
        os.chdir(cwd)
    return tmp_path / op["check"]["out"]


def _first(workload, verb, **match):
    for op in workloads.schedule(workload, 5):
        c = op["check"]
        if c["verb"] == verb and all(c.get(k) == v for k, v in match.items()):
            return op
    raise LookupError(verb)


def test_gate_rejects_a_corrupted_sweep_value(tmp_path):
    op = _first("law_sweep", "sweep", format="json")
    out = _run(tmp_path, op)
    assert checks.check_op(op["check"], tmp_path, {}, 0) == []
    rows = json.loads(out.read_text())
    rows[len(rows) // 2]["concurrence"] += 1e-6
    out.write_text(json.dumps(rows))
    assert checks.check_op(op["check"], tmp_path, {}, 0)


def test_gate_rejects_a_missing_row(tmp_path):
    op = _first("law_sweep", "sweep", format="csv")
    out = _run(tmp_path, op)
    out.write_text("\n".join(out.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_op(op["check"], tmp_path, {}, 0)


def test_gate_rejects_a_wrong_breaking_point(tmp_path):
    op = _first("law_sweep", "breaking-points", format="json")
    out = _run(tmp_path, op)
    assert checks.check_op(op["check"], tmp_path, {}, 0) == []
    rows = json.loads(out.read_text())
    rows[-1]["p_star"] += 1e-5
    out.write_text(json.dumps(rows))
    assert checks.check_op(op["check"], tmp_path, {}, 0)


def test_gate_rejects_chi_off_theory(tmp_path):
    op = _first("channel_tomo", "characterize", counts=None)
    out = _run(tmp_path, op)
    assert checks.check_op(op["check"], tmp_path, {}, 0) == []
    fmt = op["check"]["format"]
    if fmt == "json":
        rows = json.loads(out.read_text())
        rows[3]["chi_1"] += 1e-8
        out.write_text(json.dumps(rows))
    else:
        lines = out.read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = repr(float(cells[2]) + 1e-8)
        lines[4] = ",".join(cells)
        out.write_text("\n".join(lines) + "\n")
    assert checks.check_op(op["check"], tmp_path, {}, 0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gate_rejects_a_point_off_the_unital_ellipsoid(tmp_path, fmt):
    op = next(o for o in workloads.schedule("channel_tomo", 5) if o["check"]["verb"] == "ellipsoid"
              and o["check"]["channel"]["family"] == "unital" and o["check"]["format"] == fmt)
    out = _run(tmp_path, op)
    assert checks.check_op(op["check"], tmp_path, {}, 0) == []
    text = out.read_text()
    if fmt == "json":
        points = json.loads(text)
        points[7][0] *= 1.0 + 1e-9
        out.write_text(json.dumps(points))
    else:
        lines = text.splitlines()
        x, y, z = (float(v) for v in lines[8].split(","))
        lines[8] = f"{x * (1.0 + 1e-9)!r},{y!r},{z!r}"
        out.write_text("\n".join(lines) + "\n")
    assert checks.check_op(op["check"], tmp_path, {}, 0)


def test_gate_rejects_the_unital_law_broken():
    radii = np.array([0.9, 0.5, -0.3])
    law = checks.law_two_sided(radii)
    assert checks.check_unital([(radii, law, law - 0.1, law)]) == []
    assert checks.check_unital([(radii, law + 1e-8, law - 0.1, law)])
    assert checks.check_unital([(radii, law, law + 1e-8, law)])


def test_tomo_gate_passes_a_fit_and_rejects_linear_inversion_or_no_convergence(tmp_path):
    # the pure-state boundary op (p = 0, C = 1) with its counts written out
    op = workloads._tomo(np.random.default_rng(1), 0, "isotropic", "one_sided",
                         {"kind": "bell", "bell": "phi+"}, 0.0, 10_000, "gaussian",
                         counts_out="shared/counts.csv")
    out = _run(tmp_path, op)
    assert checks.check_op(op["check"], tmp_path, {}, 0) == []
    good = json.loads(out.read_text())

    li = checks.linear_inversion(checks.read_counts(tmp_path / "shared" / "counts.csv"))
    linear = dict(good, concurrence=checks.wootters_concurrence(li),
                  rho={"dim": 4, "re": li.real.reshape(-1).tolist(),
                       "im": li.imag.reshape(-1).tolist()})
    out.write_text(json.dumps(linear))
    assert checks.check_op(op["check"], tmp_path, {}, 0)

    out.write_text(json.dumps(dict(good, converged=False)))
    assert checks.check_op(op["check"], tmp_path, {}, 0)

    out.write_text(json.dumps(dict(good, concurrence=good["concurrence"] - 0.01)))
    assert checks.check_op(op["check"], tmp_path, {}, 0)


def test_unexpected_warning_fails_and_projection_warning_is_counted():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.warn(checks.PROJECTION_WARNING + " -0.01; projecting", UserWarning)
        warnings.warn("something else", RuntimeWarning)
    characterize = {"verb": "characterize"}
    assert checks.unexpected_warnings(characterize, caught[:1]) == (1, [])
    projected, other = checks.unexpected_warnings(characterize, caught)
    assert projected == 1 and len(other) == 1
    assert checks.unexpected_warnings({"verb": "sweep"}, caught[:1])[0] == 0
