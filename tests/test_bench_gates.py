"""Seeded ``channel_tomo`` and ``tomo_bootstrap`` schedules of the benchmark
through ``cli.main``, judged by the benchmark's own gates
(perfbench/checks.py): a writer, batching or likelihood-fit regression fails
here before it shows up as failed benchmark ops."""

import importlib.util
import warnings
from pathlib import Path

from entdyn.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


def _run_schedule(workload, tmp_path, monkeypatch):
    """Run seed 1 of ``workload`` op by op; returns (ops, projection warnings).
    ``summaries`` carries tomo-sim results between ops, so that a
    ``--counts-in`` read-back is compared with the op that wrote the file."""
    monkeypatch.delenv("ENTDYN_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for sub in ("out", "shared", "inputs"):
        (tmp_path / sub).mkdir()
    ops = workloads.schedule(workload, 1)
    projected = 0
    summaries = {}
    for index, op in enumerate(ops):
        for rel, text in op.get("files", {}).items():
            (tmp_path / rel).write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(op["argv"])
        assert code == 0, op["argv"]
        expected, other = checks.unexpected_warnings(op["check"], caught)
        assert other == [], op["argv"]
        projected += expected
        assert checks.check_op(op["check"], str(tmp_path), summaries, index) == [], op["argv"]
    return ops, projected


def test_channel_tomo_schedule_passes_the_gates(tmp_path, monkeypatch):
    ops, projected = _run_schedule("channel_tomo", tmp_path, monkeypatch)
    verbs = {op["check"]["verb"] for op in ops}
    assert verbs == {"characterize", "ellipsoid"}
    assert projected > 0  # sampled probes exercise the projection path


def test_tomo_bootstrap_schedule_passes_the_gates(tmp_path, monkeypatch):
    ops, _ = _run_schedule("tomo_bootstrap", tmp_path, monkeypatch)
    assert {op["check"]["verb"] for op in ops} == {"tomo-sim"}
    assert sum(op["check"]["same_as"] is not None for op in ops) == 2  # counts read back
