"""Seeded schedules of all three benchmark workloads, judged by the
benchmark's own gates (perfbench/checks.py): CLI ops run through
``cli.main``, and ``law_sweep``'s random-unital ops make the library calls
the benchmark's runner makes. A writer, channel, breaking-point, batching or
likelihood-fit regression fails here before it shows up as failed benchmark
ops. The two workloads that draw counts, ``tomo_bootstrap`` and
``channel_tomo``, run on seeds 1-3; ``law_sweep`` draws none and runs seed 1.
One pass of each schedule also counts the channels its ops validate."""

import importlib.util
import io
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from entdyn.channels import PauliChannel, UnitalChannel, apply_two_sided
from entdyn.cli import main
from entdyn.dynamics import concurrence, predict_two_sided
from entdyn.sampling import random_unital_channel

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


def _unital(check):
    """Random unital channels on the singlet and on |phi+>, as the
    benchmark's runner drives them (``Runner._unital`` in perfbench/run.py)."""
    rng = np.random.default_rng(check["seed"])
    out = []
    for _ in range(check["channels"]):
        channel = random_unital_channel(rng)
        c_singlet = concurrence(apply_two_sided(channel, checks.SINGLET)).c
        c_phi = concurrence(apply_two_sided(channel, checks.PHI_PLUS)).c
        out.append((np.array(channel.radii), c_singlet, c_phi, predict_two_sided(channel.radii)))
    return out


def _play(workload, tmp_path, monkeypatch, seed):
    """Run ``seed`` of ``workload`` op by op with ``tmp_path`` as the working
    directory. After each op, yields (index, op, exit code, stdout, caught
    warnings, result): CLI ops give their exit code and stdout, library-only
    ``unital`` ops the ``result`` of :func:`_unital` (the other is None)."""
    monkeypatch.delenv("ENTDYN_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for sub in ("out", "shared", "inputs"):
        (tmp_path / sub).mkdir()
    for index, op in enumerate(workloads.schedule(workload, seed)):
        for rel, text in op.get("files", {}).items():
            (tmp_path / rel).write_text(text)
        code = result = None
        stdout = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout):
            warnings.simplefilter("always")
            if "argv" in op:
                code = main(op["argv"])
            else:
                result = _unital(op["check"])
        yield index, op, code, stdout.getvalue(), caught, result


def _run_schedule(workload, tmp_path, monkeypatch, seed=1):
    """Run ``seed`` of ``workload`` through the gates; returns (ops, projection
    warnings, tomo-sim summaries by op index). ``summaries`` carries tomo-sim
    results between ops, so that a ``--counts-in`` read-back is compared with
    the op that wrote the file."""
    ops = []
    projected = 0
    summaries = {}
    for index, op, code, _, caught, result in _play(workload, tmp_path, monkeypatch, seed):
        ops.append(op)
        if "argv" in op:
            assert code == 0, op["argv"]
        expected, other = checks.unexpected_warnings(op["check"], caught)
        assert other == [], op
        projected += expected
        problems = checks.check_op(op["check"], str(tmp_path), summaries, index, result)
        assert problems == [], op
    return ops, projected, summaries


def test_law_sweep_schedule_passes_the_gates(tmp_path, monkeypatch):
    ops, projected, _ = _run_schedule("law_sweep", tmp_path, monkeypatch)
    verbs = {op["check"]["verb"] for op in ops}
    assert verbs == {"sweep", "pes-sweep", "breaking-points", "unital"}
    assert projected == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_channel_tomo_schedule_passes_the_gates(tmp_path, monkeypatch, seed):
    ops, projected, _ = _run_schedule("channel_tomo", tmp_path, monkeypatch, seed)
    verbs = {op["check"]["verb"] for op in ops}
    assert verbs == {"characterize", "ellipsoid"}
    assert projected > 0  # sampled probes exercise the projection path


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tomo_bootstrap_schedule_passes_the_gates(tmp_path, monkeypatch, seed):
    ops, _, summaries = _run_schedule("tomo_bootstrap", tmp_path, monkeypatch, seed)
    assert {op["check"]["verb"] for op in ops} == {"tomo-sim"}
    assert sum(op["check"]["same_as"] is not None for op in ops) == 2  # counts read back
    # evaluations of the base fits: a count that repeats exactly, so a slide
    # back to a first-order search (905 here) fails without a timing
    assert len(summaries) == len(ops)
    assert sum(s["iterations"] for s in summaries.values()) <= 200


@pytest.mark.parametrize("seed", [0, 401])
@pytest.mark.parametrize("workload, validations", [("law_sweep", 0), ("tomo_bootstrap", 0),
                                                   ("channel_tomo", 2)])
def test_channels_are_validated_only_where_a_file_is_read(tmp_path, monkeypatch, workload, validations,
                                                          seed):
    """The library's own channels (named families, random draws) skip the
    constructors' checks: one pass of a schedule validates a channel only
    in the ops that read one from a file, ``ellipsoid --channel``, once each."""
    ops = workloads.schedule(workload, seed)  # its channel files are drawn before the count starts
    monkeypatch.setattr(workloads, "schedule", lambda *_: ops)
    validated = []
    for cls in (PauliChannel, UnitalChannel):
        def counted(self, check=cls.__post_init__):
            validated.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    per_op, seen = {}, 0
    for index, op, code, _, _, _ in _play(workload, tmp_path, monkeypatch, seed):
        assert code in (0, None), op
        if len(validated) > seen:
            per_op[index], seen = len(validated) - seen, len(validated)
    assert per_op == {i: 1 for i, op in enumerate(ops) if "--channel" in op.get("argv", ())}
    assert len(validated) == validations
