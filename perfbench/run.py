"""Closed-loop benchmark of entdyn: one caller, one op at a time, checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each op is an in-process ``entdyn.cli.main(argv)`` call writing into a
scratch directory inside the checkout (the random-channel ensemble of
``law_sweep`` calls the library directly). Every op's output is checked
against theory; an op fails when it exits non-zero, raises, warns
unexpectedly or misses its tolerance.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs whole passes
of the schedule, each op once untraced and once traced, and prints the
per-layer metrics per pass plus the tracing overhead. The last line of
standard output is the JSON result.

Only the standard library is imported at module level: set-up time is
measured from a process that has not loaded numpy or scipy yet.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 5  # this process plus four fresh interpreters

#: The op that set-up finishes with, the same for every workload.
WARMUP = {
    "argv": ["sweep", "--family", "isotropic", "--mode", "one_sided", "--initial", "bell:phi+",
             "--pipeline", "exact", "--p-grid", "0.0:1.0:11", "--format", "json",
             "--out", "out/warmup.json"],
    "check": {"verb": "sweep", "family": "isotropic", "mode": "one_sided",
              "initials": [{"kind": "bell", "bell": "phi+"}],
              "grid": {"start": 0.0, "stop": 1.0, "points": 11}, "format": "json",
              "out": "out/warmup.json"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="time import + warm-up op in DIR, print its set-up times, exit")
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def cpu_clock() -> float:
    """CPU seconds of this process (all threads) and of its reaped children.

    Ops are timed on this clock, scaled by ``machine_factor``, not on the
    wall clock, which on a shared virtual machine also counts the time the
    hypervisor hands the CPU to others (about a quarter of it by /proc/stat
    steal ticks on the 2-vCPU machine the baseline comes from). Child
    processes count once they are waited for, so work moved into worker
    processes still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: CPU seconds ``speed_kernel`` takes on an uncontended core of the machine
#: the baseline comes from.
REFERENCE_KERNEL_S = 3.1e-3


def speed_kernel() -> None:
    """Fixed work of the library's kind: 4x4 Hermitian eigensolves, small
    matrix products and Python bookkeeping. It never calls entdyn, so a
    change to the program cannot move it."""
    import numpy as np

    m = np.array([[2.0, 0.5j, 0.1, 0.0], [-0.5j, 1.5, 0.2, 0.3j],
                  [0.1, 0.2, 1.0, 0.4], [0.0, -0.3j, 0.4, 0.8]])
    bookkeeping = []
    for i in range(150):
        w, v = np.linalg.eigh(m)
        m = (v * np.sqrt(w + 1.0)) @ v.conj().T
        m = m / np.trace(m).real
        bookkeeping.append({"step": i, "low": float(w[0])})


def machine_factor() -> float:
    """How fast this core runs now relative to the reference: reference
    kernel time over the median of three kernel runs.

    The same CPU work took twice as long in some half-hours as in others on
    the baseline machine (a busy sibling hyperthread or a loaded host slows
    every instruction). Op CPU times are multiplied by this factor, measured
    just before each op, so they read as on the reference core.
    """
    times = []
    for _ in range(3):
        c0 = cpu_clock()
        speed_kernel()
        times.append(cpu_clock() - c0)
    return REFERENCE_KERNEL_S / sorted(times)[1]


def timed_setup(workdir: str) -> tuple[float, float, float]:
    """(reference-core CPU, CPU, wall) seconds to import entdyn.cli and
    finish the warm-up op in ``workdir``."""
    os.chdir(workdir)
    c0, t0 = cpu_clock(), time.perf_counter()
    import entdyn.cli

    code = entdyn.cli.main(WARMUP["argv"])
    cpu, wall = cpu_clock() - c0, time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"warm-up op exited {code}")
    return cpu * machine_factor(), cpu, wall


def setup_samples(run_dir: str) -> tuple[list[tuple[float, float, float]], list[str]]:
    """(reference-core CPU, CPU, wall) set-up times from this process and
    from fresh interpreters, and the problems found in their warm-up
    outputs."""
    dirs = [os.path.join(run_dir, f"setup{i}") for i in range(SETUP_SAMPLES)]
    for d in dirs:
        os.makedirs(d)
    samples = [timed_setup(dirs[0])]
    for d in dirs[1:]:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe", d],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    from perfbench import checks

    problems = []
    for d in dirs:
        problems += checks.check_op(WARMUP["check"], d, {}, -1)
    return samples, problems


class Runner:
    """Runs ops in the scratch directory and judges their output."""

    def __init__(self, run_dir: str, ops: list[dict]):
        from perfbench import checks

        self.checks = checks
        self.dir = run_dir
        self.ops = ops
        self.summaries: dict = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.projected = 0
        for sub in ("out", "shared", "inputs"):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)
        for op in ops:
            for rel, text in op.get("files", {}).items():
                with open(os.path.join(run_dir, rel), "w") as fh:
                    fh.write(text)

    def _unital(self, check):
        """The library slice of law_sweep: random unital channels on the
        singlet and on |phi+>, against the two-sided law."""
        import numpy as np

        from entdyn import channels, dynamics, sampling

        singlet, phi_plus = self.checks.SINGLET, self.checks.PHI_PLUS
        rng = np.random.default_rng(check["seed"])
        out = []
        for _ in range(check["channels"]):
            channel = sampling.random_unital_channel(rng)
            c_singlet = dynamics.concurrence(channels.apply_two_sided(channel, singlet)).c
            c_phi = dynamics.concurrence(channels.apply_two_sided(channel, phi_plus)).c
            out.append((np.array(channel.radii), c_singlet, c_phi,
                        dynamics.predict_two_sided(channel.radii)))
        return out

    def run(self, index: int, tracer=None) -> tuple[float, float, float, int]:
        """Run op ``index`` once; return (reference-core CPU seconds, CPU
        seconds, wall seconds, bytes written). With a tracer the CLI call is
        wrapped in a ``cli.main`` span."""
        import entdyn.cli

        op = self.ops[index]
        self.attempted += 1
        problems = []
        result = None
        factor = machine_factor()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c0, t0 = cpu_clock(), time.perf_counter()
            try:
                if "argv" not in op:
                    result = self._unital(op["check"])
                elif tracer is None:
                    code = entdyn.cli.main(op["argv"])
                else:
                    span = tracer.open("cli.main")
                    try:
                        code = entdyn.cli.main(op["argv"])
                    finally:
                        tracer.close(span)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                code = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
            cpu, wall = cpu_clock() - c0, time.perf_counter() - t0
        if "argv" in op and code is not None and code != 0:
            problems.append(f"exit code {code}")
        projected, other = self.checks.unexpected_warnings(op["check"], caught)
        self.projected += projected
        problems += [f"warning {w}" for w in other]
        if not problems:
            try:
                problems += self.checks.check_op(op["check"], self.dir, self.summaries, index,
                                                 result)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        written = self._sweep_outputs(op)
        if problems:
            self.failures.append(f"op {index} ({' '.join(op.get('argv', ['unital'])[:3])}): "
                                 + "; ".join(problems[:3]))
        return cpu * factor, cpu, wall, written

    def _sweep_outputs(self, op) -> int:
        """Bytes the op wrote; its outputs are removed so a later op that
        writes nothing cannot pass on stale files."""
        out = os.path.join(self.dir, "out")
        written = sum(entry.stat().st_size for entry in os.scandir(out))
        shutil.rmtree(out)
        os.makedirs(out)
        if "--counts-out" in op.get("argv", ()):
            written += os.path.getsize(os.path.join(self.dir, op["check"]["counts_file"]))
        return written


def run_untraced(runner: Runner, seconds: float, tail_p: float) -> tuple[dict, dict]:
    """Ops in schedule order until ``seconds`` of wall time have passed and
    every op ran once.

    Latencies are reference-core CPU times (see ``machine_factor``).
    ``ops_per_s`` is the throughput of one pass's op mix: the number of ops
    in the schedule over the sum of each op's median latency. Ops are
    deterministic, so repeats of one op differ only by machine noise, which
    the median drops; and a run that stops part-way through a pass does not
    tilt the mix. The metadata carries the same figures on the raw CPU clock
    and on the wall clock.
    """
    from perfbench import stats

    clocks = ("ref_cpu", "cpu", "wall")
    samples = {c: [] for c in clocks}
    by_op = [{c: [] for c in clocks} for _ in runner.ops]
    t_start = time.perf_counter()
    while len(samples["cpu"]) < len(runner.ops) or time.perf_counter() - t_start < seconds:
        i = len(samples["cpu"]) % len(runner.ops)
        for clock, value in zip(clocks, runner.run(i)):
            samples[clock].append(value)
            by_op[i][clock].append(value)

    def figures(clock):
        pass_s = sum(stats.median(op[clock]) for op in by_op)
        return {"ops_per_s": len(runner.ops) / pass_s,
                "op_ms_p50": 1000.0 * stats.median(samples[clock]),
                "op_ms_tail": 1000.0 * stats.percentile(samples[clock], tail_p)}

    units = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    metrics = {name: (value, units[name]) for name, value in figures("ref_cpu").items()}
    meta = {
        "ops": len(samples["cpu"]),
        "tail_percentile": tail_p,
        "tail_percentile_by_rule": stats.tail_percentile(len(samples["cpu"])),
        "op_ms_median_by_position": [round(1000.0 * stats.median(op["ref_cpu"]), 1)
                                     for op in by_op],
        "cpu": figures("cpu"),
        "wall": figures("wall"),
        "machine_factor": sum(samples["ref_cpu"]) / sum(samples["cpu"]),
        "cpu_share_of_wall": sum(samples["cpu"]) / sum(samples["wall"]),
    }
    return metrics, meta


def run_traced(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Whole passes, each op once untraced and once traced; metrics are per pass."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer)
    untraced_cpu = traced_cpu = traced_wall = 0.0
    bytes_out = 0
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for i in range(len(runner.ops)):
            # alternate which run of the pair goes first: the second one finds
            # the op's data warm in the caches
            for traced_run in ((False, True) if (passes + i) % 2 == 0 else (True, False)):
                if not traced_run:
                    untraced_cpu += runner.run(i)[1]
                    continue
                projected_before = runner.projected
                patches.apply()
                try:
                    _, op_cpu, op_wall, written = runner.run(i, tracer)
                finally:
                    patches.restore()
                traced_cpu += op_cpu
                traced_wall += op_wall
                bytes_out += written
                tracer.count("tomography.process_tomography_single_qubit.projected",
                             runner.projected - projected_before)
        passes += 1
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)

    n_ops = passes * len(runner.ops)
    metrics = {}
    self_total = 0.0
    for name, (calls, own) in sorted(tracing.layer_totals(tracer.spans).items()):
        metrics[f"{name}.calls"] = (calls // passes, "count")
        metrics[f"{name}.self_s"] = (own / passes, "s")
        self_total += own
    for name in tracing.COUNTERS:
        metrics[name] = (tracer.counters.get(name, 0) // passes, "count")
    fits = metrics["tomography.reconstruct_state_mle.calls"][0]
    evals = metrics["tomography.reconstruct_state_mle.evals"][0]
    rounds = metrics["tomography.minimize.calls"][0]
    metrics["tomography.mle.evals_per_fit"] = (evals / fits if fits else 0.0, "count")
    metrics["tomography.mle.rounds_per_fit"] = (rounds / fits if fits else 0.0, "count")
    metrics["cli.bytes_out"] = (bytes_out // passes, "B")
    metrics["bench.passes"] = (passes, "count")
    metrics["bench.traced_wall_s"] = (traced_wall / passes, "s")
    metrics["bench.self_s_total"] = (self_total / passes, "s")
    metrics["bench.self_s_coverage"] = (self_total / traced_wall, "ratio")
    metrics["bench.ops_per_s_untraced"] = (n_ops / untraced_cpu, "1/s")
    metrics["bench.ops_per_s_traced"] = (n_ops / traced_cpu, "1/s")
    metrics["bench.trace_overhead_ops_per_s"] = (n_ops / untraced_cpu - n_ops / traced_cpu, "1/s")
    return metrics


def benchmark(args, run_dir: str) -> dict:
    from perfbench import stats, workloads

    samples, setup_problems = setup_samples(run_dir)
    ops = workloads.schedule(args.workload, args.seed)
    work = os.path.join(run_dir, "ops")
    os.makedirs(work)
    runner = Runner(work, ops)
    runner.failures += [f"warm-up: {p}" for p in setup_problems]
    os.chdir(work)
    meta = stats.metadata(args.seed, args.workload)
    if args.trace:
        spans = os.path.join(SPANS_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        metrics = run_traced(runner, args.seconds, spans)
        meta["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        tail_p = workloads.TAIL_PERCENTILE[args.workload]
        metrics, loop_meta = run_untraced(runner, args.seconds, tail_p)
        metrics["setup_s"] = (stats.median([ref for ref, _, _ in samples]), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        meta.update(loop_meta)
    meta["setup_samples_s"] = [dict(zip(("ref_cpu", "cpu", "wall"), x)) for x in samples]
    meta["schedule_ops"] = len(ops)
    meta["projection_warnings"] = runner.projected
    meta["fail_ratio"] = len(runner.failures) / runner.attempted
    meta["failures"] = runner.failures[:20]
    return {"meta": meta, "metrics": metrics, "attempted": runner.attempted,
            "failed": len(runner.failures)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entdyn", "cli.py")):
        print(f"error: no entdyn sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ENTDYN_OUTDIR", None)  # outputs must land in the scratch directory
    if sys.path and os.path.abspath(sys.path[0]) == HERE:
        del sys.path[0]  # the benchmark's modules are imported as perfbench.*
    sys.path[:0] = [SRC, ROOT]
    from perfbench.stats import pin_threads  # standard library only

    pin_threads()
    if args.setup_probe:
        print(json.dumps(timed_setup(args.setup_probe)))
        return 0
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        out = benchmark(args, run_dir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    for failure in out["meta"]["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in out["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {out['meta']['fail_ratio']:.6g} ({out['failed']}/{out['attempted']})")
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
