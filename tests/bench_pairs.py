"""Alternating pairs of benchmark runs of two checkouts on one or more workloads.

    python tests/bench_pairs.py PARENT CHANGE --workload tomo_bootstrap \
        [--workload law_sweep ...] [--seed 0] [--pairs 10] [--seconds 10]

Runs ``perfbench/run.py`` of each checkout from its own root, one after the
other, and flips which side goes first from pair to pair. Prints every run's
end-to-end metrics, then per workload each side's median and quartiles per
metric, the pairs the change won (ties count for neither side) and the
failed ops, with a verdict per metric:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median;
* ``unresolved``: the parent's quartile distance is wider than that bound,
  so the runs spread too widely to tell, unless every change run is better
  than every parent run;
* ``within bound``: neither;

and whether a gain is shown: the change won at least 9 in 10 of the pairs
and its median is better than the parent's by more than the parent's
quartile distance. The metric names, which direction is better and the
bounds come from this repository's ``BENCHMARK.json``.

Both checkouts must lie outside the checkout this script lives in: the
benchmark writes each op's files into the checkout it runs from, and a run
from the working checkout reads differently from a run of the same code from
a sibling copy. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _end_to_end(root: str) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def end_to_end_metrics(root: str = ROOT) -> list[tuple[str, str, str]]:
    """(name, unit, better) of each end-to-end metric of ``BENCHMARK.json``."""
    return [(m["name"], m["unit"], m["better"]) for m in _end_to_end(root)]


def metric_bounds(root: str = ROOT) -> dict[str, float]:
    """Each end-to-end metric's bound: the share of the parent's median by
    which the change may be worse."""
    return {m["name"]: m["bound"] for m in _end_to_end(root)}


def checked_checkout(path: str, root: str = ROOT) -> str:
    """``path`` as an absolute checkout with a benchmark runner, refused
    (``SystemExit``) when it lies inside ``root`` or has no runner."""
    path = os.path.realpath(path)
    inside = os.path.realpath(root)
    if os.path.commonpath([path, inside]) == inside:
        raise SystemExit(f"error: {path} lies inside {inside}; use a copy outside it")
    if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        raise SystemExit(f"error: {path} has no perfbench/run.py")
    return path


def run_benchmark(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run from ``checkout``: its result, the runner's last line."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout}: benchmark exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better (ties count for neither side)."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within bound`` (see the module docstring)
    for one metric's parent and change runs."""
    sign = 1.0 if better == "higher" else -1.0
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "within bound"
    q1, median, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    if sign * (statistics.median(change) - median) < -bound * abs(median):
        return "worse"
    return "within bound"


def gain_shown(parent: list[float], change: list[float], better: str) -> bool:
    """The change won at least 9 in 10 of the pairs, and its median is better
    than the parent's by more than the parent's quartile distance."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = quartiles(parent)
    return (wins(parent, change, better) >= 0.9 * len(parent)
            and sign * (statistics.median(change) - median) > q3 - q1)


def summary(runs: list[dict], metrics, bounds: dict[str, float]) -> list[str]:
    """Lines of the per-metric summary of ``runs``: one dict per pair, side
    -> result."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
             f" {'change/parent':>14} {'bound':>6} {'verdict':>12} {'gain':>5} {'pairs won':>10}"]
    for name, unit, better in metrics:
        values = {side: [pair[side]["metrics"][name]["value"] for pair in runs] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {unit}")
        won = wins(values["parent"], values["change"], better)
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"]) - 1.0
        judged = verdict(values["parent"], values["change"], better, bounds[name])
        gain = "yes" if gain_shown(values["parent"], values["change"], better) else "no"
        lines.append(f"{name:<14} {cells[0]:>32} {cells[1]:>32} {ratio:>+13.1%} {bounds[name]:>6.0%} "
                     f"{judged:>12} {gain:>5} {won:>4}/{len(runs)}")
    for side in SIDES:
        failed = sum(pair[side]["failed"] for pair in runs)
        attempted = sum(pair[side]["attempted"] for pair in runs)
        lines.append(f"{side} failed ops: {failed}/{attempted}")
    return lines


def main(argv=None, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run; repeat it for several, run one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = dict(zip(SIDES, (checked_checkout(args.parent), checked_checkout(args.change))))
    metrics, bounds = end_to_end_metrics(), metric_bounds()
    for workload in args.workload:
        print(f"workload {workload}", flush=True)
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = result = run(checkouts[side], workload, args.seed, args.seconds)
                cells = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                                 for name, _, _ in metrics)
                print(f"pair {pair + 1} {side:<6} {cells} failed={result['failed']}/{result['attempted']}",
                      flush=True)
            runs.append(results)
        print("\n".join(summary(runs, metrics, bounds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
