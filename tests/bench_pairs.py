"""Alternating pairs of benchmark runs of two checkouts on one workload.

    python tests/bench_pairs.py PARENT CHANGE --workload tomo_bootstrap \
        [--seed 0] [--pairs 10] [--seconds 10]

Runs ``perfbench/run.py`` of each checkout from its own root, one after the
other, and flips which side goes first from pair to pair. Prints every run's
end-to-end metrics, each side's median and quartiles per metric, the pairs
the change won (ties count for neither side) and the failed ops. The metric
names and which direction is better come from this repository's
``BENCHMARK.json``.

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


def end_to_end_metrics(root: str = ROOT) -> list[tuple[str, str, str]]:
    """(name, unit, better) of each end-to-end metric of ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["end_to_end"]]


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


def summary(runs: list[dict], metrics) -> list[str]:
    """Lines of the per-metric summary of ``runs``: one dict per pair, side
    -> result."""
    lines = [f"{'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
             f" {'change/parent':>14} {'pairs won':>10}"]
    for name, unit, better in metrics:
        values = {side: [pair[side]["metrics"][name]["value"] for pair in runs] for side in SIDES}
        cells = []
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {unit}")
        sign = 1.0 if better == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"]) - 1.0
        lines.append(f"{name:<14} {cells[0]:>32} {cells[1]:>32} {ratio:>+13.1%} "
                     f"{won:>4}/{len(runs)}")
    for side in SIDES:
        failed = sum(pair[side]["failed"] for pair in runs)
        attempted = sum(pair[side]["attempted"] for pair in runs)
        lines.append(f"{side} failed ops: {failed}/{attempted}")
    return lines


def main(argv=None, run=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = dict(zip(SIDES, (checked_checkout(args.parent), checked_checkout(args.change))))
    metrics = end_to_end_metrics()
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            results[side] = result = run(checkouts[side], args.workload, args.seed, args.seconds)
            cells = " ".join(f"{name}={result['metrics'][name]['value']:.6g}"
                             for name, _, _ in metrics)
            print(f"pair {pair + 1} {side:<6} {cells} failed={result['failed']}/{result['attempted']}",
                  flush=True)
        runs.append(results)
    print("\n".join(summary(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
