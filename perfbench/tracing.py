"""In-memory span tracer that wraps entdyn's public functions from outside.

The program itself carries no instrumentation. :class:`Patches` replaces each
traced function, under every name an ``entdyn`` module (or scipy's
``minimize`` inside ``entdyn.tomography``) holds it as, with a wrapper that
records a span: name, start, end and the index of the enclosing span. A
layer's self time is its span durations minus the time covered by its direct
child spans. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time

#: (span name, defining module, function names). Several functions may share
#: one span name; ``dynamics.predict`` covers every closed-form law.
TRACED = (
    ("tomography.reconstruct_state_mle", "entdyn.tomography", ("reconstruct_state_mle",)),
    ("tomography.linear_inversion_state", "entdyn.tomography", ("linear_inversion_state",)),
    ("tomography.monte_carlo_errors", "entdyn.tomography", ("monte_carlo_errors",)),
    ("tomography.simulate_counts", "entdyn.tomography", ("simulate_counts",)),
    ("tomography.read_counts_csv", "entdyn.tomography", ("read_counts_csv",)),
    ("tomography.write_counts_csv", "entdyn.tomography", ("write_counts_csv",)),
    ("tomography.simulate_probe_outputs", "entdyn.tomography", ("simulate_probe_outputs",)),
    ("tomography.process_tomography_single_qubit", "entdyn.tomography",
     ("process_tomography_single_qubit",)),
    ("tomography.ellipsoid_mesh", "entdyn.tomography", ("ellipsoid_mesh",)),
    ("channels.apply_one_sided", "entdyn.channels", ("apply_one_sided",)),
    ("channels.apply_two_sided", "entdyn.channels", ("apply_two_sided",)),
    ("channels.channel_for", "entdyn.channels", ("channel_for",)),
    ("channels.channel_radii", "entdyn.channels", ("channel_radii",)),
    ("channels.compose", "entdyn.channels", ("compose",)),
    ("dynamics.concurrence", "entdyn.dynamics", ("concurrence",)),
    ("dynamics.make_initial", "entdyn.dynamics", ("make_initial",)),
    ("dynamics.breaking_point", "entdyn.dynamics", ("breaking_point",)),
    ("dynamics.predict", "entdyn.dynamics",
     ("predict_one_sided", "predict_two_sided", "factorization_prediction",
      "mixed_evolution_prediction")),
    ("states.psd_sqrt", "entdyn.states", ("psd_sqrt",)),
    ("sampling.random_unital_channel", "entdyn.sampling", ("random_unital_channel",)),
    ("harness.run_sweep", "entdyn.harness", ("run_sweep",)),
    ("harness.run_pes_sweep", "entdyn.harness", ("run_pes_sweep",)),
    ("harness.run_breaking_points", "entdyn.harness", ("run_breaking_points",)),
    ("harness.run_channel_characterization", "entdyn.harness", ("run_channel_characterization",)),
    ("harness.analytic_prediction", "entdyn.harness", ("analytic_prediction",)),
    ("harness.render", "entdyn.harness", ("render",)),
    ("harness.sweep_config_from_dict", "entdyn.harness", ("sweep_config_from_dict",)),
)

#: scipy's optimizer as ``entdyn.tomography`` imported it: one call is one
#: Nelder-Mead round of the restarted likelihood search.
MINIMIZE = ("tomography.minimize", "entdyn.tomography", "minimize")

#: The span the benchmark opens around each ``entdyn.cli.main`` call.
CLI_MAIN = "cli.main"

SPAN_NAMES = tuple(name for name, _, _ in TRACED) + (MINIMIZE[0], CLI_MAIN)

# Counters fed from return values: span name -> [(counter, fn(result) -> number)].
_RESULT_COUNTERS = {
    "tomography.reconstruct_state_mle": (
        ("tomography.reconstruct_state_mle.evals", lambda r: r.iterations),
        ("tomography.reconstruct_state_mle.unconverged", lambda r: 0 if r.converged else 1),
    ),
    "tomography.monte_carlo_errors": (
        ("tomography.monte_carlo_errors.trials", lambda r: r.trials),
        ("tomography.monte_carlo_errors.dropped", lambda r: r.dropped),
    ),
    "tomography.ellipsoid_mesh": (("tomography.ellipsoid_mesh.points", len),),
}

#: Every counter a traced run reports besides calls and self time.
COUNTERS = tuple(c for entries in _RESULT_COUNTERS.values() for c, _ in entries) + (
    "tomography.process_tomography_single_qubit.projected",
)


class Tracer:
    """Span store. Spans are ``[name, start, end, parent]`` with ``parent``
    the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        counters = _RESULT_COUNTERS.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            for counter, value in counters:
                self.count(counter, value(result))
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the durations of direct children.

    Spans of one thread nest strictly, so the direct children of a span
    cover disjoint parts of its interval.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed self time)."""
    totals: dict[str, list] = {name: [0, 0.0] for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, total) for name, (calls, total) in totals.items()}


class Patches:
    """Wrappers for every traced function under every name an entdyn module
    holds it as. ``apply`` swaps the wrappers in and ``restore`` puts the
    originals back, so untraced calls run the program unchanged."""

    def __init__(self, tracer: Tracer):
        import importlib
        import sys

        import entdyn.cli  # noqa: F401  (loads every module that re-exports a traced name)
        import entdyn.sampling  # noqa: F401

        modules = [m for key, m in sys.modules.items()
                   if key == "entdyn" or key.startswith("entdyn.")]
        self._entries = []  # (module, attribute, original, wrapper)
        for name, module_name, functions in TRACED:
            home = importlib.import_module(module_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = tracer.wrap(name, original)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._entries.append((module, fn_name, original, wrapper))
        name, module_name, attr = MINIMIZE
        home = importlib.import_module(module_name)
        original = getattr(home, attr)
        self._entries.append((home, attr, original, tracer.wrap(name, original)))

    def apply(self) -> None:
        for module, attr, _, wrapper in self._entries:
            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original, _ in self._entries:
            setattr(module, attr, original)
