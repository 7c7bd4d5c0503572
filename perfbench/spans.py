"""In-memory spans and counts recorded around calls into fxdispatch modules.

Nothing under `src/` is edited: `Tracer.patched()` swaps each traced public
function, in every module namespace that looks it up, for a wrapper that
records a span (name, start, end, parent) and updates counts, and restores
the originals on exit. Spans stay in memory until the benchmark writes them.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

#: residual below which a step counts as integrated on the chatter floor
FLOOR = 1e-5


def _param(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eig(counts, args, kwargs, result):
    counts["linalg.eig_calls"] += 1
    counts["linalg.eig_max_n"] = max(counts["linalg.eig_max_n"], len(result))


def _count_newton(counts, args, kwargs, result):
    counts["oracle.newton_iters"] += result.iterations


def _count_load(counts, args, kwargs, result):
    counts["config.loads"] += 1


def _count_write(counts, args, kwargs, result):
    counts["cli.bytes_written"] += len(_param(args, kwargs, 1, "text").encode())


def _count_run(counts, args, kwargs, result):
    dt = _param(args, kwargs, 1, "params").dt
    traj = result.trajectory
    t_last = max(result.terminal.t, float(traj.t[-1]))
    steps = round(t_last / dt)
    below = np.flatnonzero(traj.residual < FLOOR)
    counts["dynamics.steps"] += steps
    counts["dynamics.steps_after_floor"] += round((t_last - traj.t[below[0]]) / dt) if below.size else 0
    counts["dynamics.settled_runs"] += int(result.settled)


#: (module, attribute, span name, count hook); a function imported by name
#: into another module is listed once per namespace that calls it
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "evaluate_gates", "cli.gates", None),
    ("cli", "load_config", "config.load", _count_load),
    ("config", "load_config", "config.load", _count_load),
    ("cli", "atomic_write_text", "config.write", _count_write),
    ("config", "atomic_write_text", "config.write", _count_write),
    ("analysis", "assemble_assumption_report", "analysis.gates", None),
    ("analysis", "build_s_matrix", "analysis.s_matrix", None),
    ("analysis", "settling_bound", "analysis.bound", None),
    ("cli", "settling_bound", "analysis.bound", None),
    ("analysis", "jacobi_eigenvalues", "linalg.eig", _count_eig),
    ("topology", "jacobi_eigenvalues", "linalg.eig", _count_eig),
    ("topology", "spectrum", "topology.spectrum", None),
    ("cli", "spectrum", "topology.spectrum", None),
    ("oracle", "solve_equilibrium", "oracle.solve", _count_newton),
    ("oracle", "kkt_penalty_solution", "oracle.solve", _count_newton),
    ("dynamics", "run", "dynamics.run", _count_run),
)

#: per-layer metric -> span names whose self times it sums (seconds per pass)
SELF_TIME_METRICS = {
    "dynamics.run_s": ("dynamics.run",),
    "linalg.eig_s": ("linalg.eig",),
    "analysis.gates_s": ("analysis.gates",),
    "analysis.s_matrix_s": ("analysis.s_matrix",),
    "analysis.bound_s": ("analysis.bound",),
    "topology.spectrum_s": ("topology.spectrum",),
    "oracle.solve_s": ("oracle.solve",),
    "config.load_s": ("config.load",),
    "config.write_s": ("config.write",),
    "cli.self_s": ("cli.main", "cli.gates"),
}

COUNT_METRICS = (
    "dynamics.steps", "dynamics.steps_after_floor", "dynamics.settled_runs",
    "linalg.eig_calls", "linalg.eig_max_n", "oracle.newton_iters",
    "config.loads", "cli.bytes_written",
)


class Tracer:
    """Spans and counts of one benchmark process.

    A span is `[name, start, end, parent]`, with `parent` the index of the
    enclosing span or -1. Counts and wall times are kept per traced pass.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.pass_counts: list[dict] = []
        self.pass_walls: list[float] = []
        self._stack: list[int] = []
        self._counts = defaultdict(int)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                count(self._counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Route every call listed in TARGETS through a recording wrapper."""
        saved = []
        try:
            for module_name, attr, name, count in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextlib.contextmanager
    def traced_pass(self):
        """One workload pass as a root span `bench.pass`, with fresh counts."""
        self._counts = defaultdict(int)
        index = len(self.spans)
        self.spans.append(["bench.pass", time.perf_counter(), 0.0, -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()
            self.pass_counts.append(dict(self._counts))
            self.pass_walls.append(self.spans[index][2] - self.spans[index][1])

    def self_times(self) -> list[dict]:
        """Per traced pass: span name -> summed self time (s).

        A span's self time is its duration minus the durations of its direct
        children, so summing self times over a pass gives the pass wall time.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        passes: list[dict] = []
        root_of = [0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                passes.append(defaultdict(float))
                root_of[i] = len(passes) - 1
            else:
                root_of[i] = root_of[parent]
            passes[root_of[i]][name] += (end - start) - child_time[i]
        return [dict(p) for p in passes]


def layer_shares(self_times: dict) -> dict:
    """Share of a pass's wall time spent in each layer's own code."""
    total = sum(self_times.values())
    layers: dict = defaultdict(float)
    for name, seconds in self_times.items():
        layers[name.split(".")[0]] += seconds
    return {layer: seconds / total for layer, seconds in sorted(layers.items())}
