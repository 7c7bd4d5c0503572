"""A fixed calibration slice that reads the CPU's speed while work runs.

The shared host this benchmark was tuned on changes speed by up to a factor
of two over minutes, so raw wall times of the same code spread more between
runs than the bounds allow. The slice is a fixed piece of the benchmark's
own code, made of the three kinds of work the workloads do: a small-array
NumPy RK4 loop (as `dynamics`), pure-Python float loops over nested lists
(as the cyclic Jacobi eigensolver) and string-to-float parsing into dicts
(as the YAML loader). It never calls fxdispatch, so no change to the program
can change it.

`Sampler` runs one slice from a SIGALRM handler at a fixed interval while
work runs, and keeps their durations. `Sampler.scaled(seconds)` turns a
measured time into the time the same work takes on the reference CPU, one
that runs an interrupting slice in SLICE_REF_S: the time, less the slices'
own, times SLICE_REF_S over the harmonic mean of the slices. Slices start at
even steps of wall time, so a slow stretch of a pass gets more of them in
proportion to its length; the harmonic mean undoes that weighting and gives
the slowness averaged over the work done, which is what the pass time sums.
It also gives little weight to a slice that the host stalled.

Slices share the CPU's caches with the work they interrupt, so a change that
grows the program's working set slows them a little too, and shows a little
less in a scaled time than in a raw one; the raw times are printed as well.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds an interrupting slice takes on the reference CPU (a round figure
#: near what it takes on the 2-vCPU VM the bounds were set on)
SLICE_REF_S = 2.5e-3
#: seconds between two slices during a workload pass
PASS_INTERVAL_S = 0.05

_A = np.array([[-2.0, 1.0, 0.0, 1.0], [1.0, -2.0, 1.0, 0.0], [0.0, 1.0, -2.0, 1.0], [1.0, 0.0, 1.0, -2.0]])
_M = [[1.0 / (1 + i + j) for j in range(12)] for i in range(12)]
_TEXT = [f"{0.001 * k:.6f}" for k in range(2000)]


def _rhs(x):
    return _A @ x - np.sign(x) * np.abs(x) ** 0.5 - x ** 3


def run_slice() -> float:
    """One calibration slice, about a third each of NumPy, float-loop and
    parsing time; returns a value so the work is not dead code."""
    x, h = np.array([1.0, -0.5, 0.25, 2.0]), 1e-3
    for _ in range(16):
        k1 = _rhs(x)
        k2 = _rhs(x + h / 2 * k1)
        k3 = _rhs(x + h / 2 * k2)
        k4 = _rhs(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    m = [row[:] for row in _M]
    for _ in range(4):
        for p in range(11):
            for q in range(p + 1, 12):
                c, s = 0.8, 0.6
                for k in range(12):
                    m[p][k], m[q][k] = c * m[p][k] - s * m[q][k], s * m[p][k] + c * m[q][k]
    rows: dict = {}
    for k, text in enumerate(_TEXT):
        rows.setdefault(k % 8, []).append(float(text))
    return float(x.sum()) + m[3][7] + sum(rows[5])


class Sampler:
    """Slices run from SIGALRM every `interval` seconds while the sampler is
    active; `durations` holds the slices of the latest activation."""

    def __init__(self, interval: float = PASS_INTERVAL_S):
        self.interval = interval
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        run_slice()
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self.durations = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.busy = sum(self.durations)
        if not self.durations:  # work shorter than one interval: read the speed after it
            self._tick(None, None)
        return False

    def scaled(self, seconds: float) -> float:
        """`seconds` measured around the activation, less the slices run
        within it, scaled to the reference CPU."""
        return (seconds - self.busy) * SLICE_REF_S / statistics.harmonic_mean(self.durations)
