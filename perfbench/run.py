"""fxdispatch benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of reference_run, scenario_sweep, large_fleet, or `all` (each
in its own process, with a summary table). Run from anywhere; the package
is imported from this checkout's `src/`, and scratch files go under
`.perfbench_out/`.

--trace 0 times whole passes for S seconds and reports `wall_s` (median
pass), `setup_s` (median of fresh-interpreter probes run between passes,
see probe.py) and `peak_rss_mb`. Both times are scaled to a reference CPU
speed read by a calibration slice run during the work (calibrate.py); the
raw wall times are printed before the result. --trace 1 alternates
untraced and traced passes for S seconds, reports the per-layer metrics of
the traced passes and the tracing overhead (raw wall times), and writes
every span to `.perfbench_out/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from calibrate import Sampler  # noqa: E402
from probe import ROOT, import_fxdispatch, warm_up  # noqa: E402
from spans import COUNT_METRICS, SELF_TIME_METRICS, Tracer, layer_shares  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def metric_units(kind: str) -> dict:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment(fx) -> dict:
    """What a number depends on; compare numbers only between equal stamps."""
    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "dynamics_path": "numba-kernel" if fx.dynamics._HAVE_NUMBA else "numpy-step",
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_probe(paths) -> tuple[float, float]:
    """(raw, scaled) seconds of set-up measured by one fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), *paths],
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["raw_setup_s"], result["setup_s"]


def _keep_going(start, seconds, walls) -> bool:
    """Whether another pass fits, ending within half a pass of `seconds`."""
    return not walls or time.perf_counter() - start + 0.5 * statistics.median(walls) < seconds


class Tally:
    """Operations attempted and one message per failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, outcome) -> None:
        attempted, failures = outcome
        self.attempted += attempted
        self.failures += failures


def timed_pass(workload, tally) -> float:
    t0 = time.perf_counter()
    tally.add(workload.run_pass())
    return time.perf_counter() - t0


def scaled_pass(workload, tally) -> tuple[float, float]:
    """(raw, scaled) wall seconds of one pass, with calibration slices run during it."""
    t0 = time.perf_counter()
    with Sampler() as sampler:
        tally.add(workload.run_pass())
    wall = time.perf_counter() - t0
    return wall, sampler.scaled(wall)


def measure(fx, workload, seconds) -> tuple[dict, Tally, dict]:
    """End-to-end metrics from untraced passes for `seconds`.

    A set-up probe follows each pass, so the probes sample the host over the
    whole run rather than in one burst; probes are topped up to SETUP_PROBES.
    Times are scaled to the reference CPU pass by pass and probe by probe.
    """
    tally, walls, setup = Tally(), [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, [raw for raw, _ in walls]):
        walls.append(scaled_pass(workload, tally))
        setup.append(setup_probe(workload.config_paths))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.config_paths))
    metrics = {
        "wall_s": statistics.median(scaled for _, scaled in walls),
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"wall_s": [scaled for _, scaled in walls], "raw_wall_s": [raw for raw, _ in walls],
              "setup_s": [scaled for _, scaled in setup], "raw_setup_s": [raw for raw, _ in setup]}
    return metrics, tally, detail


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(repeat=5, number=number)) / number * 1e6


def direct_timings(fx, config) -> dict:
    """Reference `step()`, warm-started `solve_power` and `generator_losses`, called directly."""
    system, params = config.system(), config.params
    s0 = fx.dynamics.make_state(0.0, np.zeros(system.n), system, params=params)
    s1 = fx.dynamics.step(s0, system, params)
    return {
        "dynamics.step_us": per_call_us(lambda: fx.dynamics.step(s1, system, params)),
        "dynamics.solve_power_us": per_call_us(lambda: fx.dynamics.solve_power(
            s1.z, system, prev_P=s0.P, fp_tol=params.fp_tol, fp_max_iter=params.fp_max_iter)),
        "grid_model.generator_losses_us": per_call_us(lambda: system.loss.generator_losses(s1.P)),
    }


def layer_metrics(self_times: dict, counts: dict) -> dict:
    m = {metric: sum(self_times.get(n, 0.0) for n in names) for metric, names in SELF_TIME_METRICS.items()}
    m.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    steps = m["dynamics.steps"]
    m["dynamics.us_per_step"] = m["dynamics.run_s"] / steps * 1e6
    m["dynamics.useful_step_frac"] = 1.0 - m["dynamics.steps_after_floor"] / steps
    return m


def trace(fx, workload, seconds, seed, env) -> tuple[dict, Tally, dict]:
    """Per-layer metrics: alternate untraced and traced passes for `seconds`,
    then write every span to OUT."""
    tracer, tally = Tracer(), Tally()
    plain, traced = [], []
    start = time.perf_counter()
    while _keep_going(start, seconds, [a + b for a, b in zip(plain, traced)]):
        plain.append(timed_pass(workload, tally))
        with tracer.patched(fx), tracer.traced_pass():
            tally.add(workload.run_pass())
        traced.append(tracer.pass_walls[-1])
    self_times = tracer.self_times()
    per_pass = [layer_metrics(st, c) for st, c in zip(self_times, tracer.pass_counts)]
    metrics = {name: (statistics.median_low if name in COUNT_METRICS else statistics.median)(
        p[name] for p in per_pass) for name in per_pass[0]}
    metrics.update(direct_timings(fx, workload.config))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    shares = [layer_shares(st) for st in self_times]
    layers = {layer: statistics.median(s[layer] for s in shares) for layer in shares[0]}
    origin = tracer.spans[0][1]
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "env": env,
        "untraced_wall_s": plain, "traced_wall_s": traced, "layer_shares": layers,
        "self_times": self_times, "counts": tracer.pass_counts,
        "spans": [[name, s - origin, e - origin, parent] for name, s, e, parent in tracer.spans],
    }, indent=1) + "\n")
    return metrics, tally, {"untraced_wall_s": plain, "traced_wall_s": traced, "layer_shares": layers}


def run_one(args) -> int:
    try:
        fx = import_fxdispatch()
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    env = environment(fx)
    warm_up(fx)
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](fx, args.seed, pathlib.Path(work))
        if args.trace:
            metrics, tally, detail = trace(fx, workload, args.seconds, args.seed, env)
            units = metric_units("per_layer")
        else:
            metrics, tally, detail = measure(fx, workload, args.seconds)
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={len(tally.failures)}")
    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    for name, values in detail.items():
        print(f"# {name}: {json.dumps(values)}")
    for name in units:
        print(f"{name:34s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':16s} {'attempted':>9s} {'failed':>6s}  metrics")
    for name, r in results.items():
        shown = "  ".join(f"{m}={v['value']:.4g} {v['unit']}" for m, v in r["metrics"].items())
        print(f"{name:16s} {r['attempted']:9d} {r['failed']:6d}  {shown}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def _terminate(signum, frame):
    # leave through SystemExit, so work directories are removed and a
    # running probe is killed and reaped by subprocess.run
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
