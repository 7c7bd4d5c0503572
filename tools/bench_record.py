"""Benchmark record: the end-to-end samples, the tier-1 wall time and the
integrator's counters of one checkout, in one BENCH_<pr>.json.

    python3 tools/bench_record.py PR

Runs `perfbench/run.py --workload all --seed 1` and the tier-1 suite
(`python -m pytest -q` with this checkout's `src/` on PYTHONPATH) as
subprocesses. From run.py it keeps, per workload, the end-to-end medians of
its last line, the samples of its `# wall_s:` and `# raw_wall_s:` lines and
its `# env` stamp (which holds `nproc`); from tier-1, the wall time, exit code
and summary line. It times acceptance criterion 1's golden run here: the
reference case at its own t_end (200 s) and stride, with c_star from
`solve_equilibrium`, which is solved before the clock starts, and the
benchmark's seed-1 64-unit fleet run to settling (t_end 200), whose wall
time, settle time and counters it keeps; its implicit steps solve 64 x 64
Newton systems. Then it runs `dynamics.run` here and keeps the `RunResult`
counters steps, rejected_steps, switch_time, implicit_newton_iters,
power_solve_iters and chord_factors, with the number of power solves, of:
- `reference`: `configs/reference_case.yaml` to t_end 10;
- `split<i>/mu=<mu>,k1=<k1>`: acceptance criterion 4's nine calibration
  runs (three demand splits, dt 2.5e-4, t_end 20);
- `sweep<k>`: the benchmark's 12 seed-1 sweep scenarios;
- `fleet<seed>/t_end=<t>`: the benchmark's 64-unit fleets of seeds 0-5 at
  t_end 0.2 (their own) and 2.
Each group of runs also gets its mean loss evaluations per power solve over
all of its solves. The counters do not drift with the CPU, so two records'
counters check a claim about the work per step where wall times are noisy.
The file goes to the checkout's root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTERS = ("steps", "rejected_steps", "switch_time", "implicit_newton_iters", "power_solve_iters",
            "chord_factors")
FLEET_T_ENDS = (0.2, 2.0)

_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def parse_run_output(text: str) -> dict:
    """{workload: {"env", "wall_s", "raw_wall_s", "medians"}} from the stdout
    of `run.py --workload all`: each workload's `# env` stamp and sample lines
    precede its `# <workload> seed=...` line's metrics, and the last line's
    metrics are keyed "<workload>.<metric>"."""
    out, env, current = {}, None, None
    for line in text.splitlines():
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("# ") and " seed=" in line:
            current = out.setdefault(line[2:].split()[0], {"env": env, "medians": {}})
        elif current is not None and line.startswith(("# wall_s: ", "# raw_wall_s: ")):
            name, values = line[2:].split(": ", 1)
            current[name] = json.loads(values)
    for key, metric in json.loads(text.strip().splitlines()[-1])["metrics"].items():
        workload, name = key.split(".", 1)
        out[workload]["medians"][name] = metric["value"]
    return out


def run_benchmark() -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all", "--seed", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return parse_run_output(proc.stdout)


def run_tier1() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def golden_run(fx) -> dict:
    """Wall time, horizon and step count of acceptance criterion 1's golden
    run, timed as the criterion times it."""
    config = fx.config.load_config(str(fingerprint.REFERENCE))
    dbar = fx.grid_model.total_demand(config.generators)  # the total `fxdispatch run` solves at
    eq = fx.oracle.solve_equilibrium(config.generators, config.loss, dbar)
    start = time.perf_counter()
    result = fx.dynamics.run(config.system(), config.params, disturbance=config.disturbance,
                             c_star=eq.cost_star, stride=config.output.stride)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "t_end": config.params.t_end, "steps": result.steps}


def settle_run(fx, workloads) -> dict:
    """Wall time, settle time and counters (those of `counters`) of the
    benchmark's seed-1 64-unit fleet run to t_end 200; the clock includes
    the counting of the power solves."""
    config = fx.config.config_from_dict(workloads.fleet_dict(1), "fleet1")
    system, params = config.system(), dataclasses.replace(config.params, t_end=200.0)
    with counted_solves(fx.dynamics) as solves:
        start = time.perf_counter()
        result = fx.dynamics.run(system, params)
        wall = time.perf_counter() - start
    return {"wall_s": wall, "settle_time": result.settle_time, **counters(result, len(solves))}


@contextlib.contextmanager
def counted_solves(dynamics):
    """A list of the loss evaluations of each power solve the integrator makes
    while the block runs (dynamics._solve_power wrapped, and restored after)."""
    solves, real = [], dynamics._solve_power

    def counting(*args):
        P, evals = real(*args)
        solves.append(evals)
        return P, evals

    dynamics._solve_power = counting
    try:
        yield solves
    finally:
        dynamics._solve_power = real


def counters(result, solves: int) -> dict:
    """The RunResult counters of one run and its number of power solves."""
    return {**{name: getattr(result, name) for name in COUNTERS}, "power_solves": solves}


def counter_runs(fx, workloads) -> dict:
    """{name: (group, zero-argument callable returning a RunResult)}, in order."""
    run, replace = fx.dynamics.run, dataclasses.replace
    ref = fx.config.load_config(str(fingerprint.REFERENCE))
    runs = {"reference": ("reference", lambda: run(ref.system(), replace(ref.params, t_end=10.0),
                                                   disturbance=ref.disturbance))}
    for name, (system, params) in fingerprint.calibration_runs(fx, ref).items():
        runs[name] = "calibration", lambda s=system, p=params: run(s, p)
    for k, scenario in enumerate(workloads.sweep_scenarios(1)):
        config = workloads.scenario_config(fx, ref, scenario)
        runs[f"sweep{k}"] = "sweep", lambda c=config: run(c.system(), c.params, disturbance=c.disturbance)
    for t_end in FLEET_T_ENDS:
        for seed in range(6):
            config = fx.config.config_from_dict(workloads.fleet_dict(seed), f"fleet{seed}")
            params = replace(config.params, t_end=t_end)
            runs[f"fleet{seed}/t_end={t_end:g}"] = (f"fleets/t_end={t_end:g}",
                                                    lambda c=config, p=params: run(c.system(), p))
    return runs


def record_counters(fx, workloads) -> dict:
    """{"runs": {name: counters}, "mean_evals_per_solve": {group: mean loss
    evaluations per power solve over all of the group's solves}}."""
    records, totals = {}, {}
    for name, (group, make) in counter_runs(fx, workloads).items():
        with counted_solves(fx.dynamics) as solves:
            result = make()
        records[name] = counters(result, len(solves))
        evals, count = totals.get(group, (0, 0))
        totals[group] = evals + sum(solves), count + len(solves)
    means = {group: evals / count for group, (evals, count) in totals.items()}
    return {"runs": records, "mean_evals_per_solve": means}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", help="the number in the file name, BENCH_<pr>.json")
    args = parser.parse_args(argv)
    fx, workloads = fingerprint.import_modules()
    record = {"benchmark": run_benchmark(), "tier1": run_tier1(), "golden_run": golden_run(fx),
              "settle_run": settle_run(fx, workloads), "counters": record_counters(fx, workloads)}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
