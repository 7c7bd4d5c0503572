"""Benchmark record: the end-to-end samples, the tier-1 wall time and the
integrator's counters of one checkout, in one BENCH_<pr>.json.

    python3 tools/bench_record.py PR [--against BENCH_<n>.json]

Runs `perfbench/run.py --workload all --seed 1` and the tier-1 suite
(`python -m pytest -q` with this checkout's `src/` on PYTHONPATH) as
subprocesses. From run.py it keeps, per workload, the end-to-end medians of
its last line, the samples of its `# wall_s:`, `# raw_wall_s:`, `# setup_s:`
and `# raw_setup_s:` lines and its `# env` stamp (which holds `nproc`); from
tier-1, the wall time, exit code
and summary line. It times acceptance criterion 1's golden run here: the
reference case at its own t_end (200 s) and stride, with c_star from
`solve_equilibrium`, which is solved before the clock starts, and the
benchmark's seed-1 64-unit fleet run to settling (t_end 200), whose wall
time, settle time and counters it keeps; its implicit steps solve 64 x 64
Newton systems. Then it runs `dynamics.run` here and keeps the `RunResult`
counters steps, rejected_steps, switch_time, implicit_newton_iters,
power_solve_iters and chord_factors, with the number of power solves, the
count and mean loss evaluations of the point solves (those at the run's
fp_tol, whose powers become points of the run) and of the stage solves (RK4
stages 2-4, at the looser stage tolerance), and the mean, max and count of
the implicit steps' Newton iterations over the steps whose starting max|r|
is above 10 times eps deg_max max|H lam|, the roundoff term of the Newton
tolerance (steps that start at roundoff take 1 or 2 iterations by the last
bits of r), of:
- `reference`: `configs/reference_case.yaml` to t_end 10;
- `split<i>/mu=<mu>,k1=<k1>`: acceptance criterion 4's nine calibration
  runs (three demand splits, dt 2.5e-4, t_end 20);
- `sweep<k>`: the benchmark's 12 seed-1 sweep scenarios;
- `disturbed/amplitude=0.05`: the reference config under a disturbance of
  amplitude 0.05 (seed 42) to t_end 20 (`fingerprint.disturbed_run`), which
  hands over to implicit steps and never settles;
- `fleet<seed>/t_end=<t>`: the benchmark's 64-unit fleets of seeds 0-5 at
  t_end 0.2 (their own) and 2.
Each group of runs also gets its mean loss evaluations per power solve over
all of its solves. The counters do not drift with the CPU, so two records'
counters check a claim about the work per step where wall times are noisy.
The integrator's cost per try (`us_per_try`) is timed on the groups
`reference`, `sweep` and `fleets/t_end=0.2`: per group, the wall time of
`dynamics.run` over its runs, TRY_REPEATS in-process passes interleaved
over the groups, each scaled to the reference CPU by perfbench's
calibration slices as run.py scales `wall_s`, and the median pass divided
by the group's steps plus rejected steps, in microseconds.
The file goes to the checkout's root. --against an older record then prints,
per counter run both records hold (and the settle run), the change in steps,
rejected steps, power solves, loss evaluations per solve and chord factors;
per group both hold, the ratio of the cost per try to the older one beside
the older record's interquartile range; and per workload the ratio of the
median `wall_s` and of the median `setup_s` to the older one, each beside
the older record's interquartile range of its samples where it holds them
(an older record may hold only the median of `setup_s`), and the ratio of
`peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTERS = ("steps", "rejected_steps", "switch_time", "implicit_newton_iters", "power_solve_iters",
            "chord_factors")
FLEET_T_ENDS = (0.2, 2.0)
#: Newton iterations are counted over implicit steps whose starting max|r| is
#: above this many times the roundoff term of the Newton tolerance
ROUNDOFF_FACTOR = 10.0
#: the `# <name>: [...]` sample lines of run.py kept per workload
SAMPLES = ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s")
#: the counter groups whose cost per try is timed, and the in-process passes over each
TRY_GROUPS = ("reference", "sweep", "fleets/t_end=0.2")
TRY_REPEATS = 11

_spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)
_spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)


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
        elif current is not None and line.startswith(tuple(f"# {name}: " for name in SAMPLES)):
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
    with counted_solves(fx.dynamics) as solves, counted_newton(fx.dynamics) as newton:
        start = time.perf_counter()
        result = fx.dynamics.run(system, params)
        wall = time.perf_counter() - start
    return {"wall_s": wall, "settle_time": result.settle_time, **counters(result, solves, params.fp_tol, newton)}


@contextlib.contextmanager
def counted_solves(dynamics):
    """A list of (tolerance, loss evaluations) of each power solve the
    integrator makes while the block runs (dynamics._solve_power wrapped, and
    restored after)."""
    solves, real = [], dynamics._solve_power

    def counting(z, system, P, A, tol, max_iter):
        P, evals = real(z, system, P, A, tol, max_iter)
        solves.append((tol, evals))
        return P, evals

    dynamics._solve_power = counting
    try:
        yield solves
    finally:
        dynamics._solve_power = real


@contextlib.contextmanager
def counted_newton(dynamics):
    """A list of (above, Newton iterations) of each implicit step that
    succeeds while the block runs, above saying whether the step's starting
    max|r| is above ROUNDOFF_FACTOR times its roundoff term
    (dynamics._Stepper.roundoff; dynamics._Stepper.implicit wrapped, and
    restored after)."""
    steps, real = [], dynamics._Stepper.implicit

    def counting(stepper, p, t_new):
        out = real(stepper, p, t_new)
        steps.append((float(abs(p.r).max()) > ROUNDOFF_FACTOR * stepper.roundoff(p.h[2]),
                      stepper.newton_iters[-1]))
        return out

    dynamics._Stepper.implicit = counting
    try:
        yield steps
    finally:
        dynamics._Stepper.implicit = real


def counters(result, solves: list, fp_tol: float, newton: list) -> dict:
    """The RunResult counters of one run and, from counted_solves' and
    counted_newton's lists: its number of power solves; [count, mean loss
    evaluations] of its point solves, those at fp_tol, and of its stage
    solves, those at any other tolerance (none where fp_tol is above the
    stage tolerance), the mean None where there are none; and [mean, max,
    count] of the Newton iterations of its implicit steps above roundoff,
    None where there are none."""
    def tally(evals):
        return [len(evals), sum(evals) / len(evals) if evals else None]

    above = [iters for is_above, iters in newton if is_above]
    return {**{name: getattr(result, name) for name in COUNTERS}, "power_solves": len(solves),
            "point_solves": tally([e for tol, e in solves if tol == fp_tol]),
            "stage_solves": tally([e for tol, e in solves if tol != fp_tol]),
            "newton_iters_above_roundoff": [sum(above) / len(above), max(above), len(above)] if above else None}


def counter_runs(fx, workloads) -> dict:
    """{name: (group, system, params, disturbance)}, in order."""
    replace = dataclasses.replace
    ref = fx.config.load_config(str(fingerprint.REFERENCE))
    runs = {"reference": ("reference", ref.system(), replace(ref.params, t_end=10.0), ref.disturbance)}
    for name, (system, params) in fingerprint.calibration_runs(fx, ref).items():
        runs[name] = "calibration", system, params, None
    for k, scenario in enumerate(workloads.sweep_scenarios(1)):
        config = workloads.scenario_config(fx, ref, scenario)
        runs[f"sweep{k}"] = "sweep", config.system(), config.params, config.disturbance
    runs["disturbed/amplitude=0.05"] = ("disturbed", *fingerprint.disturbed_run(fx, ref))
    for t_end in FLEET_T_ENDS:
        for seed in range(6):
            config = fx.config.config_from_dict(workloads.fleet_dict(seed), f"fleet{seed}")
            runs[f"fleet{seed}/t_end={t_end:g}"] = (f"fleets/t_end={t_end:g}", config.system(),
                                                    replace(config.params, t_end=t_end), None)
    return runs


def record_counters(fx, workloads) -> dict:
    """{"runs": {name: counters}, "mean_evals_per_solve": {group: mean loss
    evaluations per power solve over all of the group's solves}}."""
    records, totals = {}, {}
    for name, (group, system, params, disturbance) in counter_runs(fx, workloads).items():
        with counted_solves(fx.dynamics) as solves, counted_newton(fx.dynamics) as newton:
            result = fx.dynamics.run(system, params, disturbance=disturbance)
        records[name] = counters(result, solves, params.fp_tol, newton)
        evals, count = totals.get(group, (0, 0))
        totals[group] = evals + sum(e for _, e in solves), count + len(solves)
    means = {group: evals / count for group, (evals, count) in totals.items()}
    return {"runs": records, "mean_evals_per_solve": means}


def cost_per_try(fx, workloads) -> dict:
    """{group: {"tries", "raw_pass_s", "us_per_try", "medians"}} for each of
    TRY_GROUPS: the group's steps plus rejected steps over its counter runs,
    counted in one untimed pass; the raw wall times of TRY_REPEATS passes of
    `dynamics.run` over them, the groups taking turns pass by pass; each
    pass scaled to the reference CPU (calibrate.Sampler) and divided by the
    tries, in microseconds; and {"us_per_try": the median of those}, laid
    out as a workload's samples and medians are."""
    groups = {group: [] for group in TRY_GROUPS}
    for group, *run in counter_runs(fx, workloads).values():
        if group in groups:
            groups[group].append(run)

    def one_pass(runs):
        return [fx.dynamics.run(system, params, disturbance=disturbance) for system, params, disturbance in runs]

    tries = {group: sum(r.steps + r.rejected_steps for r in one_pass(runs)) for group, runs in groups.items()}
    raw, per_try = {group: [] for group in groups}, {group: [] for group in groups}
    for _ in range(TRY_REPEATS):
        for group, runs in groups.items():
            start = time.perf_counter()
            with calibrate.Sampler() as sampler:
                one_pass(runs)
            raw[group].append(time.perf_counter() - start)
            per_try[group].append(sampler.scaled(raw[group][-1]) / tries[group] * 1e6)
    return {group: {"tries": tries[group], "raw_pass_s": raw[group], "us_per_try": per_try[group],
                    "medians": {"us_per_try": statistics.median(per_try[group])}} for group in groups}


def _change(old, new, digits: int = 0) -> str:
    """'old -> new (+delta)'."""
    return f"{old:.{digits}f} -> {new:.{digits}f} ({new - old:+.{digits}f})"


def _counted_runs(record: dict) -> dict:
    """The record's counter runs and, where it has one, its settle run."""
    runs = dict(record["counters"]["runs"])
    if "settle_run" in record:
        runs["settle_run"] = record["settle_run"]
    return runs


def _median_ratio(name: str, unit: str, old: dict, new: dict) -> str:
    """'<name> median old -> new <unit>, ratio r', then the interquartile
    range of old's samples of name where old holds them."""
    a, b = old["medians"][name], new["medians"][name]
    text = f"{name} median {a:.4g} -> {b:.4g} {unit}, ratio {b / a:.3f}"
    if name not in old:
        return text
    q1, _, q3 = statistics.quantiles(old[name], n=4)
    return f"{text}; older IQR {q1:.4g}-{q3:.4g} {unit} ({(q3 - q1) / a:.1%} of its median)"


def compare(new: dict, old: dict) -> list[str]:
    """Lines comparing the record new with the older record old: per counter
    run both hold, and for the settle run if both have one, the change in
    steps, rejected steps, power solves, mean loss evaluations per solve and
    chord factors; per group both time, the cost per try of new over old's
    beside the interquartile range of old's; per workload both hold, the
    median wall_s and setup_s of new over old's, each beside the
    interquartile range of old's samples where old holds them, and the
    peak_rss_mb of new over old's; then the runs only one of them holds."""
    lines = []
    new_runs, old_runs = _counted_runs(new), _counted_runs(old)
    for name in [n for n in new_runs if n in old_runs]:
        a, b = old_runs[name], new_runs[name]
        lines.append(f"{name}: steps {_change(a['steps'], b['steps'])}, rejected "
                     f"{_change(a['rejected_steps'], b['rejected_steps'])}, solves "
                     f"{_change(a['power_solves'], b['power_solves'])}, evals/solve "
                     f"{_change(a['power_solve_iters'][0], b['power_solve_iters'][0], 3)}, chord factors "
                     f"{_change(a['chord_factors'], b['chord_factors'])}")
    old_tries, new_tries = old.get("us_per_try", {}), new.get("us_per_try", {})
    lines += [f"{group}: {_median_ratio('us_per_try', 'us', old_tries[group], new_tries[group])}"
              for group in new_tries if group in old_tries]
    for workload in [w for w in new["benchmark"] if w in old["benchmark"]]:
        a, b = old["benchmark"][workload], new["benchmark"][workload]
        lines += [f"{workload}: {_median_ratio(name, unit, a, b)}"
                  for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))]
    for label, names in (("only in the new record", [n for n in new_runs if n not in old_runs]),
                         ("only in the older record", [n for n in old_runs if n not in new_runs])):
        if names:
            lines.append(f"{label}: {', '.join(names)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", help="the number in the file name, BENCH_<pr>.json")
    parser.add_argument("--against", type=pathlib.Path, help="an older record to compare the new one with")
    args = parser.parse_args(argv)
    old = json.loads(args.against.read_text()) if args.against else None
    fx, workloads = fingerprint.import_modules()
    record = {"benchmark": run_benchmark(), "tier1": run_tier1(), "golden_run": golden_run(fx),
              "settle_run": settle_run(fx, workloads), "counters": record_counters(fx, workloads),
              "us_per_try": cost_per_try(fx, workloads)}
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    if old is not None:
        print(f"against {args.against}:", *compare(record, old), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
