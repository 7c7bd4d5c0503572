"""The benchmark record, tools/bench_record.py: its counters on one short run,
its count of Newton iterations above roundoff, its timing of the golden run
(cut short) and of the cost per try (on short runs), its reading of
perfbench/run.py's output and its comparison of two records (the tool itself
is not run)."""

import dataclasses
import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_counters_of_one_short_run():
    fx, _ = bench_record.fingerprint.import_modules()
    config = fx.config.load_config(str(bench_record.fingerprint.REFERENCE))
    params = dataclasses.replace(config.params, t_end=0.05)
    real = fx.dynamics._solve_power, fx.dynamics._Stepper.implicit
    with bench_record.counted_solves(fx.dynamics) as solves, bench_record.counted_newton(fx.dynamics) as newton:
        result = fx.dynamics.run(config.system(), params)
    assert (fx.dynamics._solve_power, fx.dynamics._Stepper.implicit) == real
    rec = bench_record.counters(result, solves, params.fp_tol, newton)
    tries = result.steps + result.rejected_steps
    evals = [e for _, e in solves]
    point = [e for tol, e in solves if tol == params.fp_tol]
    stage = [e for tol, e in solves if tol == fx.dynamics._STAGE_TOL]
    assert newton == [] and rec == {
        "steps": result.steps, "rejected_steps": result.rejected_steps, "switch_time": None,
        "implicit_newton_iters": None, "power_solve_iters": result.power_solve_iters,
        "chord_factors": result.chord_factors, "power_solves": len(solves),
        "point_solves": [1 + tries, sum(point) / len(point)], "stage_solves": [3 * tries, sum(stage) / len(stage)],
        "newton_iters_above_roundoff": None}
    # one solve at t = 0 and four per RK4 try, each counted with its loss evaluations
    assert len(solves) == 1 + 4 * tries
    assert rec["power_solve_iters"] == (pytest.approx(sum(evals) / len(evals), rel=1e-12), max(evals))
    assert json.loads(json.dumps(rec))["power_solves"] == len(solves)  # the record is plain JSON


def test_newton_iterations_above_roundoff_leave_out_the_steps_at_roundoff():
    # the reference run to settling: its settle-window steps start within
    # ROUNDOFF_FACTOR of the Newton tolerance's roundoff term
    fx, _ = bench_record.fingerprint.import_modules()
    config = fx.config.load_config(str(bench_record.fingerprint.REFERENCE))
    params = dataclasses.replace(config.params, t_end=20.0)
    with bench_record.counted_solves(fx.dynamics) as solves, bench_record.counted_newton(fx.dynamics) as newton:
        result = fx.dynamics.run(config.system(), params)
    iters = [n for _, n in newton]
    assert result.settled and (sum(iters) / len(iters), max(iters)) == result.implicit_newton_iters
    above = [n for is_above, n in newton if is_above]
    assert 0 < len(above) < len(newton)
    rec = bench_record.counters(result, solves, params.fp_tol, newton)
    assert rec["newton_iters_above_roundoff"] == [sum(above) / len(above), max(above), len(above)]


def test_against_compares_counters_and_medians_of_two_records():
    def record(walls, setups, rss, steps, evals, chord, settle_steps, sweep_passes):
        run = {"steps": steps, "rejected_steps": 3, "power_solves": 4 * steps, "power_solve_iters": [evals, 7],
               "chord_factors": chord}
        medians = {"wall_s": sorted(walls)[len(walls) // 2], "setup_s": sorted(setups)[len(setups) // 2],
                   "peak_rss_mb": rss}
        per_try = [s / 800 * 1e6 for s in sweep_passes]
        tries = {"tries": 800, "us_per_try": per_try, "medians": {"us_per_try": sorted(per_try)[2]}}
        return {"benchmark": {"reference_run": {"medians": medians, "wall_s": walls, "setup_s": setups}},
                "counters": {"runs": {"reference": run, f"sweep{steps}": run}},
                "settle_run": {**run, "steps": settle_steps}, "us_per_try": {"sweep": tries}}

    old = record([0.05, 0.06, 0.07, 0.08, 0.09], [0.2, 0.205, 0.21, 0.215, 0.22], 38.5, 246, 2.131, 103, 7467,
                 [0.072, 0.076, 0.08, 0.084, 0.088])
    new = record([0.045, 0.05, 0.055, 0.06, 0.065], [0.17, 0.175, 0.18, 0.185, 0.19], 37.5, 247, 1.689, 27, 7467,
                 [0.068, 0.07, 0.072, 0.074, 0.076])
    assert bench_record.compare(new, old) == [
        "reference: steps 246 -> 247 (+1), rejected 3 -> 3 (+0), solves 984 -> 988 (+4), "
        "evals/solve 2.131 -> 1.689 (-0.442), chord factors 103 -> 27 (-76)",
        "settle_run: steps 7467 -> 7467 (+0), rejected 3 -> 3 (+0), solves 984 -> 988 (+4), "
        "evals/solve 2.131 -> 1.689 (-0.442), chord factors 103 -> 27 (-76)",
        # 0.08 s over 800 tries against 0.072 s; quartiles of the older passes 0.074 and 0.086 s
        "sweep: us_per_try median 100 -> 90 us, ratio 0.900; older IQR 92.5-107.5 us (15.0% of its median)",
        # quartiles of the older samples by statistics.quantiles: 0.055 and 0.085
        "reference_run: wall_s median 0.07 -> 0.055 s, ratio 0.786; older IQR 0.055-0.085 s (42.9% of its median)",
        # quartiles 0.2025 and 0.2175
        "reference_run: setup_s median 0.21 -> 0.18 s, ratio 0.857; older IQR 0.2025-0.2175 s (7.1% of its median)",
        "reference_run: peak_rss_mb median 38.5 -> 37.5 MB, ratio 0.974",
        "only in the new record: sweep247",
        "only in the older record: sweep246",
    ]
    # a record without setup_s samples, such as BENCH_32.json, compares the median alone
    del old["benchmark"]["reference_run"]["setup_s"]
    assert "reference_run: setup_s median 0.21 -> 0.18 s, ratio 0.857" in bench_record.compare(new, old)
    # a record without a settle run, such as BENCH_28.json, compares the runs it has
    del old["settle_run"]
    assert not any(line.startswith("settle_run") for line in bench_record.compare(new, old))
    # nor is a cost per try compared with a record without one, such as BENCH_39.json, or a group it lacks
    new["us_per_try"]["reference"] = new["us_per_try"]["sweep"]
    assert [line for line in bench_record.compare(new, old) if "us_per_try" in line] == [
        "sweep: us_per_try median 100 -> 90 us, ratio 0.900; older IQR 92.5-107.5 us (15.0% of its median)"]
    del old["us_per_try"]
    assert not any("us_per_try" in line for line in bench_record.compare(new, old))


def test_cost_per_try_is_the_median_pass_over_the_tries(monkeypatch):
    # the timed groups' runs cut to t_end 0.01; the other groups are not run
    fx, workloads = bench_record.fingerprint.import_modules()
    real_runs, runs = bench_record.counter_runs, []

    def short_runs(fx, workloads):
        return {name: (group, system, dataclasses.replace(params, t_end=0.01), disturbance)
                for name, (group, system, params, disturbance) in real_runs(fx, workloads).items()}

    def counted(system, params, **kwargs):
        runs.append(system.n)
        return real(system, params, **kwargs)

    real = fx.dynamics.run
    monkeypatch.setattr(bench_record, "counter_runs", short_runs)
    monkeypatch.setattr(fx.dynamics, "run", counted)
    monkeypatch.setattr(bench_record, "TRY_REPEATS", 3)
    rec = bench_record.cost_per_try(fx, workloads)
    assert list(rec) == ["reference", "sweep", "fleets/t_end=0.2"]
    # one untimed pass and three timed ones over 1 reference run, 12 sweep runs and 6 fleets
    assert runs == ([4] + [4] * 12 + [64] * 6) * 4
    for group, names in (("reference", ["reference"]), ("sweep", [f"sweep{k}" for k in range(12)])):
        config = {name: real_runs(fx, workloads)[name] for name in names}
        tries = 0
        for _, system, params, disturbance in config.values():
            result = real(system, dataclasses.replace(params, t_end=0.01), disturbance=disturbance)
            tries += result.steps + result.rejected_steps
        assert rec[group]["tries"] == tries
    for entry in rec.values():
        assert len(entry["raw_pass_s"]) == len(entry["us_per_try"]) == 3 and min(entry["us_per_try"]) > 0.0
        assert entry["medians"] == {"us_per_try": sorted(entry["us_per_try"])[1]}
    assert json.loads(json.dumps(rec)) == rec  # the record is plain JSON


def test_golden_run_times_criterion_1s_run(monkeypatch):
    # the run is cut to t_end 0.05 here; the record keeps the horizon it was asked for
    fx, _ = bench_record.fingerprint.import_modules()
    config = fx.config.load_config(str(bench_record.fingerprint.REFERENCE))
    calls, real = [], fx.dynamics.run

    def short(system, params, **kwargs):
        calls.append((params, kwargs))
        return real(system, dataclasses.replace(params, t_end=0.05), **kwargs)

    monkeypatch.setattr(fx.dynamics, "run", short)
    rec = bench_record.golden_run(fx)
    eq = fx.oracle.solve_equilibrium(config.generators, config.loss, 600.0)
    [(params, kwargs)] = calls
    assert params == config.params and params.t_end == 200.0
    assert kwargs == {"disturbance": config.disturbance, "c_star": eq.cost_star, "stride": 100}
    assert set(rec) == {"wall_s", "t_end", "steps"} and rec["wall_s"] > 0.0 and rec["t_end"] == 200.0
    assert rec["steps"] == real(config.system(), dataclasses.replace(params, t_end=0.05), **kwargs).steps


def test_settle_run_records_the_64_unit_fleet_to_t_end_200(monkeypatch):
    # the run is cut to t_end 0.02 here, before any implicit step
    fx, workloads = bench_record.fingerprint.import_modules()
    calls, real = [], fx.dynamics.run

    def short(system, params, **kwargs):
        calls.append((system.n, params))
        return real(system, dataclasses.replace(params, t_end=0.02), **kwargs)

    monkeypatch.setattr(fx.dynamics, "run", short)
    rec = bench_record.settle_run(fx, workloads)
    config = fx.config.config_from_dict(workloads.fleet_dict(1), "fleet1")
    assert calls == [(64, dataclasses.replace(config.params, t_end=200.0))]
    assert set(rec) == {"wall_s", "settle_time", "power_solves", "point_solves", "stage_solves",
                        "newton_iters_above_roundoff", *bench_record.COUNTERS}
    assert rec["wall_s"] > 0.0 and rec["settle_time"] is None and rec["switch_time"] is None
    tries = rec["steps"] + rec["rejected_steps"]
    assert rec["power_solves"] == 1 + 4 * tries
    assert (rec["point_solves"][0], rec["stage_solves"][0]) == (1 + tries, 3 * tries)


def test_reads_medians_samples_and_stamps_of_each_workload():
    env = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    lines = []
    for name, walls, raw in (("reference_run", [0.06, 0.07], [0.061]), ("large_fleet", [0.08, 0.09], [0.081])):
        lines += [f"# env {json.dumps(env)}", f"# {name} seed=1 trace=0 attempted=3 failed=0",
                  f"# wall_s: {walls}", f"# raw_wall_s: {raw}", "# setup_s: [0.3]", "# raw_setup_s: [0.28]",
                  f"wall_s {walls[0]}", "{}"]
    metrics = {"reference_run.wall_s": {"value": 0.065, "unit": "s"},
               "large_fleet.peak_rss_mb": {"value": 60.0, "unit": "MB"}}
    lines.append(json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}))
    assert bench_record.parse_run_output("\n".join(lines) + "\n") == {
        "reference_run": {"env": env, "medians": {"wall_s": 0.065}, "wall_s": [0.06, 0.07],
                          "raw_wall_s": [0.061], "setup_s": [0.3], "raw_setup_s": [0.28]},
        "large_fleet": {"env": env, "medians": {"peak_rss_mb": 60.0}, "wall_s": [0.08, 0.09],
                        "raw_wall_s": [0.081], "setup_s": [0.3], "raw_setup_s": [0.28]},
    }
