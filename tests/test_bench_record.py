"""The benchmark record, tools/bench_record.py: its counters on one short run,
its timing of the golden run (cut short) and its reading of perfbench/run.py's
output (the tool itself is not run)."""

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
    real = fx.dynamics._solve_power
    with bench_record.counted_solves(fx.dynamics) as solves:
        result = fx.dynamics.run(config.system(), dataclasses.replace(config.params, t_end=0.05))
    assert fx.dynamics._solve_power is real
    rec = bench_record.counters(result, len(solves))
    assert rec == {"steps": result.steps, "rejected_steps": result.rejected_steps, "switch_time": None,
                   "implicit_newton_iters": None, "power_solve_iters": result.power_solve_iters,
                   "chord_factors": result.chord_factors, "power_solves": len(solves)}
    # one solve at t = 0 and four per RK4 try, each counted with its loss evaluations
    assert len(solves) == 1 + 4 * (result.steps + result.rejected_steps)
    assert rec["power_solve_iters"] == (pytest.approx(sum(solves) / len(solves), rel=1e-12), max(solves))
    assert json.loads(json.dumps(rec))["power_solves"] == len(solves)  # the record is plain JSON


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
    assert set(rec) == {"wall_s", "settle_time", "power_solves", *bench_record.COUNTERS}
    assert rec["wall_s"] > 0.0 and rec["settle_time"] is None and rec["switch_time"] is None
    assert rec["power_solves"] == 1 + 4 * (rec["steps"] + rec["rejected_steps"])


def test_reads_medians_samples_and_stamps_of_each_workload():
    env = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    lines = []
    for name, walls, raw in (("reference_run", [0.06, 0.07], [0.061]), ("large_fleet", [0.08, 0.09], [0.081])):
        lines += [f"# env {json.dumps(env)}", f"# {name} seed=1 trace=0 attempted=3 failed=0",
                  f"# wall_s: {walls}", f"# raw_wall_s: {raw}", "# setup_s: [0.3]", f"wall_s {walls[0]}", "{}"]
    metrics = {"reference_run.wall_s": {"value": 0.065, "unit": "s"},
               "large_fleet.peak_rss_mb": {"value": 60.0, "unit": "MB"}}
    lines.append(json.dumps({"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}))
    assert bench_record.parse_run_output("\n".join(lines) + "\n") == {
        "reference_run": {"env": env, "medians": {"wall_s": 0.065}, "wall_s": [0.06, 0.07],
                          "raw_wall_s": [0.061]},
        "large_fleet": {"env": env, "medians": {"peak_rss_mb": 60.0}, "wall_s": [0.08, 0.09],
                        "raw_wall_s": [0.081]},
    }
