"""Tests of the benchmark's own code: seeded inputs, gates, spans, exit status.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import SLICE_REF_S, Sampler  # noqa: E402
from probe import import_fxdispatch  # noqa: E402
from spans import Tracer, layer_shares  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_GAINS,
    SWEEP_SPLITS,
    GateFailure,
    fleet_dict,
    require_gates,
    sweep_scenarios,
    write_fleet,
)

fx = import_fxdispatch()


def test_same_seed_gives_byte_identical_fleet_yaml(tmp_path):
    a, b, c = tmp_path / "a.yaml", tmp_path / "b.yaml", tmp_path / "c.yaml"
    write_fleet(fx, 7, a)
    write_fleet(fx, 7, b)
    write_fleet(fx, 8, c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_generated_fleet_passes_every_gate_and_round_trips(tmp_path, seed):
    path = tmp_path / "fleet.yaml"
    config = write_fleet(fx, seed, path)
    assert fx.config.load_config(str(path)) == config
    assert fx.cli.evaluate_gates(config).all_ok


@pytest.mark.parametrize("edit, gate", [
    (lambda d: d["loss"].update(b_matrix=[[100.0 * v for v in row] for row in d["loss"]["b_matrix"]]),
     "remark-2 row sum"),
    (lambda d: d["generators"][0].update(b=-1e4), "A2"),
])
def test_generator_refuses_a_fleet_that_fails_a_gate(edit, gate):
    data = fleet_dict(3)
    edit(data)
    with pytest.raises(GateFailure, match=gate):
        require_gates(fx, fx.config.config_from_dict(data))


def test_sweep_grid_is_seeded_and_covers_every_axis():
    grid = sweep_scenarios(5)
    assert grid == sweep_scenarios(5)
    assert grid != sweep_scenarios(6)
    assert {s["split"] for s in grid} == set(SWEEP_SPLITS)
    assert {s["gains"] for s in grid} == set(SWEEP_GAINS)
    seeds = [s["disturbance_seed"] for s in grid]
    assert seeds.count(None) == len(grid) // 2
    assert len(set(seeds) - {None}) == 2


@pytest.mark.xfail(strict=True, raises=fx.oracle.NewtonFailure,
                   reason="solve_equilibrium's absolute tol=1e-12 is below the roundoff of a "
                          "10 GW balance residual, so 64 reference-sized units can fail; "
                          "large_fleet uses 10-45 MW units until the tolerance is relative")
def test_oracle_converges_on_reference_sized_units():
    config = fx.config.config_from_dict(fleet_dict(1, lam0=30.0))
    fx.oracle.solve_equilibrium(config.generators, config.loss, config.system().dbar)


def test_self_times_exclude_children_and_sum_to_the_pass():
    tracer = Tracer()
    inner = tracer._wrap(lambda: time.sleep(0.02), "linalg.eig", None)
    outer = tracer._wrap(lambda: (time.sleep(0.01), inner()), "analysis.gates", None)
    with tracer.traced_pass():
        outer()
    (times,) = tracer.self_times()
    assert times["linalg.eig"] >= 0.02
    assert 0.01 <= times["analysis.gates"] < 0.02
    assert sum(times.values()) == pytest.approx(tracer.pass_walls[0])
    assert sum(layer_shares(times).values()) == pytest.approx(1.0)


def test_patching_restores_the_package_and_counts_calls():
    original = fx.topology.spectrum
    tracer = Tracer()
    with tracer.patched(fx), tracer.traced_pass():
        assert fx.topology.spectrum is not original
        fx.cli.evaluate_gates(fx.config.load_config(str(HERE.parent / "configs" / "reference_case.yaml")))
    assert fx.topology.spectrum is original
    (counts,) = tracer.pass_counts
    assert counts["linalg.eig_calls"] == 3
    assert counts["linalg.eig_max_n"] == 4
    assert counts["config.loads"] == 1


def test_sampler_slices_during_work_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(interval=0.01)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.2:
            pass
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.durations) >= 3
    assert sampler.busy == sum(sampler.durations)
    assert 0.0 < sampler.busy < wall


def test_sampler_reads_the_speed_after_work_shorter_than_an_interval():
    with Sampler(interval=10.0) as sampler:
        pass
    assert sampler.busy == 0.0
    assert len(sampler.durations) == 1


def test_scaling_weights_slices_by_work_done():
    sampler = Sampler()
    sampler.busy = 0.5
    # a pass at half the reference speed, with one slice stalled fourfold
    sampler.durations = [2 * SLICE_REF_S] * 9 + [8 * SLICE_REF_S]
    assert sampler.scaled(4.5) == pytest.approx(4.0 / 2 * (9 + 0.25) / 10)


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reference_run",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
