"""The committed equivalence fingerprint, tools/fingerprint.py."""

import importlib.util
import json
import pathlib

import numpy as np

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_reference_run_outputs_keep_their_bytes(tmp_path):
    # `fxdispatch run` on the reference case cut to --t-end 10
    fx, workloads = fingerprint.import_modules()
    rec = fingerprint.hashes(fingerprint.named_runs(fx, workloads, tmp_path)["cli/reference"]())
    assert rec["run.report.json"] == "52c9f8b9840c265a03a2467cdd44d157433612982e5fbffa82ea707fdfc4cc44"
    assert rec["run.trajectory.csv"] == "004705a27a87fecf12e312ca615d6431aa3ce2cc5894a6890d5005323b6e187e"


def test_fleet_run_outputs_keep_their_bytes(tmp_path):
    # `fxdispatch run` on the benchmark's seed-1 fleet of 64 units at its own t_end
    fx, workloads = fingerprint.import_modules()
    rec = fingerprint.named_runs(fx, workloads, tmp_path)["cli/fleet1"]()
    assert json.loads(rec["run.report.json"])["solver"]["chord_factors"] == 1
    rec = fingerprint.hashes(rec)
    assert rec["run.report.json"] == "9be1dde7e5a2802301f2ae6219ffe820292453b831afdb83347db9257541da5d"
    assert rec["run.trajectory.csv"] == "45c08aa05ad8cd0ef5f83e047ddf832e19d5f550af95778bd4647085b5781e80"


def test_record_covers_fields_properties_and_nested_dataclasses():
    fx, _ = fingerprint.import_modules()
    system = fx.config.load_config(str(fingerprint.REFERENCE)).system()
    state = fx.dynamics.make_state(0.0, [0.0] * system.n, system)
    rec = fingerprint.record(state, "s")
    assert set(rec) == {f"s.{name}" for name in ("t", "z", "P", "cost", "loss", "residual", "total_power")}


def test_compare_names_values_that_differ_or_are_one_sided():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}, "gone": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3", "z": "4"}, "b": {"x": "1", "z": "4"}, "added": {"x": "1"}}
    assert fingerprint.compare(new, old) == (["a: y"], ["run added only in the new records",
                                                        "run gone only in the old records",
                                                        "z only in the new records, in 2 runs"])
    assert fingerprint.compare(old, old) == ([], [])


def test_numbers_round_trip_and_give_max_abs_delta(tmp_path):
    rec = {"steps": 3, "status": "ok", "switch_time": None, "iters": (2.5, 4), "P": np.array([1.0, np.inf]),
           "check.stdout": b"PASS\n",
           "run.trajectory.csv": b"t,P1\n0,1.5\n0.1,nan\n",
           "run.report.json": b'{"a": {"b": [1, 2.5], "c": null, "d": "x"}, "e": true}'}
    values = fingerprint.numbers(rec)
    assert set(values) == {"steps", "iters", "P", "run.trajectory.csv", "run.report.json.a.b", "run.report.json.e"}
    assert values["run.trajectory.csv"].shape == (2, 2)
    path = tmp_path / "records.npz"
    fingerprint.save_numbers(path, {"split0/mu=0.5,k1=5.0": values})
    old = fingerprint.load_numbers(path)["split0/mu=0.5,k1=5.0"]
    assert old.keys() == values.keys()
    assert all(np.array_equal(old[key], values[key], equal_nan=True) for key in values)

    moved = dict(rec, steps=5, P=np.array([1.25, np.inf]), **{
        "run.trajectory.csv": b"t,P1\n0,1.5\n0.1,nan\n0.2,1\n",
        "run.report.json": b'{"a": {"b": [1, 2], "new": 7}, "e": false}'})
    new_values = fingerprint.numbers(moved)
    new, before = ({"r": fingerprint.hashes(r)} for r in (moved, rec))
    # the CSV has another row count, so both counts and a magnitude over the
    # rows whose t (its first column) both hold; report.json's shared numbers
    # give one for each top-level section that differs
    assert fingerprint.compare(new, before, {"r": new_values}, {"r": old}) == (
        ["r: P (max |Δ| 0.25)", "r: run.report.json (max |Δ| a 0.5, e 1)",
         "r: run.trajectory.csv (3 rows, 2 before; max |Δ| 0 over the rows of shared t)",
         "r: steps (max |Δ| 2)"], [])
    assert fingerprint.max_delta(new_values, old, "P") == 0.25
    # a shift of 5 in one section does not hide one of 1e-7 in another; a
    # section that differs only in shape gives its name alone
    same = {"f.json.t": np.array(1.0)}
    assert fingerprint.section_deltas(
        {"f.json.solver.n": np.array(6.0), "f.json.P": np.array([1.0, 2.0 + 1e-7]), "f.json.rows": np.zeros(3),
         **same},
        {"f.json.solver.n": np.array(1.0), "f.json.P": np.array([1.0, 2.0]), "f.json.rows": np.zeros(2), **same},
        "f.json") == ["P 1e-07", "rows", "solver 5"]
    # a trajectory value whose row count changed is compared at the t both
    # runs hold, by trajectory.t; one without a t gives the counts alone
    run_old = {"trajectory.t": np.array([0.0, 0.1]), "trajectory.P": np.array([[1.0, 2.0], [3.0, 4.0]]),
               "counts": np.array([1.0, 3.0])}
    run_new = {"trajectory.t": np.array([0.0, 0.05, 0.1]),
               "trajectory.P": np.array([[1.0, 2.0], [9.0, 9.0], [3.0, 4.5]]), "counts": np.array([1.0])}
    new, before = ({"r": fingerprint.hashes(r)} for r in (run_new, run_old))
    assert fingerprint.compare(new, before, {"r": run_new}, {"r": run_old}) == (
        ["r: counts (1 rows, 2 before)",
         "r: trajectory.P (3 rows, 2 before; max |Δ| 0.5 over the rows of shared t)",
         "r: trajectory.t (3 rows, 2 before; max |Δ| 0 over the rows of shared t)"], [])
