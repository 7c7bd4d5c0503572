"""The committed equivalence fingerprint, tools/fingerprint.py."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


def test_reference_run_outputs_keep_their_bytes(tmp_path):
    # `fxdispatch run` on the reference case cut to --t-end 10: the bytes of
    # both output files have been the same since before the fingerprint existed
    fx, workloads = fingerprint.import_modules()
    rec = fingerprint.named_runs(fx, workloads, tmp_path)["cli/reference"]()
    assert rec["run.report.json"] == "dfb111962b2e0f986623b45178456ad72abd3fa8029e8b1975b25db865cb00ff"
    assert rec["run.trajectory.csv"] == "76bc8988f7c3378c983fe0d52caadd4e6dc8eb43b7b8a3cef29d50c22a1a4b2a"


def test_fleet_run_outputs_keep_their_bytes(tmp_path):
    # `fxdispatch run` on the benchmark's seed-1 fleet of 64 units at its own t_end
    fx, workloads = fingerprint.import_modules()
    rec = fingerprint.named_runs(fx, workloads, tmp_path)["cli/fleet1"]()
    assert rec["run.report.json"] == "3fa1205609f1f2cd1cabf56ab49be5c8ff85c1ed1575671cdfffa5afd59b10df"
    assert rec["run.trajectory.csv"] == "d88c04cdc5e1e1710a780d97fecb0c539a8407d4b1975580edeb9f110b1d437f"


def test_record_covers_fields_properties_and_nested_dataclasses():
    fx, _ = fingerprint.import_modules()
    system = fx.config.load_config(str(fingerprint.REFERENCE)).system()
    state = fx.dynamics.make_state(0.0, [0.0] * system.n, system)
    rec = fingerprint.record(state, "s")
    assert set(rec) == {f"s.{name}" for name in ("t", "z", "P", "lam", "H", "cost", "loss", "total_power",
                                                 "residual")}


def test_compare_names_values_that_differ_or_are_one_sided():
    old = {"a": {"x": "1", "y": "2"}, "b": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3", "z": "4"}, "b": {"x": "1", "z": "4"}}
    assert fingerprint.compare(new, old) == (["a: y"], ["z only in the new records, in 2 runs"])
    assert fingerprint.compare(old, old) == ([], [])
