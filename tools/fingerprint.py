"""Equivalence fingerprint: one sha256 per named run, to show that a change
keeps every result bit for bit.

    python3 tools/fingerprint.py [--json OUT.json] [--against OLD.json]

Imports fxdispatch from this checkout's `src/` and reads the benchmark's
seeded inputs (`fleet_dict`, `sweep_scenarios`) from `perfbench/workloads.py`
and the gate tests' negative-delta fleets from `tests/conftest.py`.
Each run's record maps every value it produced to a sha256: for a run, every
`RunResult` field and read-only property (the verdicts), recursing into the
trajectory and the terminal state; for a CLI command, its exit code and
stdout, and for `run` its two output files. A run's digest is over its
record, and the combined digest over every run's. --json writes the
records, and beside them, with the suffix .npz, every numeric value of every
record as a float64 array: the numbers, tuples and arrays of a run, the
table of `trajectory.csv` and each number or list of numbers of
`report.json`. --against reads records so written (say, by a copy of this
script in a checkout of the parent commit) and exits 1 if a value both trees
have differs, listing apart the runs and the values only one has; where the
.npz beside the old records holds a differing value with the shape it has
now, the line gives max |new - old| over it, and for report.json one such
figure for each top-level section whose numbers differ, so that a large
shift in one section does not hide a small one in another. Where a value's
row count changed, the line gives both counts and max |new - old| over the
rows whose time both hold: a run's `trajectory.t`, or the first column of
`trajectory.csv`.

The runs (on `configs/reference_case.yaml` unless named otherwise):
- `reference`: the run file as it is (t_end 200);
- `split<i>/mu=<mu>,k1=<k1>`: acceptance criterion 4's three demand splits
  at dt 2.5e-4 and t_end 20, for (mu, k1) = (0.5, 5), (0.2, 5) and (0.2, 20);
- `c7/quiet`, `c7/disturbed`: criterion 7 (t_end 20, amplitude 0.5, seed 42);
- `disturbed/amplitude=0.05`: the run of `disturbed_run`, stride 1;
- `z0=<s>`: z0 = s (1, -1, 1, -1) for s = 10, 60 and 100, t_end 20;
- `wide_dt/...`: test_wide_dt_settles' grid of mu, k1 and dt, t_end 20;
- `sweep<k>`: the benchmark's 12 seed-1 sweep scenarios, stride 1;
- `fleet<seed>`: the benchmark's 64-unit fleets of seeds 0-5, stride 1;
- `fleet1/n=16`: the benchmark's seed-1 fleet of 16 units run to settling
  (t_end 200, stride 1), whose implicit steps solve 16 x 16 Newton systems;
- `step50`: 50 public step() calls from z = 0;
- `cli/reference`, `cli/fleet1`: `check`, `bound`, `oracle` and `run` (the
  reference case cut to --t-end 10, fleet 1 at its own t_end);
- `gates`: the assumption gates of 300 seeded fleets of 4 to 11 units;
- `gates/delta<0`: the assumption gates of the two-unit case whose A2 passes
  with tau1 < 0, and of the 200 negative-delta fleets (seeds 0-199) over
  which `check` must pass exactly when `bound` does.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "configs" / "reference_case.yaml"
SPLITS = ((170.0, 110.0, 140.0, 180.0), (150.0, 150.0, 150.0, 150.0), (300.0, 100.0, 100.0, 100.0))


def import_modules():
    """fxdispatch from this checkout's src/, and perfbench's workloads module;
    the checkout's root goes on the path too, for the tests' fleets."""
    for sub in ("", "perfbench", "src"):
        sys.path.insert(0, str(ROOT / sub))
    import fxdispatch
    import fxdispatch.cli
    import workloads

    return fxdispatch, workloads


def _encode(value) -> bytes:
    if isinstance(value, bytes):  # a CLI output, hashed as written
        return value
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return repr(value.item() if isinstance(value, np.generic) else value).encode()


def record(value, name: str = "") -> dict:
    """{dotted name: value} over a dataclass's fields and read-only
    properties, recursing into dataclass values."""
    if not dataclasses.is_dataclass(value):
        return {name: value}
    attrs = [f.name for f in dataclasses.fields(value)]
    attrs += [attr for attr, _ in inspect.getmembers(type(value), lambda m: isinstance(m, property))]
    out = {}
    for attr in attrs:
        out.update(record(getattr(value, attr), f"{name}.{attr}" if name else attr))
    return out


def hashes(rec: dict) -> dict[str, str]:
    """{name: sha256} of a record's values."""
    return {key: hashlib.sha256(_encode(value)).hexdigest() for key, value in rec.items()}


def _json_numbers(value, name: str) -> dict[str, np.ndarray]:
    """{dotted name: array} of each number, bool or list of them in parsed JSON."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items() for k, v in _json_numbers(item, f"{name}.{key}").items()}
    items = value if isinstance(value, list) else [value]
    if items and all(isinstance(v, (bool, int, float)) for v in items):
        return {name: np.asarray(value, dtype=float)}
    return {}


def numbers(rec: dict) -> dict[str, np.ndarray]:
    """{name: float64 array} of each numeric value of a record (see the
    module docstring); strings, None and stdout have none."""
    out = {}
    for key, value in rec.items():
        if key.endswith(".csv"):
            out[key] = np.loadtxt(io.BytesIO(value), delimiter=",", skiprows=1, ndmin=2)
        elif key.endswith(".json"):
            out.update(_json_numbers(json.loads(value), key))
        elif value is not None and not isinstance(value, (str, bytes)):
            out[key] = np.asarray(value, dtype=float)
    return out


def save_numbers(path: pathlib.Path, values: dict[str, dict[str, np.ndarray]]) -> None:
    """Write {run: numbers(record)} to one .npz, keyed "run::name"."""
    np.savez(path, **{f"{run}::{key}": array for run, arrays in values.items() for key, array in arrays.items()})


def load_numbers(path: pathlib.Path) -> dict[str, dict[str, np.ndarray]]:
    """The {run: {name: array}} that save_numbers wrote."""
    values = {}
    with np.load(path) as npz:
        for entry in npz.files:
            run, key = entry.split("::", 1)
            values.setdefault(run, {})[key] = npz[entry]
    return values


def row_times(values: dict[str, np.ndarray], name: str) -> np.ndarray | None:
    """The time of each row of the array named name: the first column of a
    CSV table, or the `t` beside a value of a trajectory; None if it has no
    such time."""
    a = values[name]
    t = a[:, 0] if name.endswith(".csv") else values.get(name.rpartition(".")[0] + ".t")
    return t if a.ndim and t is not None and t.shape == a.shape[:1] else None


def shared_rows(new: dict[str, np.ndarray], old: dict[str, np.ndarray],
                name: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The arrays named name in new and old; where their row counts differ,
    only the rows whose time (row_times) both hold. None where one has no
    such array, or they differ in another way."""
    if name not in old:
        return None
    a, b = new[name], old[name]
    if a.shape == b.shape:
        return a, b
    ta, tb = row_times(new, name), row_times(old, name)
    if ta is None or tb is None or a.shape[1:] != b.shape[1:]:
        return None
    _, ia, ib = np.intersect1d(ta, tb, return_indices=True)
    return a[ia], b[ib]


def max_delta(new: dict[str, np.ndarray], old: dict[str, np.ndarray], key: str) -> float | None:
    """max |new - old| over the arrays named key or key.<...> that both hold
    (equal values, infinities and nan included, count 0), over shared_rows
    where their row counts differ; None if there are none."""
    deltas = []
    for name in new:
        pair = shared_rows(new, old, name) if name == key or name.startswith(key + ".") else None
        if pair is not None:
            a, b = pair
            with np.errstate(invalid="ignore"):
                gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
            deltas.append(float(np.max(gap, initial=0.0)))
    return max(deltas) if deltas else None


def section_deltas(new: dict[str, np.ndarray], old: dict[str, np.ndarray], key: str) -> list[str]:
    """"<section> <max_delta>" for each top-level section of the JSON file
    named key whose numbers differ, in name order; a section whose numbers
    differ only in shape or presence gives its name alone."""
    sections: dict[str, list[str]] = {}
    for name in new.keys() | old.keys():
        if name.startswith(key + "."):
            sections.setdefault(name[len(key) + 1:].split(".")[0], []).append(name)
    out = []
    for section, names in sorted(sections.items()):
        same = all(name in new and name in old and new[name].shape == old[name].shape
                   and np.array_equal(new[name], old[name], equal_nan=True) for name in names)
        if not same:
            delta = max_delta(new, old, f"{key}.{section}")
            out.append(section if delta is None else f"{section} {delta:.3g}")
    return out


def digest(rec: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(rec.items())).encode()).hexdigest()


def cli_record(fx, config_path: str, out_dir: pathlib.Path, t_end: float | None = None) -> dict:
    """Exit code and stdout of check, bound and oracle, and exit code and
    output files of run (its stdout holds the wall time, so is left out);
    stdout and the files as bytes."""
    rec = {}
    for command in ("check", "bound", "oracle", "run"):
        argv = [command, "--config", config_path]
        if command == "run":
            argv += ["--out", str(out_dir)] + (["--t-end", str(t_end)] if t_end is not None else [])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = fx.cli.main(argv)
        rec[f"{command}.exit"] = code
        if command != "run":
            rec[f"{command}.stdout"] = text.getvalue().encode()
    for name in ("report.json", "trajectory.csv"):
        rec[f"run.{name}"] = (out_dir / name).read_bytes()
    return rec


def calibration_runs(fx, ref) -> dict:
    """{"split<i>/mu=<mu>,k1=<k1>": (system, params)}: acceptance criterion 4's
    three demand splits of the reference config ref at dt 2.5e-4 and t_end 20,
    for (mu, k1) = (0.5, 5), (0.2, 5) and (0.2, 20)."""
    replace, runs = dataclasses.replace, {}
    for i, shares in enumerate(SPLITS):
        gens = tuple(replace(g, p0=s, d0=s) for g, s in zip(ref.generators, shares))
        system = fx.dynamics.DispatchSystem(gens=gens, loss=ref.loss, top=ref.topology)
        for mu, k1 in ((0.5, 5.0), (0.2, 5.0), (0.2, 20.0)):
            runs[f"split{i}/mu={mu},k1={k1}"] = system, replace(ref.params, dt=2.5e-4, t_end=20.0, mu=mu, k1=k1)
    return runs


def disturbed_run(fx, ref):
    """(system, params, disturbance): the reference config ref to t_end 20
    under a seeded disturbance of amplitude 0.05 (seed 42), which holds the
    residual above settle_tol, so the run hands over to implicit steps and
    never settles."""
    noise = fx.dynamics.DisturbanceSpec(enabled=True, amplitude=0.05, seed=42)
    return ref.system(), dataclasses.replace(ref.params, t_end=20.0), noise


def named_runs(fx, workloads, work: pathlib.Path) -> dict:
    """{name: zero-argument callable returning the run's record}, in order."""
    run, replace = fx.dynamics.run, dataclasses.replace
    ref = fx.config.load_config(str(REFERENCE))
    system, params = ref.system(), ref.params
    quiet = replace(params, t_end=20.0)
    runs = {"reference": lambda: record(run(system, params, disturbance=ref.disturbance,
                                            stride=ref.output.stride))}
    for name, (split, p) in calibration_runs(fx, ref).items():
        runs[name] = lambda s=split, p=p: record(run(s, p))
    runs["c7/quiet"] = lambda: record(run(system, quiet))
    noise = fx.dynamics.DisturbanceSpec(enabled=True, amplitude=0.5, seed=42)
    runs["c7/disturbed"] = lambda: record(run(system, quiet, disturbance=noise))
    small = disturbed_run(fx, ref)
    runs["disturbed/amplitude=0.05"] = lambda: record(run(small[0], small[1], disturbance=small[2], stride=1))
    for s in (10.0, 60.0, 100.0):
        runs[f"z0={s:g}"] = lambda s=s: record(run(system, quiet, z0=s * np.array([1.0, -1.0, 1.0, -1.0])))
    for mu, k1 in ((0.2, 5.0), (0.5, 5.0), (0.2, 20.0)):
        for dt in (0.1, 0.2):
            p = replace(quiet, mu=mu, k1=k1, dt=dt)
            runs[f"wide_dt/mu={mu},k1={k1},dt={dt}"] = lambda p=p: record(run(system, p))
    for k, scenario in enumerate(workloads.sweep_scenarios(1)):
        config = workloads.scenario_config(fx, ref, scenario)
        runs[f"sweep{k}"] = lambda c=config: record(run(c.system(), c.params, disturbance=c.disturbance,
                                                        stride=1))
    for seed in range(6):
        config = fx.config.config_from_dict(workloads.fleet_dict(seed), f"fleet{seed}")
        runs[f"fleet{seed}"] = lambda c=config: record(run(c.system(), c.params, stride=1))
    config = fx.config.config_from_dict(workloads.fleet_dict(1, n=16), "fleet1/n=16")
    runs["fleet1/n=16"] = lambda c=config: record(run(c.system(), replace(c.params, t_end=200.0), stride=1))

    def steps():
        state, rec = fx.dynamics.make_state(0.0, np.zeros(system.n), system, params), {}
        for k in range(50):
            state = fx.dynamics.step(state, system, params)
            rec.update(record(state, str(k)))
        return rec
    runs["step50"] = steps
    runs["cli/reference"] = lambda: cli_record(fx, str(REFERENCE), work / "reference", t_end=10.0)

    def fleet_cli():
        path = work / "fleet1.json"
        workloads.write_fleet(fx, 1, path)
        return cli_record(fx, str(path), work / "fleet1")
    runs["cli/fleet1"] = fleet_cli

    def gates():
        rec = {}
        for seed in range(300):
            config = fx.config.config_from_dict(workloads.fleet_dict(seed, n=4 + seed % 8), f"gates{seed}")
            rec.update(record(fx.cli.evaluate_gates(config), str(seed)))
        return rec
    runs["gates"] = gates

    def negative_delta_gates():
        from tests import conftest

        rec = record(fx.cli.evaluate_gates(fx.config.config_from_dict(conftest.two_unit_negative_delta_dict())),
                     "two_unit")
        for seed in range(200):
            config = fx.config.config_from_dict(conftest.negative_delta_fleet_dict(seed), f"delta<0 {seed}")
            rec.update(record(fx.cli.evaluate_gates(config), str(seed)))
        return rec
    runs["gates/delta<0"] = negative_delta_gates
    return runs


def row_counts(new: dict[str, np.ndarray], old: dict[str, np.ndarray], key: str) -> str | None:
    """"<n> rows, <m> before" where the arrays named key hold different row
    counts; None otherwise."""
    a, b = new.get(key), old.get(key)
    if a is None or b is None or not a.ndim or not b.ndim or len(a) == len(b):
        return None
    return f"{len(a)} rows, {len(b)} before"


def compare(new: dict, old: dict, new_values: dict | None = None,
            old_values: dict | None = None) -> tuple[list[str], list[str]]:
    """(each run value both records hold that differs, as "run: value",
    followed by its max_delta where the {run: numbers} dicts give one, and
    for a JSON file by its section_deltas, one per top-level section; each
    run only one side holds, by name, then each value only one side's runs
    hold, with the number of runs that have it)."""
    new_values, old_values = new_values or {}, old_values or {}
    differs, one_sided = [], {}
    runs = [f"run {name} only in the {'new' if name in new else 'old'} records"
            for name in sorted(set(new) ^ set(old))]
    for name in sorted(set(new) & set(old)):
        a, b = new[name], old[name]
        for key in sorted(set(a) & set(b)):
            if a[key] != b[key]:
                args = new_values.get(name, {}), old_values.get(name, {}), key
                if key.endswith(".json"):
                    sections = section_deltas(*args)
                    detail = f"max |Δ| {', '.join(sections)}" if sections else None
                else:
                    delta = max_delta(*args)
                    detail = None if delta is None else f"max |Δ| {delta:.3g}"
                    rows = row_counts(*args)
                    if rows is not None:
                        detail = rows if detail is None else f"{rows}; {detail} over the rows of shared t"
                differs.append(f"{name}: {key}" + ("" if detail is None else f" ({detail})"))
        for key in set(a) ^ set(b):
            side = "new" if key in a else "old"
            one_sided[key, side] = one_sided.get((key, side), 0) + 1
    return differs, runs + [f"{key} only in the {side} records, in {count} runs"
                            for (key, side), count in sorted(one_sided.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="write every run's record to this file, and its numbers beside it as .npz")
    parser.add_argument("--against", help="compare with records written by --json")
    args = parser.parse_args(argv)
    fx, workloads = import_modules()
    records, values = {}, {}
    with tempfile.TemporaryDirectory() as work:
        for name, make in named_runs(fx, workloads, pathlib.Path(work)).items():
            rec = make()
            records[name], values[name] = hashes(rec), numbers(rec)
            print(f"{digest(records[name])}  {name}", flush=True)
    print(f"{hashlib.sha256(''.join(digest(r) for r in records.values()).encode()).hexdigest()}  combined")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        save_numbers(pathlib.Path(args.json).with_suffix(".npz"), values)
    if args.against:
        old = json.loads(pathlib.Path(args.against).read_text())
        old_npz = pathlib.Path(args.against).with_suffix(".npz")
        old_values = load_numbers(old_npz) if old_npz.is_file() else {}
        differs, one_sided = compare(records, old, values, old_values)
        for line in [f"DIFFERS {line}" for line in differs] + one_sided:
            print(line)
        print(f"{len(differs)} values differ of those both records hold")
        return 1 if differs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
