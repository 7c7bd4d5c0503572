"""Equivalence fingerprint: one sha256 per named run, to show that a change
keeps every result bit for bit.

    python3 tools/fingerprint.py [--json OUT.json] [--against OLD.json]

Imports fxdispatch from this checkout's `src/` and reads the benchmark's
seeded inputs (`fleet_dict`, `sweep_scenarios`) from `perfbench/workloads.py`.
Each run's record maps every value it produced to a sha256: for a run, every
`RunResult` field and read-only property (the verdicts), recursing into the
trajectory and the terminal state; for a CLI command, its exit code and
stdout, and for `run` its two output files. A run's digest is over its
record, and the combined digest over every run's. --json writes the
records; --against reads records so written (say, by a copy of this script
in a checkout of the parent commit) and exits 1 if a value both trees have
differs, listing apart the values only one has.

The runs (on `configs/reference_case.yaml` unless named otherwise):
- `reference`: the run file as it is (t_end 200);
- `split<i>/mu=<mu>,k1=<k1>`: acceptance criterion 4's three demand splits
  at dt 2.5e-4 and t_end 20, for (mu, k1) = (0.5, 5), (0.2, 5) and (0.2, 20);
- `c7/quiet`, `c7/disturbed`: criterion 7 (t_end 20, amplitude 0.5, seed 42);
- `z0=<s>`: z0 = s (1, -1, 1, -1) for s = 10, 60 and 100, t_end 20;
- `wide_dt/...`: test_wide_dt_settles' grid of mu, k1 and dt, t_end 20;
- `sweep<k>`: the benchmark's 12 seed-1 sweep scenarios, stride 1;
- `fleet<seed>`: the benchmark's 64-unit fleets of seeds 0-5, stride 1;
- `step50`: 50 public step() calls from z = 0;
- `cli/reference`, `cli/fleet1`: `check`, `bound`, `oracle` and `run` (the
  reference case cut to --t-end 10, fleet 1 at its own t_end);
- `gates`: the assumption gates of 300 seeded fleets of 4 to 11 units.
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
    """fxdispatch from this checkout's src/, and perfbench's workloads module."""
    for sub in ("perfbench", "src"):
        sys.path.insert(0, str(ROOT / sub))
    import fxdispatch
    import fxdispatch.cli
    import workloads

    return fxdispatch, workloads


def _encode(value) -> bytes:
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return repr(value.item() if isinstance(value, np.generic) else value).encode()


def record(value, name: str = "") -> dict[str, str]:
    """{dotted name: sha256} over a dataclass's fields and read-only
    properties, recursing into dataclass values."""
    if not dataclasses.is_dataclass(value):
        return {name: hashlib.sha256(_encode(value)).hexdigest()}
    attrs = [f.name for f in dataclasses.fields(value)]
    attrs += [attr for attr, _ in inspect.getmembers(type(value), lambda m: isinstance(m, property))]
    out = {}
    for attr in attrs:
        out.update(record(getattr(value, attr), f"{name}.{attr}" if name else attr))
    return out


def digest(rec: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(rec.items())).encode()).hexdigest()


def cli_record(fx, config_path: str, out_dir: pathlib.Path, t_end: float | None = None) -> dict[str, str]:
    """Exit code and stdout of check, bound and oracle, and exit code and
    output files of run (its stdout holds the wall time, so is left out)."""
    rec = {}
    for command in ("check", "bound", "oracle", "run"):
        argv = [command, "--config", config_path]
        if command == "run":
            argv += ["--out", str(out_dir)] + (["--t-end", str(t_end)] if t_end is not None else [])
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = fx.cli.main(argv)
        rec[f"{command}.exit"] = hashlib.sha256(str(code).encode()).hexdigest()
        if command != "run":
            rec[f"{command}.stdout"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    for name in ("report.json", "trajectory.csv"):
        rec[f"run.{name}"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    return rec


def named_runs(fx, workloads, work: pathlib.Path) -> dict:
    """{name: zero-argument callable returning the run's record}, in order."""
    run, replace = fx.dynamics.run, dataclasses.replace
    ref = fx.config.load_config(str(REFERENCE))
    system, params = ref.system(), ref.params
    quiet = replace(params, t_end=20.0)
    runs = {"reference": lambda: record(run(system, params, disturbance=ref.disturbance,
                                            stride=ref.output.stride))}

    def split_system(shares):
        gens = tuple(replace(g, p0=s, d0=s) for g, s in zip(ref.generators, shares))
        return fx.dynamics.DispatchSystem(gens=gens, loss=ref.loss, top=ref.topology)

    for i, shares in enumerate(SPLITS):
        for mu, k1 in ((0.5, 5.0), (0.2, 5.0), (0.2, 20.0)):
            p = replace(params, dt=2.5e-4, t_end=20.0, mu=mu, k1=k1)
            runs[f"split{i}/mu={mu},k1={k1}"] = lambda s=shares, p=p: record(run(split_system(s), p))
    runs["c7/quiet"] = lambda: record(run(system, quiet))
    noise = fx.dynamics.DisturbanceSpec(enabled=True, amplitude=0.5, seed=42)
    runs["c7/disturbed"] = lambda: record(run(system, quiet, disturbance=noise))
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
    return runs


def compare(new: dict, old: dict) -> tuple[list[str], list[str]]:
    """(each run value both records hold that differs, as "run: value";
    each value only one side holds, with the number of runs that have it)."""
    differs, one_sided = [], {}
    for name in sorted(set(new) & set(old)):
        a, b = new[name], old[name]
        differs += [f"{name}: {key}" for key in sorted(set(a) & set(b)) if a[key] != b[key]]
        for key in set(a) ^ set(b):
            side = "new" if key in a else "old"
            one_sided[key, side] = one_sided.get((key, side), 0) + 1
    return differs, [f"{key} only in the {side} records, in {count} runs"
                     for (key, side), count in sorted(one_sided.items())]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="write every run's record to this file")
    parser.add_argument("--against", help="compare with records written by --json")
    args = parser.parse_args(argv)
    fx, workloads = import_modules()
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for name, make in named_runs(fx, workloads, pathlib.Path(work)).items():
            records[name] = make()
            print(f"{digest(records[name])}  {name}", flush=True)
    print(f"{hashlib.sha256(''.join(digest(r) for r in records.values()).encode()).hexdigest()}  combined")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    if args.against:
        old = json.loads(pathlib.Path(args.against).read_text())
        differs, one_sided = compare(records, old)
        for line in [f"DIFFERS {line}" for line in differs] + one_sided:
            print(line)
        print(f"{len(differs)} values differ of those both records hold")
        return 1 if differs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
