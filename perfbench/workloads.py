"""The benchmark's three workloads: seeded inputs, one pass, and its checks.

Each workload is built from the benchmark seed before any timing, writes
only under its own work directory, and runs fxdispatch through public entry
points (`cli.main` or `dynamics.run`). `run_pass()` performs one complete
pass and returns the number of operations attempted and the failures found.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import pathlib

import numpy as np

from probe import REFERENCE

#: |sum P - demand - P_L| allowed on every row (acceptance criterion 3)
DRIFT_TOL = 4e-10
#: terminal dispatch vs the equilibrium solver (acceptance criterion 5), MW
TERMINAL_TOL = 1e-3

REFERENCE_T_END = 10.0
SWEEP_T_END = 0.5
#: demand splits of acceptance criterion 4 and the demand-split test
SWEEP_SPLITS = ((170.0, 110.0, 140.0, 180.0), (150.0, 150.0, 150.0, 150.0), (300.0, 100.0, 100.0, 100.0))
#: the shipped gains and their doubling
SWEEP_GAINS = ((5.0, 5.0), (10.0, 10.0))
SWEEP_AMPLITUDE = 0.5
FLEET_N = 64
FLEET_T_END = 0.2


class GateFailure(ValueError):
    """A generated fleet fails an assumption gate."""


def _cli(fx, argv) -> tuple[int, str]:
    """Run one CLI command with its output captured; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = fx.cli.main(argv)
    return code, out.getvalue()


class RunOutputs:
    """Checks on the files a CLI `run` writes: the balance drift of the
    terminal state in report.json, and byte identity with the first pass."""

    def __init__(self, directory: pathlib.Path, demand: float):
        self.directory = directory
        self.demand = demand
        self.digest = None

    def check(self) -> tuple[list[str], dict]:
        """Returns (failure reasons, the parsed report)."""
        reasons = []
        raw = (self.directory / "report.json").read_bytes()
        report = json.loads(raw)
        drift = abs(report["total_power"] - self.demand - report["loss"])
        if drift > DRIFT_TOL:
            reasons.append(f"balance drift {drift:.3e} > {DRIFT_TOL}")
        digest = hashlib.sha256((self.directory / "trajectory.csv").read_bytes() + raw).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            reasons.append("outputs differ from the first pass")
        return reasons, report


class ReferenceRun:
    """`fxdispatch run` on the shipped reference case, horizon cut by `--t-end`."""

    name = "reference_run"

    def __init__(self, fx, seed: int, work: pathlib.Path):
        self.fx = fx
        self.config_paths = [str(REFERENCE)]
        self.config = config = fx.config.load_config(str(REFERENCE))
        demand = config.system().dbar
        self.p_star = fx.oracle.solve_equilibrium(config.generators, config.loss, demand).P_star
        self.outputs = RunOutputs(work / "out", demand)
        # the reference case is fixed; the seed only reaches the CLI's
        # disturbance-seed override, a no-op while the disturbance is off
        self.argv = ["run", "--config", str(REFERENCE), "--out", str(work / "out"),
                     "--t-end", str(REFERENCE_T_END), "--seed", str(seed)]

    def run_pass(self) -> tuple[int, list[str]]:
        """One `run`; returns (operations attempted, one message per failed operation)."""
        code, text = _cli(self.fx, self.argv)
        if code != 0:
            return 1, [f"run exited {code}: {text.strip()}"]
        reasons, report = self.outputs.check()
        gap = float(np.max(np.abs(np.array(report["terminal_power"]) - self.p_star)))
        if gap > TERMINAL_TOL:
            reasons.append(f"terminal dispatch {gap:.3e} MW from the equilibrium")
        return 1, ["run: " + "; ".join(reasons)] if reasons else []


def sweep_scenarios(seed: int) -> list[dict]:
    """Demand split x gain pair x disturbance off/on, in seeded order.

    Disturbed scenarios alternate between two seeded disturbance seeds.
    """
    rng = np.random.default_rng(seed)
    dist_seeds = [int(s) for s in rng.integers(0, 2**31, size=2)]
    scenarios = [
        {"split": split, "gains": gains, "disturbance_seed": ds}
        for i, split in enumerate(SWEEP_SPLITS)
        for j, gains in enumerate(SWEEP_GAINS)
        for ds in (None, dist_seeds[(i + j) % 2])
    ]
    return [scenarios[i] for i in rng.permutation(len(scenarios))]


def scenario_config(fx, base, scenario: dict):
    """The reference config with a scenario's split, gains, horizon and disturbance."""
    gens = tuple(dataclasses.replace(g, p0=s, d0=s) for g, s in zip(base.generators, scenario["split"]))
    k1, k2 = scenario["gains"]
    ds = scenario["disturbance_seed"]
    disturbance = (fx.dynamics.DisturbanceSpec(enabled=True, amplitude=SWEEP_AMPLITUDE, seed=ds)
                   if ds is not None else fx.dynamics.DisturbanceSpec())
    params = dataclasses.replace(base.params, k1=k1, k2=k2, t_end=SWEEP_T_END)
    return dataclasses.replace(base, generators=gens, params=params, disturbance=disturbance)


class ScenarioSweep:
    """Short library runs over a seeded grid; each scenario is one operation.

    A scenario is gated, bounded and solved for C* as the CLI would before
    integrating it, and the pass ends by writing the sweep's summary table.
    """

    name = "scenario_sweep"

    def __init__(self, fx, seed: int, work: pathlib.Path):
        self.fx = fx
        self.scenarios = sweep_scenarios(seed)
        self.summary = work / "sweep.json"
        self.config_paths = [str(REFERENCE)]
        self.config = fx.config.load_config(str(REFERENCE))

    def run_pass(self) -> tuple[int, list[str]]:
        fx = self.fx
        base = fx.config.load_config(str(REFERENCE))
        failures, rows = [], []
        for k, scenario in enumerate(self.scenarios):
            config = scenario_config(fx, base, scenario)
            system = config.system()
            try:
                gates = fx.cli.evaluate_gates(config)
                if not gates.all_ok:
                    failures.append(f"scenario {k}: assumption gates failed")
                    continue
                bound = fx.analysis.settling_bound(config.params, gates.report.rho, gates.tau1,
                                                   gates.phi2, system.n)
                eq = fx.oracle.solve_equilibrium(config.generators, config.loss, system.dbar)
                result = fx.dynamics.run(system, config.params, disturbance=config.disturbance,
                                         c_star=eq.cost_star, stride=1)
            except (fx.dynamics.StepFailure, fx.oracle.NewtonFailure, fx.grid_model.AssumptionViolation) as e:
                failures.append(f"scenario {k}: {type(e).__name__}: {e}")
                continue
            traj = result.trajectory
            drift = float(np.max(np.abs(traj.P.sum(axis=1) - system.dbar - traj.loss)))
            if result.status != "ok" or drift > DRIFT_TOL:
                failures.append(f"scenario {k}: status {result.status}, balance drift {drift:.3e}")
            rows.append({"scenario": k, **scenario, "settling_bound": bound.ts,
                         "terminal_residual": result.terminal.residual,
                         "terminal_cost_gap": result.terminal.cost - eq.cost_star})
        fx.config.atomic_write_text(str(self.summary), json.dumps(rows, indent=1) + "\n")
        return len(self.scenarios), failures


def fleet_dict(seed: int, n: int = FLEET_N, lam0: float = 6.0) -> dict:
    """A seeded N-generator run file: costs, B-matrix, ring-plus-chords graph.

    Initial powers sit where every marginal cost is within 0.1 $/MWh of
    `lam0`, so the explicit integrator is stable at the shipped dt. The
    default lam0 gives units of 10-45 MW, about 1.4 GW in all; B is scaled
    so the remark-2 row sums keep a margin of two at that demand.
    """
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.05, 0.12, n)
    b = rng.uniform(1.5, 3.5, n)
    a = rng.uniform(30.0, 80.0, n)
    p0 = (lam0 + rng.uniform(-0.1, 0.1, n) - b) / (2.0 * c)
    off = rng.uniform(0.0, 8e-6, (n, n))
    B = (off + off.T) / 2.0
    np.fill_diagonal(B, rng.uniform(2e-5, 4e-5, n))
    B0 = rng.uniform(0.0, 2e-3, n)
    ring = [[i, (i + 1) % n, 1.0] for i in range(n)]
    chords = []
    for i in rng.choice(n, size=n // 4, replace=False):
        j = (int(i) + int(rng.integers(2, n - 1))) % n
        chords.append([int(i), j, float(rng.uniform(0.5, 1.5))])
    return {
        "generators": [{"a": float(a[i]), "b": float(b[i]), "c": float(c[i]),
                        "p0": float(p0[i]), "d0": float(p0[i])} for i in range(n)],
        "loss": {"b_matrix": B.tolist(), "b0": B0.tolist(), "b00": float(rng.uniform(0.0, 2.0))},
        "topology": {"nodes": n, "edges": ring + chords},
        "params": {"k1": 5.0, "k2": 5.0, "mu": 0.5, "nu": 2.0, "dt": 1e-3, "t_end": FLEET_T_END,
                   "fp_tol": 1e-10, "fp_max_iter": 200, "settle_tol": 1e-6, "settle_window": 1.0},
        "disturbance": {"enabled": False, "amplitude": 0.0, "seed": 0, "kind": "sinusoid"},
        "output": {"directory": "out", "stride": 1, "write_trajectory": True, "write_report": True},
    }


def require_gates(fx, config) -> None:
    """Refuse a config that fails connectivity, A1, the remark-2 row sum or A2."""
    r = fx.analysis.assemble_assumption_report(config.loss, config.generators, config.topology)
    failed = [name for name, ok in (("connectivity", r.connected_ok), ("A1", r.a1_ok),
                                    ("remark-2 row sum", r.remark2_ok), ("A2", r.a2_ok)) if not ok]
    if failed:
        raise GateFailure("generated fleet fails " + ", ".join(failed))


def write_fleet(fx, seed: int, path: pathlib.Path, n: int = FLEET_N):
    """Generate, gate and save the seeded fleet; returns its config."""
    config = fx.config.config_from_dict(fleet_dict(seed, n), str(path))
    require_gates(fx, config)
    fx.config.save_config(config, str(path))
    return config


class LargeFleet:
    """`check`, `bound`, `oracle` and a short `run` on a seeded N = 64 fleet."""

    name = "large_fleet"

    def __init__(self, fx, seed: int, work: pathlib.Path):
        self.fx = fx
        path = work / "fleet.yaml"
        self.config = write_fleet(fx, seed, path)
        self.config_paths = [str(path)]
        self.outputs = RunOutputs(work / "out", self.config.system().dbar)
        self.commands = [[cmd, "--config", str(path)] for cmd in ("check", "bound", "oracle")]
        self.commands.append(["run", "--config", str(path), "--out", str(work / "out")])

    def run_pass(self) -> tuple[int, list[str]]:
        failures = []
        for argv in self.commands:
            code, text = _cli(self.fx, argv)
            reasons = [f"exited {code}: {text.strip()[-300:]}"] if code != 0 else []
            if code == 0 and argv[0] == "run":
                reasons = self.outputs.check()[0]
            if reasons:
                failures.append(f"{argv[0]}: " + "; ".join(reasons))
        return len(self.commands), failures


WORKLOADS = {w.name: w for w in (ReferenceRun, ScenarioSweep, LargeFleet)}
