"""Command-line front end: `check`, `bound`, `run`, `oracle`.

Exit codes: 0 success / all gates pass, 1 validation or assumption
failure, 2 runtime failure (integration or equilibrium solve).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import analysis, dynamics, oracle
from .analysis import AssumptionReport, settling_bound
from .config import RunConfig, atomic_write_text, load_config
from .grid_model import AssumptionViolation, cost_summary, total_demand
from .oracle import NewtonFailure
from .topology import spectrum

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


@dataclass
class Gates:
    report: AssumptionReport
    phi2: float
    tau1: float

    @property
    def all_ok(self) -> bool:
        return self.report.all_ok


def evaluate_gates(config: RunConfig) -> Gates:
    report = analysis.assemble_assumption_report(config.loss, config.generators, config.topology)
    phi2 = spectrum(config.topology).phi2
    sm = analysis.build_s_matrix(config.loss, cost_summary(config.generators))
    return Gates(report=report, phi2=phi2, tau1=float(sm.tau[0]))


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def cmd_check(config: RunConfig, out=None) -> int:
    g = evaluate_gates(config)
    r = g.report
    rows = [
        ("connected", r.connected_ok, ""),
        ("gradient_condition (A1)", r.a1_ok, ""),
        ("coefficient_magnitude", r.remark2_ok, ""),
        ("eigenvalue_condition (A2)", r.a2_ok, f"value={_fmt(r.a2_value)}"),
    ]
    for name, ok, extra in rows:
        print(f"{name:36s} {'PASS' if ok else 'FAIL'}  {extra}", file=out)
    print(f"sigma={_fmt(r.sigma)} delta={_fmt(r.delta)} rho={_fmt(r.rho)} b1={_fmt(r.b1)} "
          f"bN={_fmt(r.bN)} tau1={_fmt(g.tau1)} phi2={_fmt(g.phi2)}", file=out)
    return EXIT_OK if g.all_ok else EXIT_VALIDATION


def cmd_bound(config: RunConfig, out=None) -> int:
    g = evaluate_gates(config)
    if not g.all_ok:
        print("assumption gates failed; settling bound undefined (run `check`)", file=out)
        return EXIT_VALIDATION
    sb = settling_bound(config.params, g.report.rho, g.tau1, g.phi2, len(config.generators))
    print(f"alpha={_fmt(sb.alpha)} beta={_fmt(sb.beta)} p={_fmt(sb.p)} q={_fmt(sb.q)}", file=out)
    print(f"settling_time_bound_s={_fmt(sb.ts)}", file=out)
    return EXIT_OK


def _csv_text(traj: dynamics.Trajectory, n: int) -> str:
    cols = (["t"] + [f"P{i + 1}" for i in range(n)] + [f"z{i + 1}" for i in range(n)]
            + ["PL", "Ptotal", "cost", "residual", "V"])
    table = np.column_stack((traj.t, traj.P, traj.z, traj.loss, traj.P.sum(axis=1),
                             traj.cost, traj.residual, traj.V))
    lines = [",".join(cols)]
    # Python floats from tolist() format faster than NumPy scalars, to the same text
    lines.extend(",".join(f"{v:.12g}" for v in row) for row in table.tolist())
    return "\n".join(lines) + "\n"


def cmd_run(config: RunConfig, out_dir: str | None = None, force: bool = False, out=None) -> int:
    g = evaluate_gates(config)
    if not g.all_ok and not force:
        print("assumption gates failed; refusing to run (use --force to override)", file=out)
        cmd_check(config, out=out)
        return EXIT_VALIDATION

    n = len(config.generators)
    try:
        sb = settling_bound(config.params, g.report.rho, g.tau1, g.phi2, n)
        ts_bound = sb.ts
    except AssumptionViolation:
        ts_bound = None

    dbar = total_demand(config.generators)
    eq = pf = None
    try:
        eq = oracle.solve_equilibrium(config.generators, config.loss, dbar)
        pf = oracle.kkt_penalty_solution(config.generators, config.loss, dbar)
    except NewtonFailure:
        pass

    t0 = time.perf_counter()
    result = dynamics.run(
        config.system(), config.params, disturbance=config.disturbance,
        z0=config.z0,
        c_star=eq.cost_star if eq is not None else None,
        stride=config.output.stride,
    )
    wall = time.perf_counter() - t0

    term, iters, solves = result.terminal, result.implicit_newton_iters, result.power_solve_iters
    within = (result.settle_time is not None and ts_bound is not None
              and result.settle_time <= ts_bound) if g.all_ok else None
    report = {
        "status": result.status,
        "terminal_power": [float(p) for p in term.P],
        "total_power": term.total_power,
        "cost": term.cost,
        "loss": term.loss,
        "consensus_residual": term.residual,
        "settled": result.settled,
        "measured_settling_time": result.settle_time,
        "settling_time_bound": ts_bound,
        "settling_within_bound": within,
        "negative_power_seen": result.negative_power_seen,
        "assumptions": {
            "connected_ok": g.report.connected_ok,
            "a1_ok": g.report.a1_ok,
            "remark2_ok": g.report.remark2_ok,
            "a2_ok": g.report.a2_ok,
            "all_ok": g.report.all_ok,
            "sigma": g.report.sigma,
            "delta": g.report.delta,
            "a2_value": g.report.a2_value,
        },
        "spectra": {
            "phi2": g.phi2,
            "b1": g.report.b1,
            "bN": g.report.bN,
            "rho": g.report.rho,
            "tau1": g.tau1,
        },
        "oracle_gap": {
            "consensus_equilibrium": [float(p) for p in eq.P_star] if eq else None,
            "penalty_factor": [float(p) for p in pf.P_star] if pf else None,
            "max_abs_gap_consensus": float(np.max(np.abs(term.P - eq.P_star))) if eq else None,
            "max_abs_gap_penalty": float(np.max(np.abs(term.P - pf.P_star))) if pf else None,
        },
        # wall time goes to stdout, not the report, to keep outputs
        # byte-identical across reruns of the same config
        "timing": {
            "dt": config.params.dt,
            "t_end": config.params.t_end,
            "steps_emitted": int(len(result.trajectory.t)),
            "stride": config.output.stride,
        },
        "solver": {
            "steps": result.steps,
            "rejected_steps": result.rejected_steps,
            "switch_time": result.switch_time,
            "implicit_newton_iters": {"mean": iters[0], "max": iters[1]} if iters else None,
            "power_solve_iters": {"mean": solves[0], "max": solves[1]},
        },
    }

    directory = out_dir or config.output.directory
    if config.output.write_trajectory:
        atomic_write_text(os.path.join(directory, "trajectory.csv"),
                          _csv_text(result.trajectory, n))
    if config.output.write_report:
        atomic_write_text(os.path.join(directory, "report.json"),
                          json.dumps(report, indent=2) + "\n")
    print(f"run {result.status}: terminal P = {[round(float(p), 3) for p in term.P]}, "
          f"cost = {term.cost:.2f}, loss = {term.loss:.3f}, "
          f"settled = {result.settled}, wall = {wall:.1f}s", file=out)
    return EXIT_OK if result.status == "ok" else EXIT_RUNTIME


def cmd_oracle(config: RunConfig, out=None) -> int:
    dbar = total_demand(config.generators)
    try:
        eq = oracle.solve_equilibrium(config.generators, config.loss, dbar)
        pf = oracle.kkt_penalty_solution(config.generators, config.loss, dbar)
    except NewtonFailure as e:
        print(f"equilibrium solve failed: {e}; best iterate: {e.best}", file=out)
        return EXIT_RUNTIME
    gap = np.max(np.abs(eq.P_star - pf.P_star))
    print("consensus equilibrium (H*lambda equal):", file=out)
    print(f"  P* = {[round(float(p), 6) for p in eq.P_star]}", file=out)
    print(f"  mu* = {_fmt(eq.mu_star)} cost = {_fmt(eq.cost_star)} loss = {_fmt(eq.loss_star)}", file=out)
    print("penalty-factor coordination:", file=out)
    print(f"  P* = {[round(float(p), 6) for p in pf.P_star]}", file=out)
    print(f"  mu* = {_fmt(pf.mu_star)} cost = {_fmt(pf.cost_star)} loss = {_fmt(pf.loss_star)}", file=out)
    print(f"max per-generator dispatch gap = {_fmt(float(gap))} MW", file=out)
    return EXIT_OK


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    params = config.params
    if args.dt is not None:
        params = replace(params, dt=args.dt)
    if args.t_end is not None:
        params = replace(params, t_end=args.t_end)
    disturbance = config.disturbance
    if args.seed is not None:
        disturbance = replace(disturbance, seed=args.seed)
    return replace(config, params=params, disturbance=disturbance)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fxdispatch",
        description="Fixed-time consensus economic dispatch simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("run", "simulate and write trajectory.csv + report.json"),
        ("check", "evaluate assumption gates"),
        ("bound", "print the analytic settling-time bound"),
        ("oracle", "solve the equilibrium independently of the dynamics"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the YAML run file")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="log fxdispatch messages at INFO and above to stderr")
    run = sub.choices["run"]
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--force", action="store_true", help="run despite failed gates")
    run.add_argument("--seed", type=int, default=None, help="disturbance seed override")
    run.add_argument("--dt", type=float, default=None, help="integrator step override (s)")
    run.add_argument("--t-end", type=float, default=None, help="horizon override (s)")
    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("fxdispatch").setLevel(logging.INFO)

    try:
        config = load_config(args.config)
        if args.command == "run":
            config = _apply_overrides(config, args)
    except (ValueError, OSError) as e:  # ConfigurationError, or a rejected override
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if args.command == "check":
            return cmd_check(config)
        if args.command == "bound":
            return cmd_bound(config)
        if args.command == "oracle":
            return cmd_oracle(config)
        return cmd_run(config, out_dir=args.out, force=args.force)
    except AssumptionViolation as e:
        print(f"assumption violation: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (dynamics.StepFailure, NewtonFailure) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
