"""
Full dispatch simulation
========================

Integrates the fixed-time consensus dynamics on the reference four-
generator case, prints the terminal dispatch and its monitors, and
compares the terminal state against the independent equilibrium solver.

Run:  python3 demos/simulate.py [--t-end SECONDS] [--dt SECONDS]
"""

import argparse
import dataclasses
import pathlib

import numpy as np

from fxdispatch import load_config, run, solve_equilibrium, total_demand

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--t-end", type=float, default=20.0)
parser.add_argument("--dt", type=float, default=2.5e-4)
args = parser.parse_args()

config = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"))
params = dataclasses.replace(config.params, dt=args.dt, t_end=args.t_end)

eq = solve_equilibrium(config.generators, config.loss, total_demand(config.generators))
result = run(config.system(), params, c_star=eq.cost_star)

term = result.terminal
print(f"status: {result.status}   settled: {result.settled}"
      + (f" at t = {result.settle_time:.3f} s" if result.settled else ""))
print(f"terminal dispatch P = {np.round(term.P, 4).tolist()} MW")
print(f"total power {term.total_power:.4f} MW = demand 600 + losses {term.loss:.4f}")
print(f"generation cost {term.cost:.2f} $/h")
print(f"consensus residual {term.residual:.2e}")

gap = np.max(np.abs(term.P - eq.P_star))
print(f"\nequilibrium solver agrees to {gap:.2e} MW "
      f"(its own residuals: constraint {eq.constraint_residual:.1e}, "
      f"consensus {eq.consensus_residual:.1e})")
