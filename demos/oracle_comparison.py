"""
Equilibrium oracles side by side
================================

The dynamics converge to the point where all loss-weighted marginal
costs H_i * lambda_i agree. The classical coordination rule instead
equalizes lambda_i / (1 - dP_Li/dP_i). This script solves both for the
reference case, reports their dispatch gap, and cross-checks a small
lossless instance against a brute-force grid scan.

Run:  python3 demos/oracle_comparison.py
"""

import pathlib

import numpy as np

from fxdispatch import (
    GeneratorSpec,
    KronLossModel,
    brute_force_optimum,
    kkt_penalty_solution,
    load_config,
    solve_equilibrium,
    total_demand,
)

config = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"))
demand = total_demand(config.generators)

eq = solve_equilibrium(config.generators, config.loss, demand)
pf = kkt_penalty_solution(config.generators, config.loss, demand)
print("consensus equilibrium  P* =", np.round(eq.P_star, 4).tolist())
print(f"                       cost {eq.cost_star:.2f} $/h, loss {eq.loss_star:.4f} MW")
print("penalty coordination   P* =", np.round(pf.P_star, 4).tolist())
print(f"                       cost {pf.cost_star:.2f} $/h, loss {pf.loss_star:.4f} MW")
print(f"max per-generator gap: {np.max(np.abs(eq.P_star - pf.P_star)):.4f} MW")
print("(the two rules coincide only when losses vanish)")

# Lossless two-generator cross-check: Newton vs exhaustive grid scan.
gens = (GeneratorSpec(a=10.0, b=1.0, c=0.05), GeneratorSpec(a=5.0, b=2.0, c=0.08))
lossless = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
sol = solve_equilibrium(gens, lossless, 100.0)
grid = brute_force_optimum(gens, lossless, 100.0, grid_step=0.01)
print(f"\nlossless pair: newton {np.round(sol.P_star, 4).tolist()}  "
      f"grid scan {np.round(grid, 4).tolist()}  "
      f"gap {np.max(np.abs(sol.P_star - grid)):.4f} MW")
