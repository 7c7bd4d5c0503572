"""
Standing-assumption gates
=========================

Loads the shipped reference configuration and evaluates every gate the
convergence analysis relies on: graph connectivity, the own-loss gradient
condition, the coefficient-magnitude condition, and the eigenvalue
condition coupling the loss matrix with cost convexity. Then prints the
one verdict, `cli.Gates.all_ok`, which `fxdispatch check` exits on: every
one of those gates and the settling bound's premise tau1 > 0 pass. Then
breaks the eigenvalue condition on purpose to show what a failing report
looks like.

Run:  python3 demos/assumption_gates.py
"""

import dataclasses
import pathlib

from fxdispatch import (
    GeneratorSpec,
    assemble_assumption_report,
    load_config,
)
from fxdispatch.cli import evaluate_gates

config = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"))

report = assemble_assumption_report(config.loss, config.generators, config.topology)
print("reference configuration:")
print(f"  connected        {report.connected_ok}")
print(f"  gradient gate    {report.a1_ok}  (per generator: {report.a1_per_generator})")
print(f"  magnitude gate   {report.remark2_ok}")
print(f"  eigenvalue gate  {report.a2_ok}  (value {report.a2_value:.6f})")
print(f"  sigma={report.sigma}  delta={report.delta}  rho={report.rho}")
print(f"  extreme loss-matrix eigenvalues: b1={report.b1:.4e}  bN={report.bN:.4e}")
print(f"  check verdict    {evaluate_gates(config).all_ok}  (all gates and tau1 > 0)")

# Now flip delta negative with tiny curvature: the eigenvalue condition
# (1+rho)*sigma + bN*delta must go negative.
broken = tuple(GeneratorSpec(a=g.a, b=-1.0, c=1e-5, p0=g.p0, d0=g.d0)
               for g in config.generators)
bad = assemble_assumption_report(config.loss, broken, config.topology)
print("\nnegative-delta fleet:")
print(f"  eigenvalue gate  {bad.a2_ok}  (value {bad.a2_value:.3e})")
print(f"  check verdict    {evaluate_gates(dataclasses.replace(config, generators=broken)).all_ok}"
      "  (all gates and tau1 > 0)")
