"""
Standing-assumption gates
=========================

Loads the shipped reference configuration and evaluates every gate the
convergence analysis relies on: graph connectivity, the own-loss gradient
condition, the coefficient-magnitude condition, the eigenvalue condition
coupling the loss matrix with cost convexity, and the settling bound's
premise tau1 > 0. It prints the rows `fxdispatch check` prints, then the
one verdict, `cli.Gates.all_ok`, which `check` exits on: every row passes.
Then breaks the eigenvalue condition on purpose to show what a failing
report looks like.

Run:  python3 demos/assumption_gates.py
"""

import dataclasses
import pathlib

from fxdispatch import GeneratorSpec, load_config
from fxdispatch.cli import evaluate_gates


def show(gates) -> None:
    for name, _, ok, detail in gates.rows():
        print(f"  {name:32s} {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    print(f"  check verdict    {gates.all_ok}  (all gates and tau1 > 0)")


config = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"))

gates = evaluate_gates(config)
report = gates.report
print("reference configuration:")
print(f"  A1 per generator: {report.a1_per_generator}")
print(f"  sigma={report.sigma}  delta={report.delta}  rho={report.rho}")
print(f"  extreme loss-matrix eigenvalues: b1={report.b1:.4e}  bN={report.bN:.4e}")
show(gates)

# Now flip delta negative with tiny curvature: the eigenvalue condition
# (1+rho)*sigma + bN*delta must go negative.
broken = tuple(GeneratorSpec(a=g.a, b=-1.0, c=1e-5, p0=g.p0, d0=g.d0)
               for g in config.generators)
print("\nnegative-delta fleet:")
show(evaluate_gates(dataclasses.replace(config, generators=broken)))
