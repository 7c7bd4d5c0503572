"""
Analytic settling-time bound
============================

Computes the closed-form fixed-time settling estimate for the reference
configuration and shows how it scales with the consensus gains: both
terms are homogeneous of degree -1 in (k1, k2), so doubling the gains
halves the bound.

Run:  python3 demos/settling_time_bound.py
"""

import dataclasses
import pathlib
import sys

from fxdispatch import load_config, settling_bound
from fxdispatch.cli import evaluate_gates

config = load_config(str(pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"))

gates = evaluate_gates(config)
if not gates.all_ok:
    sys.exit("assumption gates failed; settling bound undefined (run `fxdispatch check`)")
rho, tau1, phi2 = gates.report.rho, gates.tau1, gates.phi2
print(f"spectral inputs: tau1={tau1:.8f}  phi2={phi2:.7f}  rho={rho}")

sb = settling_bound(config.params, rho, tau1, phi2, len(config.generators))
print(f"alpha={sb.alpha:.6f}  beta={sb.beta:.6f}  p={sb.p}  q={sb.q}")
print(f"settling-time bound: {sb.ts:.2f} s")

print("\ngain sweep (k1 = k2 = k):")
for k in (2.5, 5.0, 10.0, 20.0):
    params = dataclasses.replace(config.params, k1=k, k2=k)
    ts = settling_bound(params, rho, tau1, phi2, len(config.generators)).ts
    print(f"  k = {k:5.1f}  ->  T_s <= {ts:8.2f} s")
