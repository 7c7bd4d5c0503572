"""
Transmission-loss model walkthrough
===================================

Builds the four-generator B-coefficient loss surface used throughout the
package, evaluates total and per-generator losses at the initial dispatch,
and checks the analytic gradients against central differences.

Run:  python3 demos/loss_surface.py
"""

import numpy as np

from fxdispatch import KronLossModel

B = np.array([
    [1.200, 0.286, 0.481, 0.321],
    [0.286, 1.341, 0.511, 1.251],
    [0.481, 0.511, 1.539, 1.463],
    [0.321, 1.251, 1.463, 1.612],
]) * 1e-4
B0 = np.array([2.0, 1.0, 2.5, 1.5]) * 1e-3
model = KronLossModel(B, B0, 4.0)

P = np.array([170.0, 110.0, 140.0, 180.0])
print(f"initial dispatch P = {P.tolist()} MW")
print(f"total transmission loss  P_L = {model.total_loss(P):.5f} MW")
print("per-generator shares    ", np.round(model.generator_losses(P), 5))
print(f"shares sum back to total: {model.generator_losses(P).sum():.5f} MW")

# The per-generator ("own") loss gradient is what enters the dispatch
# dynamics through H_i = 1 + dP_Li/dP_i.
print("\nown-loss gradients dP_Li/dP_i:", np.round(model.own_loss_gradient(P), 6))

h = 1e-4
for i in range(4):
    e = np.zeros(4)
    e[i] = h
    fd = (model.total_loss(P + e) - model.total_loss(P - e)) / (2 * h)
    analytic = model.total_loss_gradient(P)[i]
    print(f"dP_L/dP_{i + 1}: analytic {analytic:.8f}  central-diff {fd:.8f}  "
          f"|err| {abs(fd - analytic):.1e}")
