"""Lemma-3 test oracle: the element-wise curvature bounds R1-R5 and the
power-mean inequalities of the convergence analysis.

The settling-time bound needs only S (`fxdispatch.analysis.build_s_matrix`)
and its smallest eigenvalue tau1, so the library gates on those. These
checks of the lemma's intermediate claims have callers only in the tests:
acceptance criterion 6, `tests/test_analysis.py` and the check that
`dynamics._sensitivity`'s K is this module's Q. They form the fleet's
sigma = 2 min c_i and delta = min b_i from `cost_coefficients` with the
expressions `assemble_assumption_report` uses, and take S's eigenvalues from
`jacobi_eigenvalues`, as the CLI does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fxdispatch.analysis import build_s_matrix, jacobi_eigenvalues
from fxdispatch.grid_model import (
    AssumptionViolation,
    KronLossModel,
    cost_coefficients,
    marginal_costs,
    weighted_cost_jacobian,
)

#: roundoff slack for element-wise bound checks
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class Lemma3Report:
    """Element-wise curvature bounds R1-R5 evaluated at one power vector."""

    r1: bool
    r2: bool
    r3: bool
    r4: bool
    r5: bool
    grad_F: np.ndarray
    grad_M: np.ndarray
    Q: np.ndarray

    @property
    def all_ok(self) -> bool:
        return self.r1 and self.r2 and self.r3 and self.r4 and self.r5


def curvature_matrices(model: KronLossModel, gens, P):
    """Analytic Jacobians of the loss-weighted marginal-cost maps at P.

    Returns (grad_F, grad_M, Q): grad_F is the Jacobian of the
    total-loss-gradient times marginal-cost product, grad_M the diagonal
    Jacobian of the own-loss correction term, and Q = d(H lam)/dP, the
    dynamics' K, equal to diag(2c) + 0.5 grad_F + grad_M.
    """
    P = np.asarray(P, dtype=float)
    _, b, c = cost_coefficients(gens)
    lam = marginal_costs(b, c, P)
    dB = np.diag(model.B)
    grad_F = weighted_cost_jacobian(2.0 * model.B, c, lam, model.total_loss_gradient(P), 1.0)
    grad_M = np.diag(dB * lam + (dB * P + model.B0 / 2.0) * (2.0 * c))
    Q = weighted_cost_jacobian(model.own_grad_jac, c, lam, model._loss_factors(P), 1.0)
    return grad_F, grad_M, Q


def verify_lemma3_bounds(model: KronLossModel, gens, P) -> Lemma3Report:
    """Check the element-wise and spectral bounds R1-R5 at a nonnegative P,
    with the fleet's sigma = 2 min c_i and delta = min b_i.

    R5 pairs the sorted eigenvalues of S with the sorted diagonal matrix
    sigma*(1+B_i0) and bounds each gap by the extreme eigenvalues of the
    remaining perturbation delta*(B + diag(B_ii)); this is the Weyl
    bound for the decomposition S actually admits (the diagonal of S
    carries 2*B_ii, so the off-diagonal matrix B alone understates the
    perturbation and its extreme eigenvalues alone would give a false
    upper bound).
    """
    P = np.asarray(P, dtype=float)
    if (P < 0).any():
        raise AssumptionViolation("bounds are only claimed for nonnegative powers")
    _, b, c = cost_coefficients(gens)
    sigma, delta = 2.0 * min(c), min(b)
    B, B0, dB = model.B, model.B0, np.diag(model.B)
    grad_F, grad_M, Q = curvature_matrices(model, gens, P)
    slack = BOUND_SLACK

    off = ~np.eye(model.n, dtype=bool)
    r1 = bool(
        (np.diag(grad_F) >= 2.0 * dB * delta + B0 * sigma - slack).all()
        and (grad_F[off] >= (2.0 * B * delta)[off] - slack).all()
    )
    r2 = bool((np.diag(grad_M) >= dB * delta + (B0 / 2.0) * sigma - slack).all())
    r3 = bool(
        (np.diag(Q) >= sigma + 2.0 * dB * delta + B0 * sigma - slack).all()
        and (Q[off] >= (B * delta)[off] - slack).all()
    )
    S = build_s_matrix(model, sigma, delta)
    r4 = bool((S <= Q + slack).all())

    diag_sorted = np.sort(sigma * model._one_plus_b0)
    gap = jacobi_eigenvalues(S) - diag_sorted
    pert_eig = delta * jacobi_eigenvalues(model.own_grad_jac)
    lo, hi = float(pert_eig.min()), float(pert_eig.max())
    r5 = bool(((gap >= lo - slack) & (gap <= hi + slack)).all())

    return Lemma3Report(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5, grad_F=grad_F, grad_M=grad_M, Q=Q)


def power_mean_check(zeta, m: float) -> bool:
    """Power-sum inequality for nonnegative entries.

    sum z_i^m >= (sum z_i)^m for 0 < m <= 1, and
    sum z_i^m >= N^(1-m) (sum z_i)^m for m > 1.
    """
    zeta = np.asarray(zeta, dtype=float)
    if (zeta < 0).any():
        raise ValueError("entries must be nonnegative")
    if m <= 0:
        raise ValueError("exponent must be positive")
    lhs = float(np.sum(zeta**m))
    total = float(np.sum(zeta))
    if m <= 1:
        rhs = total**m
    else:
        rhs = len(zeta) ** (1.0 - m) * total**m
    return lhs >= rhs - 1e-12 * max(1.0, abs(rhs))
