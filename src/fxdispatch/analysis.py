"""Assumption gates, curvature-matrix machinery, and the settling-time bound.

Everything here is a checkable consequence of the convergence analysis:
the loss-coefficient magnitude conditions, the eigenvalue condition
coupling loss coefficients with cost convexity, the element-wise bounds
on the dispatch map's curvature matrices, and the closed-form upper
bound on the time to reach consensus.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import AlgorithmParams
from .grid_model import (
    AssumptionViolation,
    CostSummary,
    KronLossModel,
    _demand_shares,
    cost_coefficients,
    cost_summary,
    marginal_costs,
    total_demand,
    weighted_cost_jacobian,
)
# imported by name: perfbench/spans.py patches analysis.jacobi_eigenvalues
from .topology import check_connected, jacobi_eigenvalues

#: roundoff slack for element-wise bound checks
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class SMatrix:
    """Curvature lower-bound matrix S and its sorted eigenvalues tau."""

    S: np.ndarray
    tau: np.ndarray


@dataclass(frozen=True)
class A2Report:
    """Eigenvalue condition on the loss matrix vs cost convexity.

    a2_value is (1+rho)*sigma + b1*delta for delta > 0, with b1 replaced
    by bN for delta < 0; the condition holds iff the value is positive,
    which the property a2_ok computes.
    """

    rho: float
    b1: float
    bN: float
    a2_value: float

    @property
    def a2_ok(self) -> bool:
        return self.a2_value > 0


@dataclass(frozen=True)
class AssumptionReport(A2Report):
    """Outcome of every standing-assumption gate for one configuration.

    The fields hold the evidence: the A2 scalars it takes from A2Report,
    the per-generator A1 verdicts, the remark-2 row-sum verdict and
    (sigma, delta). a1_ok (every generator passes A1) and A2Report's a2_ok
    are properties computed from it.

    connected_ok is always True: a LocalTopology is connected once its
    constructor returns (it raises AssumptionViolation otherwise), so the
    field only records that the check was made. It is kept for the
    `connected` line of `fxdispatch check` and report.json's
    assumptions.connected_ok.
    """

    connected_ok: bool
    a1_per_generator: tuple
    remark2_ok: bool
    sigma: float
    delta: float

    @property
    def a1_ok(self) -> bool:
        return all(self.a1_per_generator)

    @property
    def all_ok(self) -> bool:
        return self.connected_ok and self.a1_ok and self.remark2_ok and self.a2_ok


@dataclass(frozen=True)
class SettlingBound:
    """Fixed-time settling estimate from the gains alpha and beta of the
    Lyapunov decay dV/dt <= -alpha V^p - beta V^q and the exponents mu and
    nu, from which ts, p and q are computed."""

    alpha: float
    beta: float
    mu: float
    nu: float

    @property
    def ts(self) -> float:
        """The settling-time bound 4/(alpha(1-mu)) + 4/(beta(nu-1)) (s)."""
        return 4.0 / (self.alpha * (1.0 - self.mu)) + 4.0 / (self.beta * (self.nu - 1.0))

    @property
    def p(self) -> float:
        return (3.0 + self.mu) / 4.0

    @property
    def q(self) -> float:
        return (3.0 + self.nu) / 4.0


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


def check_a1(model: KronLossModel, dbar: float) -> np.ndarray:
    """Sufficient per-generator condition keeping own-loss gradients below 1.

    True for generator i iff sum_{j!=i} B_ij + 2 B_ii + B_i0/dbar < 1/dbar,
    where dbar is the total demand; the sum is row i of the own-loss
    gradient's Jacobian B + diag(B_ii). Guarantees dP_Li/dP_i < 1 whenever
    every power stays below dbar.
    """
    if dbar <= 0:
        raise AssumptionViolation(f"total demand must be positive, got {dbar}")
    return model.own_grad_jac.sum(axis=1) + model.B0 / dbar < 1.0 / dbar


def check_a2(model: KronLossModel, summary: CostSummary) -> A2Report:
    """Positivity of (1+rho)*sigma + b_extreme*delta, the key eigenvalue gate;
    summary.delta is nonzero, as CostSummary refuses zero."""
    eig = jacobi_eigenvalues(model.B)
    b1, bN = float(eig[0]), float(eig[-1])
    rho = float(model.B0.min())
    b_extreme = b1 if summary.delta > 0 else bN
    value = (1.0 + rho) * summary.sigma + b_extreme * summary.delta
    return A2Report(rho=rho, b1=b1, bN=bN, a2_value=value)


def build_s_matrix(model: KronLossModel, summary: CostSummary) -> SMatrix:
    """S = delta (B + diag(B_ii)) + diag((1+B_i0) sigma); tau sorted."""
    S = model.own_grad_jac * summary.delta
    S[np.diag_indices(model.n)] += model._one_plus_b0 * summary.sigma
    return SMatrix(S=S, tau=jacobi_eigenvalues(S))


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
    dB = model._diag
    grad_F = weighted_cost_jacobian(2.0 * model.B, c, lam, model.total_loss_gradient(P), 1.0)
    grad_M = np.diag(dB * lam + (dB * P + model.B0 / 2.0) * (2.0 * c))
    Q = weighted_cost_jacobian(model.own_grad_jac, c, lam, model._loss_factors(P), 1.0)
    return grad_F, grad_M, Q


def verify_lemma3_bounds(model: KronLossModel, gens, P) -> Lemma3Report:
    """Check the element-wise and spectral bounds R1-R5 at a nonnegative P,
    with the fleet's (sigma, delta) from cost_summary.

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
    summary = cost_summary(gens)
    sigma, delta = summary.sigma, summary.delta
    B, B0, dB = model.B, model.B0, model._diag
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
    sm = build_s_matrix(model, summary)
    r4 = bool((sm.S <= Q + slack).all())

    diag_sorted = np.sort(sigma * model._one_plus_b0)
    gap = sm.tau - diag_sorted
    pert_eig = delta * jacobi_eigenvalues(model.own_grad_jac)
    lo, hi = float(pert_eig.min()), float(pert_eig.max())
    r5 = bool(((gap >= lo - slack) & (gap <= hi + slack)).all())

    return Lemma3Report(r1=r1, r2=r2, r3=r3, r4=r4, r5=r5, grad_F=grad_F, grad_M=grad_M, Q=Q)


def settling_bound(params: AlgorithmParams, rho: float, tau1: float, phi2: float, n: int) -> SettlingBound:
    """Closed-form fixed-time settling estimate from gains and spectra.

    params is an AlgorithmParams, whose constructor ensures k1, k2 > 0 and
    0 < mu < 1 < nu. AssumptionViolation unless tau1 > 0 (the eigenvalue
    gate; a forced run can reach here with it failed) and phi2 > 0
    (connectivity; a one-node spectrum has phi2 = 0).
    """
    k1, k2, mu, nu = params.k1, params.k2, params.mu, params.nu
    if tau1 <= 0:
        raise AssumptionViolation(f"tau1={tau1} <= 0: eigenvalue gate failed, bound undefined")
    if phi2 <= 0:
        raise AssumptionViolation(f"phi2={phi2} <= 0: graph disconnected, bound undefined")
    base = (1.0 + rho) * tau1 * phi2**2
    alpha = k1 * base ** ((1.0 + mu) / 2.0) * 2.0 ** ((1.0 - mu) / 4.0)
    beta = k2 * n ** ((1.0 - nu) / 2.0) * base ** ((1.0 + nu) / 2.0) * 2.0 ** ((1.0 - nu) / 4.0)
    return SettlingBound(alpha=alpha, beta=beta, mu=mu, nu=nu)


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


def assemble_assumption_report(model: KronLossModel, gens, top) -> AssumptionReport:
    """Run every gate and collect the scalars the report prints.

    The pointwise own-loss-gradient condition is evaluated at the demand
    shares d0; the sufficient row-sum condition uses the total demand
    dbar = sum d0.
    """
    summary = cost_summary(gens)
    dbar = total_demand(gens)
    own_grad = model.own_loss_gradient(_demand_shares(gens))
    a1_per_gen = tuple(bool(0.0 <= g < 1.0) for g in own_grad)
    remark2 = check_a1(model, dbar) if dbar > 0 else np.zeros(model.n, dtype=bool)
    return AssumptionReport(
        connected_ok=check_connected(top),
        a1_per_generator=a1_per_gen,
        remark2_ok=bool(remark2.all()),
        sigma=summary.sigma,
        delta=summary.delta,
        **asdict(check_a2(model, summary)),
    )
