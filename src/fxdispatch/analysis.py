"""Assumption gates and the settling-time bound.

Everything here is a checkable premise or consequence of the convergence
analysis: the loss-coefficient magnitude conditions, the eigenvalue
condition coupling loss coefficients with cost convexity, the curvature
lower-bound matrix S whose smallest eigenvalue tau1 the bound needs, and
the closed-form upper bound on the time to reach consensus. The verdict
over these gates is `cli.Gates.all_ok`. The cost constant delta = min b_i
lower-bounds every marginal cost only for P >= 0, so a run that drives a
power negative leaves the premise (the simulator warns and continues).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AlgorithmParams
from .grid_model import (
    AssumptionViolation,
    KronLossModel,
    _check_sizes,
    _demand_shares,
    total_demand,
)
# imported by name: perfbench/spans.py patches analysis.jacobi_eigenvalues
from .topology import LocalTopology, jacobi_eigenvalues


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of every standing-assumption gate for one configuration.

    The fields hold the evidence: rho = min B_i0, the extreme eigenvalues b1
    and bN of B, sigma and delta of the costs, the per-generator A1 verdicts
    and the remark-2 row-sum verdict; delta must be nonzero
    (AssumptionViolation otherwise), as A2 takes its sign. a1_ok (every
    generator passes A1), a2_value ((1+rho)*sigma + b1*delta for delta > 0, with b1 replaced by bN
    for delta < 0) and a2_ok (a2_value > 0) are properties computed from
    it. The verdict over every gate, tau1 > 0 included, is cli.Gates.all_ok.
    """

    rho: float
    b1: float
    bN: float
    sigma: float
    delta: float
    a1_per_generator: tuple
    remark2_ok: bool

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise AssumptionViolation("marginal-cost lower bound delta must be nonzero")

    @property
    def a2_value(self) -> float:
        b_extreme = self.b1 if self.delta > 0 else self.bN
        return (1.0 + self.rho) * self.sigma + b_extreme * self.delta

    @property
    def a2_ok(self) -> bool:
        return self.a2_value > 0

    @property
    def connected_ok(self) -> bool:
        """True: a LocalTopology is connected once its constructor returns.
        Kept for `fxdispatch check`'s `connected` line and report.json."""
        return True

    @property
    def a1_ok(self) -> bool:
        return all(self.a1_per_generator)


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


def build_s_matrix(model: KronLossModel, sigma: float, delta: float) -> np.ndarray:
    """S = delta (B + diag(B_ii)) + diag((1+B_i0) sigma), the curvature
    lower-bound matrix; the bound's tau1 is its least eigenvalue."""
    S = model.own_grad_jac * delta
    S[np.diag_indices(model.n)] += model._one_plus_b0 * sigma
    return S


def settling_bound(params: AlgorithmParams, rho: float, tau1: float, phi2: float, n: int) -> SettlingBound:
    """Closed-form fixed-time settling estimate from gains and spectra.

    params is an AlgorithmParams, whose constructor ensures k1, k2 > 0 and
    0 < mu < 1 < nu. AssumptionViolation unless tau1 > 0 (the curvature
    gate of `fxdispatch check`, which the CLI passes before calling here) and
    phi2 > 0 (connectivity; a one-node spectrum has phi2 = 0).
    """
    k1, k2, mu, nu = params.k1, params.k2, params.mu, params.nu
    if not tau1 > 0:
        raise AssumptionViolation(f"tau1={tau1} <= 0: curvature condition failed, bound undefined")
    if not phi2 > 0:
        raise AssumptionViolation(f"phi2={phi2} <= 0: graph disconnected, bound undefined")
    base = (1.0 + rho) * tau1 * phi2**2
    alpha = k1 * base ** ((1.0 + mu) / 2.0) * 2.0 ** ((1.0 - mu) / 4.0)
    beta = k2 * n ** ((1.0 - nu) / 2.0) * base ** ((1.0 + nu) / 2.0) * 2.0 ** ((1.0 - nu) / 4.0)
    return SettlingBound(alpha=alpha, beta=beta, mu=mu, nu=nu)


def assemble_assumption_report(model: KronLossModel, gens, top: LocalTopology) -> AssumptionReport:
    """Run every gate and collect the scalars the report prints.

    A1 is the own-loss gradient in [0, 1) at the demand shares d0. Remark 2
    is the sufficient row-sum condition sum_{j!=i} B_ij + 2 B_ii + B_i0/dbar
    < 1/dbar for every i, with dbar = sum d0 > 0; the sum is row i of the
    own-loss gradient's Jacobian B + diag(B_ii), and the condition keeps
    every dP_Li/dP_i below 1 while each power stays below dbar. top is
    connected by construction; ValueError unless it and model fit the fleet.
    sigma = 2 min c_i and delta = min b_i are formed here; delta
    lower-bounds every marginal cost only for P >= 0.
    """
    _check_sizes(len(gens), model, top)
    dbar = total_demand(gens)
    own_grad = model.own_loss_gradient(_demand_shares(gens))
    remark2 = dbar > 0 and bool((model.own_grad_jac.sum(axis=1) + model.B0 / dbar < 1.0 / dbar).all())
    eig = jacobi_eigenvalues(model.B)
    return AssumptionReport(
        rho=float(model.B0.min()), b1=float(eig[0]), bN=float(eig[-1]),
        sigma=2.0 * min(g.c for g in gens), delta=min(g.b for g in gens),
        a1_per_generator=tuple(bool(0.0 <= g < 1.0) for g in own_grad), remark2_ok=remark2,
    )
