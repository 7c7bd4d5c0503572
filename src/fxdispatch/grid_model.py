"""Generator cost curves and the quadratic transmission-loss model.

Quadratic generation costs C_i(P_i) = c_i P_i^2 + b_i P_i + a_i and the
B-coefficient loss surface P_L = P'BP + B0'P + B00, together with every
first-order derivative the dispatch algorithm and its analysis need; the
dynamics, the oracle and the analysis all take them from here.
All powers are in MW, costs in $/h; B entries carry 1/MW so losses come
out in MW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when model data violates a structural invariant."""


class AssumptionViolation(ValueError):
    """Raised when data breaks one of the algorithm's standing assumptions."""


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: quadratic cost coefficients, the power p0, demand share.

    a: cost offset ($/h); b: linear coefficient ($/MWh); c: quadratic
    coefficient ($/MW^2 h), must be positive; p0: the power (MW, >= 0) from
    which a run file that omits d0 derives it, so that a run from z0 = 0
    starts at p0; d0: this generator's share of the load demand (MW). A run
    starts where P = -L z0 + d0 + P_L(P), so where d0 is given p0 is only
    checked to be >= 0.
    """

    a: float
    b: float
    c: float
    p0: float = 0.0
    d0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "p0", "d0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {name}={getattr(self, name)}")
        if not self.c > 0:
            raise ConfigurationError(f"quadratic coefficient must be > 0, got c={self.c}")
        if not self.p0 >= 0:
            raise ConfigurationError(f"initial power must be >= 0, got p0={self.p0}")


@dataclass(frozen=True)
class CostSummary:
    """Convexity constants of a generator fleet.

    sigma: uniform lower bound on cost curvature; delta: uniform lower
    bound on marginal cost over nonnegative power, which must be nonzero
    (AssumptionViolation otherwise): A2 takes its sign.
    """

    sigma: float
    delta: float

    def __post_init__(self) -> None:
        if self.delta == 0:
            raise AssumptionViolation("marginal-cost lower bound delta must be nonzero")


class KronLossModel:
    """Quadratic loss surface with symmetric coefficient matrix B.

    The constant term B00 is attributed to individual generators with the
    uniform split B00/N; any split summing to B00 gives identical total
    losses and identical own-loss gradients, so the choice is
    observationally irrelevant to the dispatch algorithm.
    """

    def __init__(self, B, B0, B00: float):
        B = np.asarray(B, dtype=float)
        B0 = np.asarray(B0, dtype=float)
        B00 = float(B00)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ConfigurationError(f"B must be square, got shape {B.shape}")
        n = B.shape[0]
        if B0.shape != (n,):
            raise ConfigurationError(f"B0 length {B0.shape} does not match B ({n}x{n})")
        if not (np.isfinite(B).all() and np.isfinite(B0).all() and np.isfinite(B00)):
            raise ConfigurationError("all entries of B and B0, and B00, must be finite")
        bad = np.argwhere(B != B.T)
        if bad.size:
            i, j = bad[0]
            raise ConfigurationError(f"B is not symmetric at indices ({i},{j})")
        if (B < 0).any() or (B0 < 0).any():
            raise ConfigurationError("all entries of B and B0 must be >= 0")
        self.B = B
        self.B0 = B0
        self.B00 = B00
        self.n = n
        self._diag = np.diag(B).copy()
        #: Jacobian of own_loss_gradient, B + diag(B_ii); constant, as the loss is quadratic
        self.own_grad_jac = B + np.diag(self._diag)
        #: B00/N, the constant loss attributed to each generator
        self._b00_share = B00 / n
        #: B0 - 1 and 1 + B0, the constants of _losses_less_power and _loss_factors
        self._b0_less_one = B0 - 1.0
        self._one_plus_b0 = 1.0 + B0

    def _check_len(self, P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if P.shape != (self.n,):
            raise ConfigurationError(f"power vector length {P.shape} != {self.n}")
        return P

    def total_loss(self, P) -> float:
        """P'BP + B0'P + B00, the network-wide transmission loss in MW."""
        P = self._check_len(P)
        return float(P.dot(self.B).dot(P) + self.B0.dot(P) + self.B00)

    def generator_losses(self, P) -> np.ndarray:
        """Loss attributed to each generator; the entries sum to total_loss."""
        P = self._check_len(P)
        return P * (self.B.dot(P) + self.B0) + self._b00_share

    def _losses_less_power(self, P: np.ndarray) -> np.ndarray:
        # unchecked generator_losses(P) - B00/N - P folded into one product,
        # P (B P + (B0 - 1)), for the power solve's residual, which adds B00/N
        # to its constant term
        return P * (self.B.dot(P) + self._b0_less_one)

    def total_loss_gradient(self, P) -> np.ndarray:
        """Gradient of the total loss: entry i is 2 sum_j B_ij P_j + B_i0."""
        P = self._check_len(P)
        return 2.0 * (self.B @ P) + self.B0

    def own_loss_gradient(self, P) -> np.ndarray:
        """Entry i is generator i's own-loss gradient sum_{j!=i} B_ij P_j + 2 B_ii P_i + B_i0.

        1 + this is the loss-augmentation factor H.
        """
        return self._own_gradient(self._check_len(P))

    def _own_gradient(self, P: np.ndarray) -> np.ndarray:
        # unchecked own_loss_gradient for the integrator's inner loop
        return self.own_grad_jac.dot(P) + self.B0

    def _loss_factors(self, P: np.ndarray) -> np.ndarray:
        # unchecked 1 + own_loss_gradient, the factors H, with 1 + B0 stored
        return self.own_grad_jac.dot(P) + self._one_plus_b0

    def _jacobian(self, P: np.ndarray) -> np.ndarray:
        """Jacobian of generator_losses: entry (i, j) is P_i B_ij off the
        diagonal and the own-loss gradient on it."""
        J = self.B * P[:, None]
        np.fill_diagonal(J, self._own_gradient(P))
        return J


def total_cost(gens, P) -> float:
    """sum_i C_i(P_i), the fleet's generation cost in $/h."""
    P = np.asarray(P, dtype=float)
    if len(gens) != P.shape[0]:
        raise ConfigurationError(f"{len(gens)} generators but {P.shape[0]} powers")
    return float(fleet_cost(cost_coefficients(gens), P))


def cost_coefficients(gens) -> np.ndarray:
    """The fleet's cost coefficients as rows (a, b, c), one column per generator."""
    return np.array([[g.a for g in gens], [g.b for g in gens], [g.c for g in gens]], dtype=float)


def fleet_cost(abc: np.ndarray, P: np.ndarray) -> np.ndarray:
    """sum_i c_i P_i^2 + b_i P_i + a_i from the rows (a, b, c) of
    cost_coefficients, summed over the last axis of P (one power vector
    per row); P is not checked."""
    a, b, c = abc
    return np.add.reduce(c * P * P + b * P + a, axis=-1)


def _demand_shares(gens) -> np.ndarray:
    """The demand shares d0 of a fleet as one array (MW)."""
    return np.array([g.d0 for g in gens], dtype=float)


def total_demand(gens) -> float:
    """The fleet's total demand (MW): NumPy's sum of the demand shares d0, the one
    place they are summed (DispatchSystem.dbar returns it)."""
    return float(_demand_shares(gens).sum())


def marginal_costs(b, c, P):
    """lam = dC/dP = 2cP + b, the incremental costs in $/MWh, from the
    linear and quadratic cost coefficients b and c."""
    return 2.0 * c * P + b


def weighted_cost_jacobian(G, c, lam, w, dw) -> np.ndarray:
    """d(w lam)/dP at marginal costs lam, for weights w(g) of a loss gradient g of Jacobian
    G with dw = dw/dg: entry (i, j) is lam_i dw_i G_ij + delta_ij w_i 2 c_i. G = own_grad_jac,
    w = H give d(H lam)/dP (K, Q); G = 2B, w = total_loss_gradient give grad_F."""
    J = G * (lam * dw)[:, None]
    J[np.diag_indices(len(c))] += w * 2.0 * c
    return J


def cost_summary(gens) -> CostSummary:
    """Extract (sigma, delta) = (2 min c_i, min b_i) from a fleet.

    delta = min b_i lower-bounds every marginal cost only on P >= 0; the
    simulator warns (but continues) if a transient drives powers negative.
    CostSummary raises AssumptionViolation if delta is zero.
    """
    if not gens:
        raise ConfigurationError("need at least one generator")
    return CostSummary(sigma=2.0 * min(g.c for g in gens), delta=min(g.b for g in gens))
