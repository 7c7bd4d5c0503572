"""Generator cost curves and the quadratic transmission-loss model.

Quadratic generation costs C_i(P_i) = c_i P_i^2 + b_i P_i + a_i and the
B-coefficient loss surface P_L = P'BP + B0'P + B00, together with every
first-order derivative the dispatch algorithm and its analysis need.
All powers are in MW, costs in $/h; B entries carry 1/MW so losses come
out in MW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised when model data violates a structural invariant."""


class AssumptionViolation(ValueError):
    """Raised when data breaks one of the algorithm's standing assumptions."""


@dataclass(frozen=True)
class GeneratorSpec:
    """One generator: quadratic cost coefficients, initial power, demand share.

    a: cost offset ($/h); b: linear coefficient ($/MWh); c: quadratic
    coefficient ($/MW^2 h), must be positive; p0: initial power (MW);
    d0: this generator's share of the load demand (MW).
    """

    a: float
    b: float
    c: float
    p0: float = 0.0
    d0: float = 0.0

    def __post_init__(self) -> None:
        if not self.c > 0:  # also rejects NaN
            raise ConfigurationError(f"quadratic coefficient must be > 0, got c={self.c}")
        if not self.p0 >= 0:
            raise ConfigurationError(f"initial power must be >= 0, got p0={self.p0}")

    def marginal_cost(self, p: float) -> float:
        """dC/dP = 2cp + b, the generator's incremental cost in $/MWh."""
        return 2.0 * self.c * p + self.b


@dataclass(frozen=True)
class CostSummary:
    """Convexity constants of a generator fleet.

    sigma: uniform lower bound on cost curvature; delta: uniform lower
    bound on marginal cost over nonnegative power.
    """

    sigma: float
    delta: float


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
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ConfigurationError(f"B must be square, got shape {B.shape}")
        n = B.shape[0]
        if B0.shape != (n,):
            raise ConfigurationError(f"B0 length {B0.shape} does not match B ({n}x{n})")
        bad = np.argwhere(B != B.T)
        if bad.size:
            i, j = bad[0]
            raise ConfigurationError(f"B is not symmetric at indices ({i},{j})")
        if (B < 0).any() or (B0 < 0).any():
            raise ConfigurationError("all entries of B and B0 must be >= 0")
        self.B = B
        self.B0 = B0
        self.B00 = float(B00)
        self.n = n
        self._diag = np.diag(B).copy()

    def _check_len(self, P: np.ndarray) -> np.ndarray:
        P = np.asarray(P, dtype=float)
        if P.shape != (self.n,):
            raise ConfigurationError(f"power vector length {P.shape} != {self.n}")
        return P

    def total_loss(self, P) -> float:
        """P'BP + B0'P + B00, the network-wide transmission loss in MW."""
        P = self._check_len(P)
        return float(P @ self.B @ P + self.B0 @ P + self.B00)

    def generator_losses(self, P) -> np.ndarray:
        """Loss attributed to each generator; the entries sum to total_loss."""
        return self._losses(self._check_len(P))

    def _losses(self, P: np.ndarray) -> np.ndarray:
        # unchecked generator_losses for the integrator's inner loop
        return P * (self.B @ P) + P * self.B0 + self.B00 / self.n

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
        return self.B @ P + self._diag * P + self.B0

    def _jacobian(self, P: np.ndarray) -> np.ndarray:
        """Jacobian of generator_losses: entry (i, j) is P_i B_ij off the
        diagonal and the own-loss gradient on it."""
        J = self.B * P[:, None]
        np.fill_diagonal(J, self._own_gradient(P))
        return J


def total_cost(gens, P) -> float:
    P = np.asarray(P, dtype=float)
    if len(gens) != P.shape[0]:
        raise ConfigurationError(f"{len(gens)} generators but {P.shape[0]} powers")
    a = np.array([g.a for g in gens])
    b = np.array([g.b for g in gens])
    c = np.array([g.c for g in gens])
    return float(np.sum(c * P * P + b * P + a))


def total_demand(gens) -> float:
    """The fleet's total demand, the sum of the demand shares d0 (MW)."""
    return float(sum(g.d0 for g in gens))


def marginal_costs(gens, P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    b = np.array([g.b for g in gens])
    c = np.array([g.c for g in gens])
    return 2.0 * c * P + b


def cost_summary(gens) -> CostSummary:
    """Extract (sigma, delta) = (2 min c_i, min b_i) from a fleet.

    delta = min b_i lower-bounds every marginal cost only on P >= 0; the
    simulator warns (but continues) if a transient drives powers negative.
    """
    if not gens:
        raise ConfigurationError("need at least one generator")
    sigma = 2.0 * min(g.c for g in gens)
    delta = min(g.b for g in gens)
    if delta == 0:
        raise AssumptionViolation("marginal-cost lower bound delta must be nonzero")
    return CostSummary(sigma=sigma, delta=delta)
