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


def _check_count(name: str, value, least: int) -> None:
    """Raise ValueError naming the field unless value is an integer >= least:
    a bool is not one, nor is a value without __index__, which operator.index
    refuses (2.5, and 2.0 too)."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _check_sizes(n: int, loss: KronLossModel | None = None, top: LocalTopology | None = None) -> None:
    """Raise ValueError unless the loss model and topology given fit n generators."""
    if loss is not None and loss.n != n:
        raise ValueError(f"{n} generators but loss matrix is {loss.n}x{loss.n}")
    if top is not None and top.n != n:
        raise ValueError(f"{n} generators but topology has {top.n} nodes")


def _vector(name: str, x, n: int) -> np.ndarray:
    """x as a float array; ValueError unless its shape is (n,). Finiteness is
    not checked: np.isfinite(x).all() would cost more than a generator_losses call."""
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} has shape {v.shape}; expected ({n},)")
    return v


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
        if n == 0:
            raise ConfigurationError(f"B must be at least 1x1, got shape {B.shape}")
        if B0.shape != (n,):
            raise ConfigurationError(f"B0 length {B0.shape} does not match B ({n}x{n})")
        if not (np.isfinite(B).all() and np.isfinite(B0).all() and np.isfinite(B00)):
            raise ConfigurationError("all entries of B and B0, and B00, must be finite")
        if (B != B.T).any():
            i, j = np.argwhere(B != B.T)[0]
            raise ConfigurationError(f"B is not symmetric at indices ({i},{j})")
        if (B < 0).any() or (B0 < 0).any():
            raise ConfigurationError("all entries of B and B0 must be >= 0")
        self.B = B
        self.B0 = B0
        self.B00 = B00
        self.n = n
        #: Jacobian of own_loss_gradient, B + diag(B_ii); constant, as the loss is quadratic
        self.own_grad_jac = B + np.diag(np.diag(B))
        #: B00/N, the constant loss attributed to each generator
        self._b00_share = B00 / n
        #: B0 - 1, 1 + B0 and I, the constants of _losses_less_power, _loss_factors and _newton_factor
        self._b0_less_one = B0 - 1.0
        self._one_plus_b0 = 1.0 + B0
        self._eye = np.eye(n)

    def total_loss(self, P):
        """P'BP + B0'P + B00, the network-wide transmission loss in MW, over
        the last axis of P (one power vector per row), as fleet_cost sums:
        a float for one vector, an array for a stack of them.

        One expression serves both shapes, and a row's loss is the loss of
        that vector alone bit for bit: P[..., None, :] @ B is a stack of
        vector-matrix products, each the same BLAS call, where P.dot(B) on a
        stack is one matrix product whose rows may differ from the vector's
        own in the last bit."""
        P = np.asarray(P, dtype=float)
        if P.shape[-1:] != (self.n,):
            raise ValueError(f"P has shape {P.shape}; expected (..., {self.n})")
        loss = np.add.reduce(P * (np.matmul(P[..., None, :], self.B)[..., 0, :] + self.B0), axis=-1) + self.B00
        return float(loss) if P.ndim == 1 else loss

    def generator_losses(self, P) -> np.ndarray:
        """Loss attributed to each generator; the entries sum to total_loss."""
        P = _vector("P", P, self.n)
        return P * (self.B.dot(P) + self.B0) + self._b00_share

    def _losses_less_power(self, P: np.ndarray) -> np.ndarray:
        # unchecked generator_losses(P) - B00/N - P folded into one product,
        # P (B P + (B0 - 1)), for the power solve's residual, which adds B00/N
        # to its constant term
        return P * (self.B.dot(P) + self._b0_less_one)

    def total_loss_gradient(self, P) -> np.ndarray:
        """Gradient of the total loss: entry i is 2 sum_j B_ij P_j + B_i0."""
        P = _vector("P", P, self.n)
        return 2.0 * (self.B @ P) + self.B0

    def own_loss_gradient(self, P) -> np.ndarray:
        """Entry i is generator i's own-loss gradient sum_{j!=i} B_ij P_j + 2 B_ii P_i + B_i0.

        1 + this is the loss-augmentation factor H.
        """
        return self._own_gradient(_vector("P", P, self.n))

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

    def _newton_factor(self, P: np.ndarray) -> np.ndarray:
        """(I - _jacobian(P))^-1, the Newton factor of every power solve."""
        return np.linalg.inv(self._eye - self._jacobian(P))


def total_cost(gens, P) -> float:
    """sum_i C_i(P_i), the fleet's generation cost in $/h."""
    return float(fleet_cost(cost_coefficients(gens), _vector("P", P, len(gens))))


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
    w = H give d(H lam)/dP, the dynamics' K; G = 2B, w = total_loss_gradient give
    grad_F, which only the tests' Lemma-3 oracle forms (tests/lemma3.py)."""
    J = G * (lam * dw)[:, None]
    J[np.diag_indices(len(c))] += w * 2.0 * c
    return J
