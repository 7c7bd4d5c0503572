"""Non-dynamical equilibrium solvers used to validate the simulator.

Two stationary characterizations are computed side by side: the
consensus equilibrium the dynamics actually converge to (all H_i
lambda_i equal, with H_i = 1 + dP_Li/dP_i), and the classical
penalty-factor coordination point (lambda_i / (1 - dP_Li/dP_i) equal).
Both share the balance constraint sum P = demand + losses. A brute-force
grid scan provides a solver-free cross-check for small fleets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import KronLossModel, marginal_costs, total_cost


class NewtonFailure(RuntimeError):
    """Damped Newton diverged; carries the best iterate found."""

    def __init__(self, msg: str, best):
        super().__init__(msg)
        self.best = best


@dataclass(frozen=True)
class EquilibriumSolution:
    """Stationary dispatch with its multiplier and residual diagnostics."""

    P_star: np.ndarray
    mu_star: float
    cost_star: float
    loss_star: float
    constraint_residual: float
    consensus_residual: float
    iterations: int


def _damped_newton(residual_fn, jacobian_fn, x0, tol=1e-12, max_iter=100, max_halvings=30):
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    rnorm = np.max(np.abs(r))
    for it in range(1, max_iter + 1):
        if rnorm < tol:
            return x, it - 1
        dx = np.linalg.solve(jacobian_fn(x), -r)
        t = 1.0
        for _ in range(max_halvings):
            x_new = x + t * dx
            r_new = residual_fn(x_new)
            n_new = np.max(np.abs(r_new))
            if n_new < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonFailure(f"no descent after {max_halvings} halvings (residual {rnorm:.3e})", x)
        x, r, rnorm = x_new, r_new, n_new
    if rnorm < tol:
        return x, max_iter
    raise NewtonFailure(f"not converged in {max_iter} iterations (residual {rnorm:.3e})", x)


def _solve_weighted(gens, model: KronLossModel, d_total: float, tol: float, weight) -> EquilibriumSolution:
    """Damped Newton on (P, mu) for {w_i lam_i = mu for all i, sum P = d_total + P_L(P)}.

    weight(P) returns (w, dw): the per-generator weights and their
    derivatives with respect to the own-loss gradient, whose Jacobian is
    B + diag(B_ii). Starts from a uniform demand split.
    """
    n = len(gens)
    b = np.array([g.b for g in gens])
    c = np.array([g.c for g in gens])
    B, B0 = model.B, model.B0
    own_grad_jac = B + np.diag(np.diag(B))

    def residual(x):
        P, mu = x[:n], x[n]
        lam = 2.0 * c * P + b
        w, _ = weight(P)
        return np.concatenate([w * lam - mu, [P.sum() - d_total - model.total_loss(P)]])

    def jacobian(x):
        P = x[:n]
        lam = 2.0 * c * P + b
        w, dw = weight(P)
        J = np.zeros((n + 1, n + 1))
        # d(w_i lam_i)/dP_j = dw_i (B_ij + delta_ij B_ii) lam_i + delta_ij w_i 2 c_i
        J[:n, :n] = own_grad_jac * (lam * dw)[:, None]
        J[np.arange(n), np.arange(n)] += w * 2.0 * c
        J[:n, n] = -1.0
        J[n, :n] = 1.0 - (2.0 * B @ P + B0)
        return J

    P0 = np.full(n, d_total / n)
    mu0 = float(np.mean(marginal_costs(gens, P0)))
    x, its = _damped_newton(residual, jacobian, np.concatenate([P0, [mu0]]), tol=tol)
    P, r = x[:n], residual(x)
    return EquilibriumSolution(
        P_star=P,
        mu_star=float(x[n]),
        cost_star=total_cost(gens, P),
        loss_star=model.total_loss(P),
        constraint_residual=float(abs(r[n])),
        consensus_residual=float(np.max(np.abs(r[:n]))),
        iterations=its,
    )


def solve_equilibrium(gens, model: KronLossModel, d_total: float, tol: float = 1e-12) -> EquilibriumSolution:
    """Root-solve {H_i lam_i = mu for all i, sum P = d_total + P_L(P)}.

    This is the stationary point of the consensus dynamics, with
    H_i = 1 + dP_Li/dP_i.
    """
    B, B0 = model.B, model.B0
    dB = np.diag(B)
    # kept in this association: re-associating H moves the last bits of the oracle points
    return _solve_weighted(gens, model, d_total, tol, lambda P: (1.0 + B @ P + dB * P + B0, 1.0))


def kkt_penalty_solution(gens, model: KronLossModel, d_total: float, tol: float = 1e-12) -> EquilibriumSolution:
    """Classical coordination: lam_i / (1 - dP_Li/dP_i) equal, plus balance."""

    def penalty_factor(P):
        pf = 1.0 / (1.0 - model._own_gradient(P))
        return pf, pf**2

    return _solve_weighted(gens, model, d_total, tol, penalty_factor)


def _close_constraint(P_partial, model: KronLossModel, d_total, i_last, tol=1e-12, max_iter=500):
    """Solve the last coordinate from sum P = d_total + P_L(P) by scalar fixed point."""
    P = np.append(P_partial, d_total)
    for _ in range(max_iter):
        p_new = d_total + model.total_loss(P) - P_partial.sum()
        if abs(p_new - P[i_last]) < tol:
            P[i_last] = p_new
            return P
        P[i_last] = p_new
    return None


def brute_force_optimum(gens, model: KronLossModel, d_total: float, grid_step: float,
                        p_max: float | None = None):
    """Exhaustive minimum-cost search over a power grid (fleets of <= 3).

    Scans the first N-1 powers on a regular grid, closes the balance
    constraint for the last one, and returns the feasible point with the
    lowest total cost (None if no grid point is feasible).
    """
    n = len(gens)
    if n > 3:
        raise ValueError("brute-force scan is limited to 3 generators")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if p_max is None:
        p_max = 1.5 * d_total
    if n == 1:
        return _close_constraint(np.empty(0), model, d_total, 0)

    axes = [np.arange(0.0, p_max + grid_step / 2, grid_step)] * (n - 1)
    best, best_cost = None, np.inf
    for point in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1):
        P = _close_constraint(point, model, d_total, n - 1)
        if P is None or P[n - 1] < 0:
            continue
        cost = total_cost(gens, P)
        if cost < best_cost:
            best, best_cost = P, cost
    return best
