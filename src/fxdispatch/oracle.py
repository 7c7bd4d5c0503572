"""Non-dynamical equilibrium solvers used to validate the simulator.

Two stationary characterizations are computed side by side: the
consensus equilibrium the dynamics actually converge to (all H_i
lambda_i equal, with H_i = 1 + dP_Li/dP_i), and the classical
penalty-factor coordination point (lambda_i / (1 - dP_Li/dP_i) equal).
Both share the balance constraint sum P = demand + losses. The marginal
costs and the Jacobian of the weighted marginal costs are grid_model's,
the ones the dynamics use too. A brute-force grid scan provides a
solver-free cross-check for small fleets; it closes the balance for the
last unit in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid_model import (AssumptionViolation, KronLossModel, _check_sizes, cost_coefficients, fleet_cost,
                         marginal_costs, total_cost, weighted_cost_jacobian)

#: damped Newton's stop on max|residual|, its iteration cap and its step-halving cap
_NEWTON_TOL, _NEWTON_MAX_ITER, _NEWTON_MAX_HALVINGS = 1e-12, 100, 30


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


def _damped_newton(residual_fn, jacobian_fn, x0):
    """Damped Newton from x0 to max|residual| < _NEWTON_TOL, else NewtonFailure."""
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    rnorm = np.max(np.abs(r))
    for it in range(1, _NEWTON_MAX_ITER + 1):
        if rnorm < _NEWTON_TOL:
            return x, it - 1
        dx = np.linalg.solve(jacobian_fn(x), -r)
        t = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            x_new = x + t * dx
            r_new = residual_fn(x_new)
            n_new = np.max(np.abs(r_new))
            if n_new < rnorm:
                break
            t *= 0.5
        else:
            raise NewtonFailure(f"no descent after {_NEWTON_MAX_HALVINGS} halvings (residual {rnorm:.3e})", x)
        x, r, rnorm = x_new, r_new, n_new
    if rnorm < _NEWTON_TOL:
        return x, _NEWTON_MAX_ITER
    raise NewtonFailure(f"not converged in {_NEWTON_MAX_ITER} iterations (residual {rnorm:.3e})", x)


def _solve_weighted(gens, model: KronLossModel, d_total: float, weight) -> EquilibriumSolution:
    """Damped Newton on (P, mu) for {w_i lam_i = mu for all i, sum P = d_total + P_L(P)}.

    weight(P) returns (w, dw): the per-generator weights and their
    derivatives with respect to the own-loss gradient (see
    grid_model.weighted_cost_jacobian). Starts from a uniform demand split
    and stops at max|residual| < _NEWTON_TOL. ValueError unless model fits
    the fleet; AssumptionViolation unless d_total > 0: the point would have
    a negative power.
    """
    _check_sizes(len(gens), model)
    if not d_total > 0.0:
        raise AssumptionViolation(f"total demand is {d_total:.10g} MW; the oracle needs a positive total demand")
    n = len(gens)
    _, b, c = cost_coefficients(gens)

    def residual(x):
        P, mu = x[:n], x[n]
        w, _ = weight(P)
        return np.concatenate([w * marginal_costs(b, c, P) - mu, [P.sum() - d_total - model.total_loss(P)]])

    def jacobian(x):
        P = x[:n]
        w, dw = weight(P)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = weighted_cost_jacobian(model.own_grad_jac, c, marginal_costs(b, c, P), w, dw)
        J[:n, n] = -1.0
        J[n, :n] = 1.0 - model.total_loss_gradient(P)
        return J

    P0 = np.full(n, d_total / n)
    mu0 = float(np.mean(marginal_costs(b, c, P0)))
    x, its = _damped_newton(residual, jacobian, np.concatenate([P0, [mu0]]))
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


def solve_equilibrium(gens, model: KronLossModel, d_total: float) -> EquilibriumSolution:
    """Root-solve {H_i lam_i = mu for all i, sum P = d_total + P_L(P)}.

    This is the stationary point of the consensus dynamics, with
    H_i = 1 + dP_Li/dP_i, the loss model's _loss_factors.
    """
    return _solve_weighted(gens, model, d_total, lambda P: (model._loss_factors(P), 1.0))


def kkt_penalty_solution(gens, model: KronLossModel, d_total: float) -> EquilibriumSolution:
    """Classical coordination: lam_i / (1 - dP_Li/dP_i) equal, plus balance."""

    def penalty_factor(P):
        pf = 1.0 / (1.0 - model._own_gradient(P))
        return pf, pf**2

    return _solve_weighted(gens, model, d_total, penalty_factor)


def brute_force_optimum(gens, model: KronLossModel, d_total: float, grid_step: float):
    """Exhaustive minimum-cost search over a power grid (fleets of <= 3).

    Scans the first N-1 powers p on a grid from 0 to 1.5 d_total, one slice
    per first power when N = 3, and closes the balance sum p + x = d_total
    + P_L(p, x) exactly: a x^2 + (b - 1) x + C = 0 with a = B_NN, b = 2
    B_N,:N-1 p + B0_N and C = d_total - sum p + p'B_pp p + B0_p p + B00, so
    x = 2C / ((1 - b) + sqrt((1 - b)^2 - 4aC)), the smaller root, with no
    branch at a = 0. Returns the cheapest point with x finite and >= 0 (the
    first in scan order on a tie), or None; with N = 1, the root itself.
    ValueError unless model fits the fleet and grid_step > 0.
    """
    n = len(gens)
    _check_sizes(n, model)
    if n > 3:
        raise ValueError("brute-force scan is limited to 3 generators")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    grid = np.arange(0.0, 1.5 * d_total + grid_step / 2, grid_step)
    heads = ([np.empty((1, 0))] if n == 1 else [grid[:, None]] if n == 2
             else (np.column_stack([np.full_like(grid, p1), grid]) for p1 in grid))
    B, B0, abc = model.B, model.B0, cost_coefficients(gens)
    best, best_cost = None, np.inf
    for head in heads:
        b = 2.0 * (head @ B[-1, :-1]) + B0[-1]
        C = d_total - head.sum(axis=1) + ((head @ B[:-1, :-1]) * head).sum(axis=1) + head @ B0[:-1] + model.B00
        with np.errstate(all="ignore"):
            x = 2.0 * C / ((1.0 - b) + np.sqrt((1.0 - b) ** 2 - 4.0 * B[-1, -1] * C))
            P = np.column_stack([head, x])
            cost = np.where(np.isfinite(x) & (x >= 0.0), fleet_cost(abc, P), np.inf)
        if cost.min(initial=np.inf) < best_cost:
            i = int(np.argmin(cost))
            best, best_cost = P[i], cost[i]
    return best
