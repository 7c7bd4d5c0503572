"""Continuous-time consensus dispatch dynamics.

The auxiliary state z evolves by a two-gain signed-power consensus law on
the loss-weighted marginal costs H_i * lambda_i; the powers P are defined
implicitly at every instant by P_i = consensus_term_i + D_i0 + P_Li(P),
which keeps total generation equal to demand plus losses by construction.

The integrator is fixed-step classical Runge-Kutta (4 stages), each stage
re-solving the implicit power equation by warm-started fixed-point
iteration with a Newton fallback. One NumPy RK4 core carries both the
public `step` (which adds the monitors) and `run` (which forms the
residual every step, cost and loss only on emitted rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .grid_model import KronLossModel, total_cost
from .topology import LocalTopology

logger = logging.getLogger(__name__)

# Always False now that run() has one NumPy path; perfbench/run.py stamps it.
_HAVE_NUMBA = False


class StepFailure(RuntimeError):
    """Implicit power equation failed to converge (signals the gradient
    condition dP_Li/dP_i < 1 is violated at the current state)."""


@dataclass(frozen=True)
class AlgorithmParams:
    """Gains, exponents, and integrator settings.

    k1, k2: consensus gains (> 0); mu in (0, 1) and nu > 1 are the signed
    power exponents; dt: step (s); t_end: horizon (s); fp_tol: residual
    tolerance of the implicit power solve (MW); settle_tol: consensus
    residual threshold; settle_window: seconds the residual must stay
    below settle_tol before settling is declared.
    """

    k1: float
    k2: float
    mu: float
    nu: float
    dt: float = 1e-3
    t_end: float = 200.0
    fp_tol: float = 1e-10
    fp_max_iter: int = 200
    settle_tol: float = 1e-6
    settle_window: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.mu < 1 < self.nu):
            raise ValueError(f"need 0 < mu < 1 < nu, got mu={self.mu}, nu={self.nu}")
        for name in ("k1", "k2", "dt", "fp_tol"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= 0")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Seeded bounded zero-mean additive disturbance on the z dynamics."""

    enabled: bool = False
    amplitude: float = 0.0
    seed: int = 0
    kind: str = "sinusoid"

    def __post_init__(self) -> None:
        if self.kind != "sinusoid":
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not self.amplitude >= 0:
            raise ValueError("amplitude must be >= 0")


def _disturbance_fn(spec: DisturbanceSpec, n: int):
    """t -> w(t), with the per-channel frequencies and phases drawn once
    from the seed.

    Frequencies are kept >= 1 rad/s so the running mean over any horizon
    of tens of seconds stays far below amplitude/100.
    """
    if not spec.enabled or spec.amplitude == 0.0:
        return lambda t: np.zeros(n)
    rng = np.random.default_rng(spec.seed)
    omega = rng.uniform(1.0, 2.0 * np.pi, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return lambda t: spec.amplitude * np.sin(omega * t + theta)


def make_disturbance(spec: DisturbanceSpec, n: int, t: float) -> np.ndarray:
    """Disturbance vector w(t); zero when disabled or amplitude is zero."""
    return _disturbance_fn(spec, n)(t)


@dataclass
class DispatchSystem:
    """A fleet, its loss model, and the local communication graph."""

    gens: tuple
    loss: KronLossModel
    top: LocalTopology

    def __post_init__(self) -> None:
        self.gens = tuple(self.gens)
        n = len(self.gens)
        if self.loss.n != n:
            raise ValueError(f"{n} generators but loss model is {self.loss.n}x{self.loss.n}")
        if self.top.n != n:
            raise ValueError(f"{n} generators but topology has {self.top.n} nodes")
        self.n = n
        self.b_coef = np.array([g.b for g in self.gens])
        self.c_coef = np.array([g.c for g in self.gens])
        self.d0 = np.array([g.d0 for g in self.gens])
        self.adjacency = self.top.adjacency()
        self.degree = self.adjacency.sum(axis=1)

    @property
    def dbar(self) -> float:
        # NumPy's pairwise sum, which can differ from grid_model.total_demand in the
        # last bit; the benchmark's oracle and drift checks are pinned to this value
        return float(self.d0.sum())


@dataclass
class SimulationState:
    """One instant of the simulation with its derived monitors."""

    t: float
    z: np.ndarray
    P: np.ndarray
    lam: np.ndarray
    H: np.ndarray
    cost: float
    loss: float
    total_power: float
    residual: float


def sig_pow(x, m: float):
    """Signed power |x|^m * sign(x), elementwise; exactly zero at zero."""
    return np.sign(x) * np.abs(x) ** m


def solve_power(z, system: DispatchSystem, prev_P=None, fp_tol: float = 1e-10, fp_max_iter: int = 200) -> np.ndarray:
    """Solve P_i = sum_j a_ij (z_j - z_i) + D_i0 + P_Li(P) for P.

    Warm-started fixed-point iteration; the map is contractive whenever
    the own-loss gradients stay below 1. Falls back to Newton on the
    residual if the iteration stalls; raises StepFailure if both fail.
    """
    z = np.asarray(z, dtype=float)
    base = system.adjacency @ z - system.degree * z + system.d0
    loss = system.loss
    P = np.asarray(prev_P, dtype=float).copy() if prev_P is not None else system.d0.copy()
    for _ in range(fp_max_iter):
        g = base + loss._losses(P)
        err = np.abs(g - P).max()
        P = g
        if err < fp_tol:
            return P
    for _ in range(50):
        r = base + loss._losses(P) - P
        if np.abs(r).max() < fp_tol:
            return P
        J = loss.B * P[:, None]
        np.fill_diagonal(J, loss._own_gradient(P))
        P = P + np.linalg.solve(np.eye(system.n) - J, r)
    raise StepFailure(
        "implicit power equation did not converge; own-loss gradient likely >= 1 at current state"
    )


def _h_lambda(P: np.ndarray, system: DispatchSystem):
    """Marginal costs lam, loss factors H = 1 + own-loss gradient, and H * lam."""
    lam = 2.0 * system.c_coef * P + system.b_coef
    H = 1.0 + system.loss._own_gradient(P)
    return lam, H, H * lam


def _residual(hl: np.ndarray) -> float:
    """Consensus residual max_i |H_i lam_i - mean(H lam)|."""
    return float(np.max(np.abs(hl - hl.mean())))


def _z_dot(hl: np.ndarray, system: DispatchSystem, params: AlgorithmParams, w) -> np.ndarray:
    r = system.adjacency @ hl - system.degree * hl
    dz = -params.k1 * sig_pow(r, params.mu) - params.k2 * sig_pow(r, params.nu)
    if w is not None:
        dz = dz + np.asarray(w, dtype=float)
    return dz


def _state(t: float, z: np.ndarray, P: np.ndarray, system: DispatchSystem) -> SimulationState:
    """Assemble all monitors at a solved (z, P)."""
    lam, H, hl = _h_lambda(P, system)
    return SimulationState(
        t=t,
        z=np.asarray(z, dtype=float).copy(),
        P=P,
        lam=lam,
        H=H,
        cost=total_cost(system.gens, P),
        loss=system.loss.total_loss(P),
        total_power=float(P.sum()),
        residual=_residual(hl),
    )


def make_state(t: float, z, system: DispatchSystem, prev_P=None, params: AlgorithmParams | None = None) -> SimulationState:
    """Solve the power equation at z and assemble all monitors."""
    fp_tol = params.fp_tol if params else 1e-10
    fp_max_iter = params.fp_max_iter if params else 200
    P = solve_power(z, system, prev_P=prev_P, fp_tol=fp_tol, fp_max_iter=fp_max_iter)
    return _state(t, z, P, system)


def z_derivative(state: SimulationState, system: DispatchSystem, params: AlgorithmParams, w=None) -> np.ndarray:
    """dz_i/dt = -k1 sig(r_i)^mu - k2 sig(r_i)^nu + w_i with
    r_i = sum_j a_ij (H_j lam_j - H_i lam_i)."""
    return _z_dot(state.H * state.lam, system, params, w)


def _rk4(system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None):
    """The RK4 advance (t, z, P) -> (t + dt, z', P') shared by step() and run().

    P is the solved power at (t, z) and warm-starts stage 1, which
    re-solves it; each later stage and the end-of-step solve warm-start
    from the stage before. Only P and dz are formed per stage.
    """
    dt, fp_tol, fp_max_iter = params.dt, params.fp_tol, params.fp_max_iter
    w_at = _disturbance_fn(disturbance if disturbance is not None else DisturbanceSpec(), system.n)

    def deriv(z, warm, w):
        P = solve_power(z, system, warm, fp_tol, fp_max_iter)
        return _z_dot(_h_lambda(P, system)[2], system, params, w), P

    def advance(t, z, P):
        w_half = w_at(t + dt / 2.0)
        k1v, P1 = deriv(z, P, w_at(t))
        k2v, P2 = deriv(z + dt / 2.0 * k1v, P1, w_half)
        k3v, P3 = deriv(z + dt / 2.0 * k2v, P2, w_half)
        k4v, P4 = deriv(z + dt * k3v, P3, w_at(t + dt))
        z_new = z + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        return t + dt, z_new, solve_power(z_new, system, P4, fp_tol, fp_max_iter)

    return advance


def step(state: SimulationState, system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None = None) -> SimulationState:
    """One classical 4-stage Runge-Kutta step of width dt on z.

    Each stage re-solves the implicit power equation (warm-started from
    the previous stage); the returned state carries fresh monitors.
    """
    advance = _rk4(system, params, disturbance)
    t, z, P = advance(state.t, np.asarray(state.z, dtype=float), np.asarray(state.P, dtype=float))
    return _state(t, z, P, system)


def lyapunov_value(state: SimulationState, c_star: float) -> float:
    """Half the squared cost gap to the optimum: 0.5 (C - C*)^2."""
    return 0.5 * (state.cost - c_star) ** 2


@dataclass
class Trajectory:
    """Strided simulation history; V is filled in once C* is known."""

    t: np.ndarray
    z: np.ndarray
    P: np.ndarray
    loss: np.ndarray
    cost: np.ndarray
    residual: np.ndarray
    V: np.ndarray | None = None


@dataclass
class RunResult:
    trajectory: Trajectory
    terminal: SimulationState
    settled: bool
    settle_time: float | None
    status: str
    c_star: float
    negative_power_seen: bool = False
    fail_step: int | None = None


def run(system: DispatchSystem, params: AlgorithmParams,
        disturbance: DisturbanceSpec | None = None, z0=None,
        c_star: float | None = None, stride: int = 100) -> RunResult:
    """Integrate the dispatch dynamics to t_end or sustained consensus.

    Settling is declared when the consensus residual stays below
    settle_tol for settle_window seconds; the settling time recorded is
    the start of that window and integration stops once it is confirmed.
    c_star (for the Lyapunov column) defaults to the terminal cost.
    """
    advance = _rk4(system, params, disturbance)
    z0 = np.zeros(system.n) if z0 is None else np.asarray(z0, dtype=float)
    nsteps = int(round(params.t_end / params.dt))
    window_steps = int(round(params.settle_window / params.dt))

    state = make_state(0.0, z0, system, params=params)
    t, z, P, res = state.t, state.z, state.P, state.residual
    rows = [(t, z, P, state.loss, state.cost, res)]

    def emit():
        rows.append((t, z, P, system.loss.total_loss(P), total_cost(system.gens, P), res))

    below = 1 if res < params.settle_tol else 0
    settle_time, fail_step = None, None
    for i in range(nsteps):
        try:
            t, z, P = advance(t, z, P)
        except StepFailure:
            fail_step = i
            break
        res = _residual(_h_lambda(P, system)[2])
        on_stride = (i + 1) % stride == 0
        if on_stride:
            emit()
        if res < params.settle_tol:
            below += 1
            if below > window_steps:
                settle_time = (i + 1 - below + 1) * params.dt
                if not on_stride:
                    emit()
                break
        else:
            below = 0
    rows_t, rows_z, rows_p, rows_pl, rows_c, rows_r = zip(*rows)
    traj = Trajectory(
        t=np.array(rows_t), z=np.array(rows_z), P=np.array(rows_p),
        loss=np.array(rows_pl), cost=np.array(rows_c), residual=np.array(rows_r),
    )
    terminal = _state(t, z, P, system)

    if c_star is None:
        c_star = terminal.cost
    traj.V = 0.5 * (traj.cost - c_star) ** 2
    neg = bool((traj.P < 0).any())
    if neg:
        logger.warning("negative transient powers observed; delta = min b is only valid on P >= 0")
    return RunResult(
        trajectory=traj, terminal=terminal, settled=settle_time is not None,
        settle_time=settle_time,
        status="ok" if fail_step is None else "step_failure",
        c_star=float(c_star), negative_power_seen=neg, fail_step=fail_step,
    )
