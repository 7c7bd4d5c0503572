"""Continuous-time consensus dispatch dynamics.

The auxiliary state z evolves by a two-gain signed-power consensus law on
the loss-weighted marginal costs H_i * lambda_i; the powers P are defined
implicitly at every instant by P_i = consensus_term_i + D_i0 + P_Li(P),
which keeps total generation equal to demand plus losses by construction.

The integrator is fixed-step classical Runge-Kutta (4 stages), each stage
re-solving the implicit power equation by warm-started fixed-point
iteration with a Newton fallback. One NumPy RK4 core carries both the
public `step` (which adds the monitors) and `run` (which forms the
residual every step, cost and loss only on emitted rows). When numba
imports, `run` uses a compiled kernel instead, checked against `step`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .grid_model import GeneratorSpec, KronLossModel, total_cost
from .topology import LocalTopology

logger = logging.getLogger(__name__)

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap(args[0]) if args and callable(args[0]) else wrap


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")


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
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


def disturbance_params(spec: DisturbanceSpec, n: int):
    """Per-channel frequencies and phases, deterministic in the seed.

    Frequencies are kept >= 1 rad/s so the running mean over any horizon
    of tens of seconds stays far below amplitude/100.
    """
    rng = np.random.default_rng(spec.seed)
    omega = rng.uniform(1.0, 2.0 * np.pi, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return omega, theta


def _disturbance_fn(spec: DisturbanceSpec, n: int):
    """t -> w(t), with the seeded frequencies and phases drawn once."""
    if not spec.enabled or spec.amplitude == 0.0:
        return lambda t: np.zeros(n)
    omega, theta = disturbance_params(spec, n)
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
        self.a_coef = np.array([g.a for g in self.gens])
        self.b_coef = np.array([g.b for g in self.gens])
        self.c_coef = np.array([g.c for g in self.gens])
        self.d0 = np.array([g.d0 for g in self.gens])
        self.p0 = np.array([g.p0 for g in self.gens])
        self.adjacency = self.top.adjacency()
        self.degree = self.adjacency.sum(axis=1)

    @property
    def dbar(self) -> float:
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


def sig_pow(x: float, m: float) -> float:
    """Signed power |x|^m * sign(x); exactly zero at zero."""
    if x > 0.0:
        return x**m
    if x < 0.0:
        return -((-x) ** m)
    return 0.0


def _sig_vec(x: np.ndarray, m: float) -> np.ndarray:
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
    dz = -params.k1 * _sig_vec(r, params.mu) - params.k2 * _sig_vec(r, params.nu)
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


def _rk4(system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec):
    """The RK4 advance (t, z, P) -> (t + dt, z', P') shared by step() and run().

    P is the solved power at (t, z) and warm-starts stage 1, which
    re-solves it; each later stage and the end-of-step solve warm-start
    from the stage before. Only P and dz are formed per stage.
    """
    dt, fp_tol, fp_max_iter = params.dt, params.fp_tol, params.fp_max_iter
    w_at = _disturbance_fn(disturbance, system.n)

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
    dist = disturbance if disturbance is not None else DisturbanceSpec()
    advance = _rk4(system, params, dist)
    t, z, P = advance(state.t, np.asarray(state.z, dtype=float), np.asarray(state.P, dtype=float))
    return _state(t, z, P, system)


def lyapunov_value(state: SimulationState, c_star: float) -> float:
    """Half the squared cost gap to the optimum: 0.5 (C - C*)^2."""
    return 0.5 * (state.cost - c_star) ** 2


# --------------------------------------------------------------------------
# Compiled integration kernel (mirrors step(); see test_dynamics for the
# agreement check between the two paths).

@njit(cache=True)
def _sig_nb(x, m):
    if x > 0.0:
        return x**m
    if x < 0.0:
        return -((-x) ** m)
    return 0.0


@njit(cache=True)
def _solve_power_nb(cons, d0, B, B0, dB, b00n, P0, fp_tol, fp_max_iter):
    n = P0.shape[0]
    P = P0.copy()
    for _ in range(fp_max_iter):
        BP = B @ P
        g = cons + d0 + P * BP + P * B0 + b00n
        err = 0.0
        for i in range(n):
            e = abs(g[i] - P[i])
            if e > err:
                err = e
        P = g
        if err < fp_tol:
            return P, True
    for _ in range(50):
        BP = B @ P
        g = cons + d0 + P * BP + P * B0 + b00n
        r = g - P
        err = 0.0
        for i in range(n):
            if abs(r[i]) > err:
                err = abs(r[i])
        if err < fp_tol:
            return P, True
        M = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                M[i, j] = -B[i, j] * P[i]
            M[i, i] = 1.0 - (BP[i] + dB[i] * P[i] + B0[i])
        P = P + np.linalg.solve(M, r)
    return P, False


@njit(cache=True)
def _zdot_nb(z, Pwarm, A, deg, d0, B, B0, dB, b00n, bc, cc, k1, k2, mu, nu, fp_tol, fp_max_iter, w):
    n = z.shape[0]
    cons = A @ z - deg * z
    P, ok = _solve_power_nb(cons, d0, B, B0, dB, b00n, Pwarm, fp_tol, fp_max_iter)
    lam = 2.0 * cc * P + bc
    H = 1.0 + B @ P + dB * P + B0
    hl = H * lam
    r = A @ hl - deg * hl
    dz = np.empty(n)
    for i in range(n):
        dz[i] = -k1 * _sig_nb(r[i], mu) - k2 * _sig_nb(r[i], nu) + w[i]
    return dz, P, ok


@njit(cache=True)
def _integrate_nb(z0, A, deg, d0, B, B0, dB, b00n, bc, cc, a_sum,
                  k1, k2, mu, nu, dt, nsteps, stride,
                  fp_tol, fp_max_iter, settle_tol, window_steps,
                  dist_on, amp, omega, theta):
    n = z0.shape[0]
    nrows_max = nsteps // stride + 2
    t_out = np.empty(nrows_max)
    z_out = np.empty((nrows_max, n))
    p_out = np.empty((nrows_max, n))
    pl_out = np.empty(nrows_max)
    cost_out = np.empty(nrows_max)
    res_out = np.empty(nrows_max)

    z = z0.copy()
    cons = A @ z - deg * z
    P, ok = _solve_power_nb(cons, d0, B, B0, dB, b00n, d0.copy(), fp_tol, fp_max_iter)
    if not ok:
        return t_out, z_out, p_out, pl_out, cost_out, res_out, 0, 1, 0, -1.0, z, P

    def_w = np.zeros(n)

    def monitors(P):
        lam = 2.0 * cc * P + bc
        H = 1.0 + B @ P + dB * P + B0
        hl = H * lam
        mean = hl.sum() / n
        res = 0.0
        for i in range(n):
            if abs(hl[i] - mean) > res:
                res = abs(hl[i] - mean)
        pl = P @ B @ P + B0 @ P + n * b00n
        cost = a_sum
        for i in range(n):
            cost += cc[i] * P[i] * P[i] + bc[i] * P[i]
        return pl, cost, res

    pl, cost, res = monitors(P)
    rows = 0
    t_out[rows] = 0.0
    z_out[rows] = z
    p_out[rows] = P
    pl_out[rows] = pl
    cost_out[rows] = cost
    res_out[rows] = res
    rows += 1

    below = 1 if res < settle_tol else 0
    settle_time = -1.0
    status = 0
    fail_step = -1

    for i in range(nsteps):
        t = i * dt
        if dist_on:
            w0 = amp * np.sin(omega * t + theta)
            wh = amp * np.sin(omega * (t + 0.5 * dt) + theta)
            w1 = amp * np.sin(omega * (t + dt) + theta)
        else:
            w0 = def_w
            wh = def_w
            w1 = def_w
        kk1, P1, ok1 = _zdot_nb(z, P, A, deg, d0, B, B0, dB, b00n, bc, cc, k1, k2, mu, nu, fp_tol, fp_max_iter, w0)
        kk2, P2, ok2 = _zdot_nb(z + 0.5 * dt * kk1, P1, A, deg, d0, B, B0, dB, b00n, bc, cc, k1, k2, mu, nu, fp_tol, fp_max_iter, wh)
        kk3, P3, ok3 = _zdot_nb(z + 0.5 * dt * kk2, P2, A, deg, d0, B, B0, dB, b00n, bc, cc, k1, k2, mu, nu, fp_tol, fp_max_iter, wh)
        kk4, P4, ok4 = _zdot_nb(z + dt * kk3, P3, A, deg, d0, B, B0, dB, b00n, bc, cc, k1, k2, mu, nu, fp_tol, fp_max_iter, w1)
        if not (ok1 and ok2 and ok3 and ok4):
            status = 1
            fail_step = i
            break
        z = z + dt / 6.0 * (kk1 + 2.0 * kk2 + 2.0 * kk3 + kk4)
        cons = A @ z - deg * z
        P, ok = _solve_power_nb(cons, d0, B, B0, dB, b00n, P4, fp_tol, fp_max_iter)
        if not ok:
            status = 1
            fail_step = i
            break
        pl, cost, res = monitors(P)
        if (i + 1) % stride == 0:
            t_out[rows] = (i + 1) * dt
            z_out[rows] = z
            p_out[rows] = P
            pl_out[rows] = pl
            cost_out[rows] = cost
            res_out[rows] = res
            rows += 1
        if res < settle_tol:
            below += 1
            if below > window_steps:
                settle_time = (i + 1 - below + 1) * dt
                if (i + 1) % stride != 0:
                    t_out[rows] = (i + 1) * dt
                    z_out[rows] = z
                    p_out[rows] = P
                    pl_out[rows] = pl
                    cost_out[rows] = cost
                    res_out[rows] = res
                    rows += 1
                break
        else:
            below = 0

    return t_out, z_out, p_out, pl_out, cost_out, res_out, rows, status, fail_step, settle_time, z, P


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
        c_star: float | None = None, stride: int = 100,
        use_kernel: bool = True) -> RunResult:
    """Integrate the dispatch dynamics to t_end or sustained consensus.

    Settling is declared when the consensus residual stays below
    settle_tol for settle_window seconds; the settling time recorded is
    the start of that window and integration stops once it is confirmed.
    c_star (for the Lyapunov column) defaults to the terminal cost.
    """
    dist = disturbance if disturbance is not None else DisturbanceSpec()
    z0 = np.zeros(system.n) if z0 is None else np.asarray(z0, dtype=float)
    nsteps = int(round(params.t_end / params.dt))
    window_steps = int(round(params.settle_window / params.dt))
    if dist.enabled and dist.amplitude > 0.0:
        omega, theta = disturbance_params(dist, system.n)
        dist_on = True
    else:
        omega = np.zeros(system.n)
        theta = np.zeros(system.n)
        dist_on = False

    if use_kernel and _HAVE_NUMBA:
        out = _integrate_nb(
            z0, system.adjacency, system.degree, system.d0,
            system.loss.B, system.loss.B0, np.diag(system.loss.B).copy(),
            system.loss.B00 / system.n,
            system.b_coef, system.c_coef, float(system.a_coef.sum()),
            params.k1, params.k2, params.mu, params.nu, params.dt, nsteps,
            stride, params.fp_tol, params.fp_max_iter, params.settle_tol,
            window_steps, dist_on, dist.amplitude, omega, theta,
        )
        t_out, z_out, p_out, pl_out, cost_out, res_out, rows, status, fail_step, settle_time, z_fin, P_fin = out
        if rows == 0:
            raise StepFailure("power equation failed at the initial state")
        traj = Trajectory(
            t=t_out[:rows].copy(), z=z_out[:rows].copy(), P=p_out[:rows].copy(),
            loss=pl_out[:rows].copy(), cost=cost_out[:rows].copy(),
            residual=res_out[:rows].copy(),
        )
        terminal = make_state(float(traj.t[-1]), z_fin, system, prev_P=P_fin, params=params)
        settled = settle_time >= 0.0
    else:
        advance = _rk4(system, params, dist)
        state = make_state(0.0, z0, system, params=params)
        t, z, P, res = state.t, state.z, state.P, state.residual
        rows = [(t, z, P, state.loss, state.cost, res)]

        def emit():
            rows.append((t, z, P, system.loss.total_loss(P), total_cost(system.gens, P), res))

        below = 1 if res < params.settle_tol else 0
        settled, settle_time, status, fail_step = False, -1.0, 0, None
        for i in range(nsteps):
            try:
                t, z, P = advance(t, z, P)
            except StepFailure:
                status, fail_step = 1, i
                break
            res = _residual(_h_lambda(P, system)[2])
            on_stride = (i + 1) % stride == 0
            if on_stride:
                emit()
            if res < params.settle_tol:
                below += 1
                if below > window_steps:
                    settled = True
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
        trajectory=traj, terminal=terminal, settled=bool(settled),
        settle_time=float(settle_time) if settle_time is not None and settle_time >= 0 else None,
        status="ok" if status == 0 else "step_failure",
        c_star=float(c_star), negative_power_seen=neg,
        fail_step=int(fail_step) if status != 0 and fail_step is not None and fail_step >= 0 else None,
    )
