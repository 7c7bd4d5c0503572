"""Continuous-time consensus dispatch dynamics.

The auxiliary state z evolves by a two-gain signed-power consensus law on
the loss-weighted marginal costs H_i * lambda_i; the powers P are defined
implicitly at every instant by P_i = consensus_term_i + D_i0 + P_Li(P),
which keeps total generation equal to demand plus losses by construction.

The integrator is fixed-step. While the consensus residual is large it
takes classical Runge-Kutta steps (4 stages), each stage re-solving the
implicit power equation by warm-started fixed-point iteration with a
Newton fallback. Explicit RK4 on the non-Lipschitz k1 sig(r)^mu term
chatters once the disagreement r is of order (g k1 dt)^(1/(1 - mu)), g
being the loop gain, so below IMPLICIT_SWITCH times that scale (30 times
the floor of the reference case) it takes linearly implicit,
chattering-free steps instead (backward Euler on the consensus law, after
Acary & Brogliato 2010 and Polyakov, Efimov & Brogliato 2019), which reach
consensus to roundoff. The choice depends only on the state, and one
NumPy advance carries both the public `step` (which adds the monitors)
and `run` (which forms the residual every step, cost and loss only on
emitted rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid_model import KronLossModel, marginal_costs, total_cost, weighted_cost_jacobian
from .topology import LocalTopology, laplacian

logger = logging.getLogger(__name__)

# Always False now that run() has one NumPy path; perfbench/run.py stamps it.
_HAVE_NUMBA = False


#: The disagreement max|r| below which a step is linearly implicit, in units
#: of the chatter scale (g k1 dt)^(1/(1 - mu)). Near consensus r moves as
#: dr/dt = -M k1 sig(r)^mu (M from _sensitivity), and an explicit step of
#: width dt overshoots once g k1 dt |r|^(mu - 1) is of order one, with the loop
#: gain g = ||M||_inf taken at P = d0. Explicit RK4 stops converging and
#: chatters at max|r| = c(mu) (g k1 dt)^(1/(1 - mu)); measured c is at most
#: 0.134, 0.092, 0.061 and 0.028 at mu = 0.2, 0.35, 0.5 and 0.65, over
#: k1 = 5 and 50, dt = 1e-3 and 2e-3, the reference case with its link weights
#: scaled by 0.3, 1 and 3 (g from 0.27 to 27) and a lossless pair. Switching at
#: 1.5 times the scale is 30 times the floor of the reference case (k1 = 5,
#: mu = 0.5, where it is a residual of 3.15 dt^2) and at least 11 times any
#: floor measured for mu >= 0.2, so the switch comes before the chatter. It
#: is set no higher: an earlier switch does not settle sooner (the reference
#: case settles at 5.009-5.010 s with the switch anywhere from 10 to 1000
#: times its floor), and an implicit step costs more than an RK4 step (about
#: 10 times as much on a 64-unit fleet, mostly its least-squares solves).
IMPLICIT_SWITCH = 1.5
#: Newton on the implicit step stops when its residual is this fraction of
#: its value at s = 0, or within the roundoff of the disagreement it is
#: solved from; it fails after _IMPLICIT_MAX_ITER iterations.
_IMPLICIT_RTOL = 1e-12
_IMPLICIT_MAX_ITER = 50
_EPS = float(np.finfo(float).eps)


class StepFailure(RuntimeError):
    """Implicit power equation failed to converge (signals the gradient
    condition dP_Li/dP_i < 1 is violated at the current state), or the
    Newton iteration of the implicit step did."""


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
        if not (0 < self.mu < 1 < self.nu < math.inf):
            raise ValueError(f"need 0 < mu < 1 < nu < inf, got mu={self.mu}, nu={self.nu}")
        for name in ("k1", "k2", "dt", "fp_tol"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be {'finite' if getattr(self, name) == math.inf else 'positive'}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= 0")
        if not self.settle_tol > 0:
            raise ValueError("settle_tol must be positive")
        if not 0 <= self.settle_window < math.inf:
            raise ValueError("settle_window must be finite and >= 0")
        if not self.fp_max_iter >= 1:
            raise ValueError("fp_max_iter must be >= 1")


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
        if self.amplitude == math.inf:
            raise ValueError("amplitude must be finite")


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
        self.laplacian = laplacian(self.top)

    @property
    def dbar(self) -> float:
        # NumPy's pairwise sum, which can differ from grid_model.total_demand in the
        # last bit; the benchmark's oracle and drift checks are pinned to this value
        return float(self.d0.sum())

    @cached_property
    def loop_gain(self) -> float:
        """g = ||M||_inf at P = d0 (M from _sensitivity), the gain with which
        the disagreement answers the consensus law near consensus."""
        return float(np.abs(_sensitivity(self.d0, self)).sum(axis=1).max())


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


def solve_power(z, system: DispatchSystem, prev_P=None, fp_tol: float = AlgorithmParams.fp_tol,
                fp_max_iter: int = AlgorithmParams.fp_max_iter) -> np.ndarray:
    """Solve P_i = sum_j a_ij (z_j - z_i) + D_i0 + P_Li(P) for P.

    Warm-started fixed-point iteration; the map is contractive whenever
    the own-loss gradients stay below 1. Falls back to Newton on the
    residual if the iteration stalls; raises StepFailure if both fail.
    """
    z = np.asarray(z, dtype=float)
    base = _disagreement(z, system) + system.d0
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
        P = P + np.linalg.solve(np.eye(system.n) - loss._jacobian(P), r)
    raise StepFailure(
        "implicit power equation did not converge; own-loss gradient likely >= 1 at current state"
    )


def _h_lambda(P: np.ndarray, system: DispatchSystem):
    """Marginal costs lam, loss factors H = 1 + own-loss gradient, and H * lam."""
    lam = marginal_costs(system.b_coef, system.c_coef, P)
    H = 1.0 + system.loss._own_gradient(P)
    return lam, H, H * lam


def _residual(hl: np.ndarray) -> float:
    """Consensus residual max_i |H_i lam_i - mean(H lam)|."""
    return float(np.max(np.abs(hl - hl.mean())))


def _disagreement(x: np.ndarray, system: DispatchSystem) -> np.ndarray:
    """-L x, entry i being sum_j a_ij (x_j - x_i): the disagreement
    r = -L (H lam) for x = H lam, and the consensus term of the power
    equation for x = z."""
    return system.adjacency @ x - system.degree * x


def _z_dot(hl: np.ndarray, system: DispatchSystem, params: AlgorithmParams, w) -> np.ndarray:
    """dz_i/dt = -k1 sig(r_i)^mu - k2 sig(r_i)^nu + w_i with r = -L hl, hl = H lam."""
    r = _disagreement(hl, system)
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
    """Solve the power equation at z and assemble all monitors; the
    solver settings are those of params, or their defaults without it."""
    fp = (params.fp_tol, params.fp_max_iter) if params else ()
    return _state(t, z, solve_power(z, system, prev_P, *fp), system)


def _rk4(system: DispatchSystem, params: AlgorithmParams, w_at):
    """The RK4 advance (t, z, P) -> (t + dt, z', P').

    P is the solved power at (t, z) and warm-starts stage 1, which
    re-solves it; each later stage and the end-of-step solve warm-start
    from the stage before. Only P and dz are formed per stage.
    """
    dt, fp_tol, fp_max_iter = params.dt, params.fp_tol, params.fp_max_iter

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


def _sensitivity(P: np.ndarray, system: DispatchSystem) -> np.ndarray:
    """M = L K (I - J)^-1 L at P, with which the disagreement r = -L (H lam)
    moves with z as dr = M dz: K = d(H lam)/dP, J the Jacobian of the
    generator losses and L the Laplacian."""
    lam, H, _ = _h_lambda(P, system)
    K = weighted_cost_jacobian(system.loss, system.c_coef, lam, H, 1.0)
    lap = system.laplacian
    return lap @ K @ np.linalg.solve(np.eye(system.n) - system.loss._jacobian(P), lap)


def _switch_level(system: DispatchSystem, params: AlgorithmParams) -> float:
    """The max|r| below which a step is linearly implicit:
    IMPLICIT_SWITCH (g k1 dt)^(1/(1 - mu)) with g = system.loop_gain.
    Once g k1 dt >= 1 an explicit step overshoots at any disagreement, so
    every step is implicit."""
    x = system.loop_gain * params.k1 * params.dt
    return IMPLICIT_SWITCH * x ** (1.0 / (1.0 - params.mu)) if x < 1.0 else math.inf


def _implicit(system: DispatchSystem, params: AlgorithmParams, w_at):
    """The linearly implicit advance (t, z, P) -> (t + dt, z', P', Newton iterations).

    With M = _sensitivity(P) the step solves
    y = r + M dz, dz = -dt (k1 sig(y)^mu + k2 sig(y)^nu) + dt w(t + dt)
    for the next disagreement y, which is backward Euler on the consensus law
    linearised at P, so it has no chatter: exact consensus is its fixed
    point. Newton runs in s = sig(y)^mu, in which the equation is smooth at
    consensus, and solves with lstsq because M has the null vector 1.
    One solve_power at z + dz then restores the balance exactly.
    """
    dt, k1, k2, mu, nu = params.dt, params.k1, params.k2, params.mu, params.nu
    deg_max = system.degree.max()

    def advance(t, z, P):
        hl = _h_lambda(P, system)[2]
        r = _disagreement(hl, system)
        M = _sensitivity(P, system)
        dtw = dt * w_at(t + dt)
        tol = max(_IMPLICIT_RTOL * np.abs(r + M @ dtw).max(), _EPS * deg_max * np.abs(hl).max())
        s = sig_pow(r, mu)
        for iters in range(_IMPLICIT_MAX_ITER + 1):
            dz = dtw - dt * (k1 * s + k2 * sig_pow(s, nu / mu))
            F = sig_pow(s, 1.0 / mu) - r - M @ dz
            if np.abs(F).max() <= tol:
                break
            if iters == _IMPLICIT_MAX_ITER:
                raise StepFailure(f"implicit step did not converge in {_IMPLICIT_MAX_ITER} Newton iterations")
            a = np.abs(s)
            jac = np.diag(a ** (1.0 / mu - 1.0) / mu) + dt * M * (k1 + k2 * nu / mu * a ** (nu / mu - 1.0))
            s = s - np.linalg.lstsq(jac, F, rcond=None)[0]
        z_new = z + dz
        return t + dt, z_new, solve_power(z_new, system, P, params.fp_tol, params.fp_max_iter), iters

    return advance


def _advance(system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None):
    """The advance (t, z, P, hl) -> (t + dt, z', P', Newton iterations) shared
    by step() and run(); hl is H * lam at P.

    RK4 while the disagreement max|r| is at least _switch_level, the
    implicit step below it (its Newton iteration count; None for an RK4
    step). The choice depends only on the state passed in.
    """
    w_at = _disturbance_fn(disturbance if disturbance is not None else DisturbanceSpec(), system.n)
    rk4 = _rk4(system, params, w_at)
    implicit = _implicit(system, params, w_at)
    switch = _switch_level(system, params)

    def advance(t, z, P, hl):
        if np.abs(_disagreement(hl, system)).max() < switch:
            return implicit(t, z, P)
        return (*rk4(t, z, P), None)

    return advance


def step(state: SimulationState, system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None = None) -> SimulationState:
    """One step of width dt on z: classical 4-stage Runge-Kutta, or the
    linearly implicit step once the disagreement at state.P is below
    _switch_level.

    Each RK4 stage re-solves the implicit power equation (warm-started
    from the previous stage); the returned state carries fresh monitors.
    """
    P = np.asarray(state.P, dtype=float)
    advance = _advance(system, params, disturbance)
    t, z, P, _ = advance(state.t, np.asarray(state.z, dtype=float), P, _h_lambda(P, system)[2])
    return _state(t, z, P, system)


@dataclass
class Trajectory:
    """Strided simulation history, with the Lyapunov column V = 0.5 (C - C*)^2."""

    t: np.ndarray
    z: np.ndarray
    P: np.ndarray
    loss: np.ndarray
    cost: np.ndarray
    residual: np.ndarray
    V: np.ndarray


@dataclass
class RunResult:
    """A run's trajectory, terminal state and verdicts, with its solver
    counters: steps taken, the time of the first implicit step (None if
    RK4 did every step), and the mean and max Newton iterations of the
    implicit steps (None if there were none)."""

    trajectory: Trajectory
    terminal: SimulationState
    settled: bool
    settle_time: float | None
    status: str
    c_star: float
    negative_power_seen: bool = False
    fail_step: int | None = None
    steps: int = 0
    switch_time: float | None = None
    implicit_newton_iters: tuple[float, int] | None = None


def run(system: DispatchSystem, params: AlgorithmParams,
        disturbance: DisturbanceSpec | None = None, z0=None,
        c_star: float | None = None, stride: int = 100) -> RunResult:
    """Integrate the dispatch dynamics to t_end or sustained consensus.

    Settling is declared when the consensus residual stays below
    settle_tol for settle_window seconds; the settling time recorded is
    the start of that window and integration stops once it is confirmed.
    Every stride-th step is a trajectory row. The Lyapunov column is
    V = 0.5 (C - c_star)^2, with c_star defaulting to the terminal cost.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    advance = _advance(system, params, disturbance)
    z0 = np.zeros(system.n) if z0 is None else np.asarray(z0, dtype=float)
    nsteps = int(round(params.t_end / params.dt))
    window_steps = int(round(params.settle_window / params.dt))

    state = make_state(0.0, z0, system, params=params)
    t, z, P, res = state.t, state.z, state.P, state.residual
    hl = state.H * state.lam
    rows = [(t, z, P, state.loss, state.cost, res)]

    def emit():
        rows.append((t, z, P, system.loss.total_loss(P), total_cost(system.gens, P), res))

    below = 1 if res < params.settle_tol else 0
    settle_time, fail_step, switch_time, newton_iters = None, None, None, []
    steps = nsteps
    for i in range(nsteps):
        t_n = t
        try:
            t, z, P, iters = advance(t, z, P, hl)
        except StepFailure:
            fail_step = steps = i
            break
        if iters is not None:
            if switch_time is None:
                switch_time = t_n
                logger.info("implicit step took over at t = %.3f s (residual %.3g)", t_n, res)
            newton_iters.append(iters)
        hl = _h_lambda(P, system)[2]
        res = _residual(hl)
        on_stride = (i + 1) % stride == 0
        if on_stride:
            emit()
        if res < params.settle_tol:
            below += 1
            if below > window_steps:
                settle_time = (i + 1 - below + 1) * params.dt
                steps = i + 1
                if not on_stride:
                    emit()
                break
        else:
            below = 0
    terminal = _state(t, z, P, system)
    c_star = terminal.cost if c_star is None else c_star
    rows_t, rows_z, rows_p, rows_pl, rows_c, rows_r = zip(*rows)
    cost = np.array(rows_c)
    traj = Trajectory(
        t=np.array(rows_t), z=np.array(rows_z), P=np.array(rows_p),
        loss=np.array(rows_pl), cost=cost, residual=np.array(rows_r), V=0.5 * (cost - c_star) ** 2,
    )
    neg = bool((traj.P < 0).any())
    if neg:
        logger.warning("negative transient powers observed; delta = min b is only valid on P >= 0")
    return RunResult(
        trajectory=traj, terminal=terminal, settled=settle_time is not None,
        settle_time=settle_time,
        status="ok" if fail_step is None else "step_failure",
        c_star=float(c_star), negative_power_seen=neg, fail_step=fail_step,
        steps=steps, switch_time=switch_time,
        implicit_newton_iters=(sum(newton_iters) / len(newton_iters), max(newton_iters)) if newton_iters else None,
    )
