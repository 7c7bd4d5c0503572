"""Continuous-time consensus dispatch dynamics.

The auxiliary state z evolves by a two-gain signed-power consensus law on
the loss-weighted marginal costs H_i * lambda_i; the powers P are defined
implicitly at every instant by P_i = consensus_term_i + D_i0 + P_Li(P),
which keeps total generation equal to demand plus losses by construction.

The integrator picks its own steps. While the consensus residual is large
it takes classical Runge-Kutta steps (4 stages) whose width is set by error
control: stage 1 is the state the step starts from and also closes the step
before (first same as last), so the order-3 embedded solution with weights
(1/6, 1/3, 1/3, 0, 1/6) on (k1, ..., k4, k1 of the next step) gives a free
error estimate, and a step is accepted when it is within STEP_TOL (Hairer,
Norsett & Wanner, Solving ODEs I, II.4). Each later stage solves the
implicit power equation by a warm-started chord (simplified Newton)
iteration on one loss-Jacobian factor per step (a stage whose solve stalls
fails its step), whose balance residual is one folded expression with its
constants stored, and every solved P has its H lam formed once; dz/dt at
the end of every step, formed at the w(t + dt) the step used, is the next
step's k1 and an RK4 step's k5. Matrix products are ndarray.dot (see the
comment after _amax). Explicit RK4 on the non-Lipschitz k1 sig(r)^mu term
chatters once g k1 h |r|^(mu - 1) is of order one at width h, g being the
loop gain, so one rule, _chatter_width, bounds RK4's width at the
disagreement r, and where that bound falls below dt the integrator takes
linearly implicit, chattering-free steps of width dt instead (backward
Euler on the consensus law, after Acary & Brogliato 2010 and Polyakov,
Efimov & Brogliato 2019), which reach consensus to roundoff;
once an undisturbed run is below settle_tol each implicit step doubles its
width, so the settle window is confirmed in about ten steps. A failed step
is retried narrower: an RK4 step at the error controller's width (a quarter
of its width after a failed solve), an implicit step at half its width;
only a failure below _MIN_STEP dt ends a run. The kind of step depends only
on the state. One _Stepper per call holds the disturbance, the solver
counters and both kinds of step, and carries both the public `step` (width
dt, which adds the monitors) and `run` (which forms the residual every
step, cost and loss only on emitted rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid_model import (KronLossModel, _demand_shares, cost_coefficients, fleet_cost, total_demand,
                         weighted_cost_jacobian)
from .topology import LocalTopology, laplacian

logger = logging.getLogger(__name__)

# Always False now that run() has one NumPy path; perfbench/run.py stamps it.
_HAVE_NUMBA = False


#: Near consensus r moves as dr/dt = -M k1 sig(r)^mu (M from _sensitivity),
#: and RK4 at width h stops converging and chatters at
#: max|r| = c(mu) (g k1 h)^(1/(1 - mu)), with the loop gain g = ||M||_inf at
#: P = d0. Measured c is at most 0.134, 0.092, 0.061 and 0.028 at mu = 0.2,
#: 0.35, 0.5 and 0.65, over k1 = 5 and 50, h = 1e-3 and 2e-3, the reference
#: case with its link weights scaled by 0.3, 1 and 3 (g from 0.27 to 27) and a
#: lossless pair. The width _chatter_width allows at max|r|, and the
#: handover to implicit steps where it is below dt, scale with this constant:
#: at 2.4 the floor of such a step is at most 0.40 max|r| for every c above,
#: and the handover comes at least 2.5 times above RK4's floor at width dt.
#: Of 1 to 3, 2.4 takes the fewest steps, accepted plus rejected, over
#: criterion 4's splits at mu = 0.5 and 0.2 and mu = 0.2 with k1 = 20 (2 459,
#: against 2 468 at 2 and 2 487 at 3): lower values hand over sooner after
#: narrower RK4 steps, higher ones reject more RK4 steps before the handover.
_CHATTER_WIDTH = 2.4
#: The embedded error estimate (MW on z) below which an RK4 step is accepted.
#: Measured on the reference case with criterion 4's demand splits at the
#: shipped gains and their doubling (P at t = 0.5 s against fixed-step RK4 at
#: dt = 1e-5) and on the benchmark's seeded 64-unit fleets (t_end = 0.2 s):
#: at 1e-5 the transients are within 4.3e-5 MW, but seed 4 makes 945 power
#: solves where 200 fixed steps make 801; at 3e-5 they are within 4.7e-5 MW
#: in at most 577 solves; at 1e-4 the worst error grows to 2.4e-4 MW.
STEP_TOL = 3e-5
#: Widths are scaled by at most _GROWTH and at least _SHRINK per step (with the
#: safety factor _SAFETY on the error-optimal scale); a step that fails at a
#: width below _MIN_STEP dt ends the run.
_GROWTH, _SHRINK, _SAFETY = 4.0, 0.2, 0.9
_MIN_STEP = 1e-6
#: Newton on the implicit step stops when its residual is this fraction of
#: its value at s = 0, or within the roundoff of the disagreement it is
#: solved from; it fails after _IMPLICIT_MAX_ITER iterations.
_IMPLICIT_RTOL = 1e-12
_IMPLICIT_MAX_ITER = 50
_EPS = float(np.finfo(float).eps)
#: max over a 1-D array, without ndarray.max()'s Python-level wrapper
_amax = np.maximum.reduce
# Matrix products on the integration path are written A.dot(x), not A @ x: both
# make the same BLAS call and give the same bits, but at n = 4 the method's
# call overhead is about half the operator's (numpy 2.4, timeit).


class StepFailure(RuntimeError):
    """The implicit power equation or the Newton iteration of the implicit
    step failed to converge. run() retries every failed step narrower (an
    implicit one at half its width) and ends only when a step narrower than
    _MIN_STEP dt fails; step() raises it."""


@dataclass(frozen=True)
class AlgorithmParams:
    """Gains, exponents, and integrator settings.

    k1, k2: consensus gains (> 0); mu in (0, 1) and nu > 1 are the signed
    power exponents; dt: the first RK4 step and the implicit steps' width
    (s), steps turning implicit where _chatter_width is below it; t_end:
    horizon (s); fp_tol: residual tolerance of the implicit power solve
    (MW); fp_max_iter: cap on its chord iterations, a solve not converged
    by then failing; settle_tol: consensus residual threshold; settle_window:
    seconds the residual must stay below settle_tol before settling is
    declared.
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

    @property
    def active(self) -> bool:
        """Whether w(t) is anything but zero."""
        return self.enabled and self.amplitude != 0.0

    def __post_init__(self) -> None:
        if self.kind != "sinusoid":
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if not self.amplitude >= 0:
            raise ValueError("amplitude must be >= 0")
        if self.amplitude == math.inf:
            raise ValueError("amplitude must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _disturbance_fn(spec: DisturbanceSpec, n: int):
    """t -> w(t), with the per-channel frequencies and phases drawn once
    from the seed; w(t) is None if the spec is not active, so that a quiet
    run adds nothing to dz/dt.

    Frequencies are kept >= 1 rad/s so the running mean over any horizon
    of tens of seconds stays far below amplitude/100.
    """
    if not spec.active:
        return lambda t: None
    rng = np.random.default_rng(spec.seed)
    omega = rng.uniform(1.0, 2.0 * np.pi, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return lambda t: spec.amplitude * np.sin(omega * t + theta)


def _check_sizes(n: int, loss: KronLossModel | None = None, top: LocalTopology | None = None) -> None:
    """Raise ValueError unless the loss model and topology given fit n generators."""
    if loss is not None and loss.n != n:
        raise ValueError(f"{n} generators but loss matrix is {loss.n}x{loss.n}")
    if top is not None and top.n != n:
        raise ValueError(f"{n} generators but topology has {top.n} nodes")


@dataclass
class DispatchSystem:
    """A fleet, its loss model, and the local communication graph."""

    gens: tuple
    loss: KronLossModel
    top: LocalTopology

    def __post_init__(self) -> None:
        self.gens = tuple(self.gens)
        n = len(self.gens)
        _check_sizes(n, self.loss, self.top)
        self.n = n
        #: cost coefficients as rows (a, b, c); see grid_model.cost_coefficients
        self.cost_coef = cost_coefficients(self.gens)
        _, self.b_coef, self.c_coef = self.cost_coef
        #: 2c, the slope of the marginal costs
        self.two_c = 2.0 * self.c_coef
        self.d0 = _demand_shares(self.gens)
        #: d0 + B00/N, the constant term of the power solve's folded residual
        self._d0_b00 = self.d0 + self.loss._b00_share
        #: -L, with which _disagreement forms sum_j a_ij (x_j - x_i) in one product
        self.neg_laplacian = -laplacian(self.top)

    @property
    def dbar(self) -> float:
        """The total demand, grid_model.total_demand of the fleet (MW)."""
        return total_demand(self.gens)

    @cached_property
    def loss_jac0(self) -> np.ndarray:
        """J0, the Jacobian of the generator losses at P = d0."""
        return self.loss._jacobian(self.d0)

    @cached_property
    def chord0(self) -> np.ndarray:
        """A0 = (I - J0)^-1, the power solve's chord factor linearised at P = d0."""
        return np.linalg.inv(np.eye(self.n) - self.loss_jac0)

    @cached_property
    def loop_gain(self) -> float:
        """g = ||M||_inf at P = d0 (M from _sensitivity), the gain with which
        the disagreement answers the consensus law near consensus."""
        M = _sensitivity(*_h_lambda(self.d0, self)[:2], self, self.chord0)
        return float(np.abs(M).sum(axis=1).max())


@dataclass
class SimulationState:
    """One instant of the simulation with its monitors; total_power and
    residual are computed from P, H and lam."""

    t: float
    z: np.ndarray
    P: np.ndarray
    lam: np.ndarray
    H: np.ndarray
    cost: float
    loss: float

    @property
    def total_power(self) -> float:
        return float(self.P.sum())

    @property
    def residual(self) -> float:
        """The consensus residual, _residual of H lam."""
        return _residual(self.H * self.lam)


def sig_pow(x, m: float):
    """Signed power |x|^m * sign(x), elementwise; zero at zero."""
    return np.copysign(np.abs(x) ** m, x)


def solve_power(z, system: DispatchSystem, prev_P=None, fp_tol: float = AlgorithmParams.fp_tol,
                fp_max_iter: int = AlgorithmParams.fp_max_iter) -> np.ndarray:
    """Solve P_i = sum_j a_ij (z_j - z_i) + D_i0 + P_Li(P) for P.

    Warm-started (from d0 without prev_P) chord iteration on the factor
    system.chord0 = (I - J(d0))^-1; see _solve_power. Raises StepFailure if
    the iteration stalls or has not converged after fp_max_iter iterations.
    """
    P = np.asarray(prev_P, dtype=float) if prev_P is not None else system.d0
    return _solve_power(np.asarray(z, dtype=float), system, P, system.chord0, fp_tol, fp_max_iter)[0]


def _solve_power(z: np.ndarray, system: DispatchSystem, P: np.ndarray, A: np.ndarray,
                 fp_tol: float, fp_max_iter: int) -> tuple[np.ndarray, int]:
    """Solve P = -L z + d0 + P_L(P) from P; return (P, loss evaluations).

    Each of at most fp_max_iter chord iterations forms the balance residual
    d = -L z + d0 + P_L(P) - P and moves P <- P + A d, with A close to
    (I - J)^-1 and J the Jacobian of the generator losses. d is formed in
    one folded expression, base + P (B P + (B0 - 1)) with the per-solve
    constant base = -L z + (d0 + B00/N) (KronLossModel._losses_less_power).
    Once max|d| < fp_tol it returns P + d, whose balance residual is one
    sweep below fp_tol. StepFailure after fp_max_iter iterations, or as soon
    as max|d| stops shrinking or is not finite, so a diverging iterate stops
    long before it overflows.
    """
    base = _disagreement(z, system) + system._d0_b00
    loss = system.loss
    folded = loss._losses_less_power
    warm, last = P, math.inf
    # every update builds a new array: the P passed in is never written to or returned
    for evals in range(1, fp_max_iter + 1):
        d = base + folded(P)
        size = _amax(np.abs(d))
        if size < fp_tol:
            return P + d, evals
        if not size < last:
            break
        P, last = P + A.dot(d), size
    raise StepFailure(
        f"power solve did not converge; the largest own-loss gradient at its warm start is "
        f"{loss._own_gradient(warm).max():.3g}"
    )


def _h_lambda(P: np.ndarray, system: DispatchSystem):
    """Marginal costs lam, loss factors H = 1 + own-loss gradient, and H * lam.

    lam is grid_model.marginal_costs, 2cP + b, with 2c stored on the system;
    H is formed as G P + (1 + B0), G = B + diag(B_ii) and 1 + B0 stored on
    the loss model (KronLossModel._loss_factors)."""
    lam = system.two_c * P + system.b_coef
    H = system.loss._loss_factors(P)
    return lam, H, H * lam


def _residual(hl: np.ndarray) -> float:
    """Consensus residual max_i |H_i lam_i - mean(H lam)|."""
    return float(_amax(np.abs(hl - np.add.reduce(hl) / hl.size)))


def _disagreement(x: np.ndarray, system: DispatchSystem) -> np.ndarray:
    """-L x, entry i being sum_j a_ij (x_j - x_i): the disagreement
    r = -L (H lam) for x = H lam, and the consensus term of the power
    equation for x = z."""
    return system.neg_laplacian.dot(x)


def _z_dot(r: np.ndarray, params: AlgorithmParams, w) -> np.ndarray:
    """dz_i/dt = -k1 sig(r_i)^mu - k2 sig(r_i)^nu + w_i at the disagreement
    r = -L (H lam); w is None in a quiet run. |r| is taken once and the sign
    of r applied to the sum, which is sig_pow's value term by term."""
    a = np.abs(r)
    dz = -np.copysign(params.k1 * a ** params.mu + params.k2 * a ** params.nu, r)
    return dz if w is None else dz + w


def _state(t: float, z: np.ndarray, P: np.ndarray, system: DispatchSystem, h=None) -> SimulationState:
    """Assemble all monitors at a solved (z, P); h is _h_lambda at P if
    already formed."""
    lam, H, _ = _h_lambda(P, system) if h is None else h
    return SimulationState(
        t=t,
        z=np.asarray(z, dtype=float).copy(),
        P=P,
        lam=lam,
        H=H,
        cost=float(fleet_cost(system.cost_coef, P)),
        loss=system.loss.total_loss(P),
    )


def make_state(t: float, z, system: DispatchSystem, params: AlgorithmParams | None = None) -> SimulationState:
    """Solve the power equation at z from d0 and assemble all monitors; the
    solver settings are those of params, or their defaults without it."""
    fp = (params.fp_tol, params.fp_max_iter) if params else ()
    return _state(t, z, solve_power(z, system, None, *fp), system)


def _sensitivity(lam: np.ndarray, H: np.ndarray, system: DispatchSystem, jinv: np.ndarray) -> np.ndarray:
    """M = L K (I - J)^-1 L at P, with which the disagreement r = -L (H lam)
    moves with z as dr = M dz: K = d(H lam)/dP, J the Jacobian of the
    generator losses and L the Laplacian; lam and H are those of _h_lambda
    at P, and jinv is (I - J)^-1 there. Formed as (-L) K jinv (-L), equal
    to it bit for bit."""
    K = weighted_cost_jacobian(system.loss.own_grad_jac, system.c_coef, lam, H, 1.0)
    neg_lap = system.neg_laplacian
    return neg_lap.dot(K).dot(jinv).dot(neg_lap)


def _chatter_width(system: DispatchSystem, params: AlgorithmParams, r_max: float) -> float:
    """The widest RK4 step that does not chatter at the disagreement
    max|r| = r_max: _CHATTER_WIDTH r_max^(1 - mu) / (g k1), with
    g = system.loop_gain. A step is linearly implicit where it is below dt."""
    return _CHATTER_WIDTH * r_max ** (1.0 - params.mu) / (system.loop_gain * params.k1)


class _Step(NamedTuple):
    """One advance: the new z and P, h = _h_lambda and the disagreement r at
    P, the error estimate (0.0 after an implicit step) and k5, dz/dt at
    (t + dt, z')."""

    z: np.ndarray
    P: np.ndarray
    h: tuple
    r: np.ndarray
    err: float
    k: np.ndarray


class _Stepper:
    """The integrator of one step() or run() call.

    w_at (w(t) from _disturbance_fn) and quiet (no disturbance at all) come
    from one DisturbanceSpec, None for none. solves and evals count the power
    solves and their loss evaluations (max_evals the most in one solve);
    newton_iters lists the Newton iterations of each implicit step that
    succeeded. ValueError unless the loop gain, which _chatter_width divides
    by, is positive.
    """

    def __init__(self, system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None):
        if not system.loop_gain > 0.0:
            raise ValueError(f"the loop gain is {system.loop_gain:g}: no generator has a linked neighbour "
                             f"(as with one generator), so the consensus law cannot move the dispatch")
        spec = disturbance if disturbance is not None else DisturbanceSpec()
        self.system, self.params = system, params
        self.quiet = not spec.active
        self.w_at = _disturbance_fn(spec, system.n)
        self.solves = self.evals = self.max_evals = 0
        self.newton_iters: list[int] = []
        self.eye = np.eye(system.n)
        #: the largest weighted degree, max diag(L)
        self.deg_max = -float(np.minimum.reduce(system.neg_laplacian.diagonal()))

    def kind(self, r: np.ndarray) -> tuple[bool, float]:
        """(implicit, cap) at the disagreement r: cap, _chatter_width at
        max|r|, bounds the RK4 step's width, and the step is linearly
        implicit where cap is below dt."""
        cap = _chatter_width(self.system, self.params, float(_amax(np.abs(r))))
        return cap < self.params.dt, cap

    def solve(self, z: np.ndarray, P: np.ndarray, A: np.ndarray) -> np.ndarray:
        """solve_power at z from P with chord factor A, counted."""
        P, evals = _solve_power(z, self.system, P, A, self.params.fp_tol, self.params.fp_max_iter)
        self.solves += 1
        self.evals += evals
        self.max_evals = max(self.max_evals, evals)
        return P

    def rk4(self, t, z, P, k1, dt):
        """The RK4 advance over a step of width dt: (z', P', k4, w(t + dt)).

        P is the solved power at (t, z) and k1 dz/dt there, which give
        stage 1. Each later stage and the end-of-step solve warm-start from
        the chord step off the stage before, P + A (-L) (z' - z), which needs
        no loss evaluation. Only P, r and dz are formed per stage; k4 is
        returned for the error estimate, and w(t + dt) (None in a quiet run)
        for the k5 that closes the step.
        The solves share one chord factor A, (I - J(P))^-1 to first order
        about system.chord0: A0 + A0 (J(P) - J0) A0, and A (-L) is formed
        once per step. A failed solve raises StepFailure naming the stage, t
        and dt.
        """
        system, params, w_at = self.system, self.params, self.w_at
        a0 = system.chord0
        A = a0 + a0.dot(system.loss._jacobian(P) - system.loss_jac0).dot(a0)
        AL = A.dot(system.neg_laplacian)

        def solve(stage, z, z_from, P_from):
            try:
                return self.solve(z, P_from + AL.dot(z - z_from), A)
            except StepFailure as e:
                raise StepFailure(f"RK4 {stage} at t = {t:.9g} s, width {dt:.3g} s: {e}") from e

        def deriv(stage, z, z_from, P_from, w):
            P = solve(stage, z, z_from, P_from)
            return _z_dot(_disagreement(_h_lambda(P, system)[2], system), params, w), P

        w_half, w_end = w_at(t + dt / 2.0), w_at(t + dt)
        z2 = z + dt / 2.0 * k1
        k2v, P2 = deriv("stage 2", z2, z, P, w_half)
        z3 = z + dt / 2.0 * k2v
        k3v, P3 = deriv("stage 3", z3, z2, P2, w_half)
        z4 = z + dt * k3v
        k4v, P4 = deriv("stage 4", z4, z3, P3, w_end)
        z_new = z + dt / 6.0 * (k1 + 2.0 * k2v + 2.0 * k3v + k4v)
        return z_new, solve("end-of-step solve", z_new, z4, P4), k4v, w_end

    def implicit(self, t, z, P, h, r, dt):
        """The linearly implicit advance over a step of width dt:
        (z', P', w(t + dt)).

        With h = _h_lambda(P), r the disagreement at P and M = _sensitivity
        at P it solves
        y = r + M dz, dz = -dt (k1 sig(y)^mu + k2 sig(y)^nu) + dt w(t + dt)
        for the next disagreement y, which is backward Euler on the consensus
        law linearised at P, so it has no chatter: exact consensus is its
        fixed point. Newton runs in s = sig(y)^mu, in which the equation is
        smooth at consensus, and solves with lstsq because M has the null
        vector 1, starting from sig(r)^mu. (I - J(P))^-1 is formed once, for M
        and as the chord factor of the one power solve at z + dz that then
        restores the balance exactly. The Newton iterations go to
        newton_iters once that solve has succeeded.
        """
        params = self.params
        k1, k2, mu, nu = params.k1, params.k2, params.mu, params.nu
        lam, H, hl = h
        jinv = np.linalg.inv(self.eye - self.system.loss._jacobian(P))
        M = _sensitivity(lam, H, self.system, jinv)
        w = self.w_at(t + dt)
        dtw = None if w is None else dt * w
        f0 = _amax(np.abs(r if dtw is None else r + M.dot(dtw)))  # max|F| at s = 0
        tol = max(_IMPLICIT_RTOL * f0, _EPS * self.deg_max * _amax(np.abs(hl)))
        s = sig_pow(r, mu)
        for iters in range(_IMPLICIT_MAX_ITER + 1):
            law = k1 * s + k2 * sig_pow(s, nu / mu)
            dz = -dt * law if dtw is None else dtw - dt * law
            F = sig_pow(s, 1.0 / mu) - r - M.dot(dz)
            if _amax(np.abs(F)) <= tol:
                break
            if iters == _IMPLICIT_MAX_ITER:
                raise StepFailure(f"implicit step at t = {t:.9g} s, width {dt:.3g} s did not converge "
                                  f"in {_IMPLICIT_MAX_ITER} Newton iterations")
            a = np.abs(s)
            jac = np.diag(a ** (1.0 / mu - 1.0) / mu) + dt * M * (k1 + k2 * nu / mu * a ** (nu / mu - 1.0))
            s = s - np.linalg.lstsq(jac, F, rcond=None)[0]
        z_new = z + dz
        P_new = self.solve(z_new, P, jinv)
        self.newton_iters.append(iters)
        return z_new, P_new, w

    def advance(self, t, z, P, h, r, dt, implicit, k1) -> _Step:
        """One step of width dt, implicit or RK4 as kind(r) decided, from the
        solved P at (t, z); h is _h_lambda at P, (lam, H, H * lam), r the
        disagreement there and k1 dz/dt there.

        Either kind returns k5 = dz/dt at (t + dt, z'), formed at the
        w(t + dt) the step used, as _Step.k; it is k1 of the next step from
        (t + dt, z'). For an RK4 step err = dt/6 max|k4 - k5|: the distance
        to the order-3 solution with weights (1/6, 1/3, 1/3, 0, 1/6) on
        (k1, ..., k5), which costs no solve and in which w(t + dt) cancels.
        An implicit step has no error estimate: err is 0.0.
        """
        if implicit:
            z, P, w_end = self.implicit(t, z, P, h, r, dt)
        else:
            z, P, k4, w_end = self.rk4(t, z, P, k1, dt)
        h = _h_lambda(P, self.system)
        r = _disagreement(h[2], self.system)
        k5 = _z_dot(r, self.params, w_end)
        return _Step(z, P, h, r, 0.0 if implicit else dt / 6.0 * float(_amax(np.abs(k4 - k5))), k5)


def step(state: SimulationState, system: DispatchSystem, params: AlgorithmParams) -> SimulationState:
    """One undisturbed step of width dt on z: classical 4-stage
    Runge-Kutta, or the linearly implicit step where _chatter_width at the
    disagreement of state.P is below dt; the kind is decided as in run().

    Stage 1 is state (its P, lam and H); each later RK4 stage solves the
    implicit power equation (warm-started from the stage before). As in
    run(), the width integrated is the time increment t' - t as rounded,
    t' = t + dt. The returned state carries fresh monitors. StepFailure if
    the step fails (step() does not retry it); ValueError on a system
    with loop gain 0, such as one generator.
    """
    h = (state.lam, state.H, state.H * state.lam)
    r = _disagreement(h[2], system)
    stepper = _Stepper(system, params, None)
    t_new = state.t + params.dt
    out = stepper.advance(state.t, np.asarray(state.z, dtype=float), np.asarray(state.P, dtype=float), h, r,
                          t_new - state.t, stepper.kind(r)[0], _z_dot(r, params, None))
    return _state(t_new, out.z, out.P, system, out.h)


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
    """A run's trajectory and terminal state, the evidence its verdicts are
    computed from, and its solver counters.

    settle_time is the start of the confirmed settle window (None if the
    run did not settle) and fail_step the number of accepted steps before a
    step failed (None if none did); the verdicts settled, status and
    negative_power_seen are properties of these and of the trajectory. The
    counters: accepted and rejected steps, the time of the first implicit
    step (None if RK4 did every step), the mean and max Newton iterations of
    the implicit steps (None if there were none), and the mean and max loss
    evaluations per power solve over every solve of the run."""

    trajectory: Trajectory
    terminal: SimulationState
    settle_time: float | None
    c_star: float
    fail_step: int | None = None
    steps: int = 0
    switch_time: float | None = None
    implicit_newton_iters: tuple[float, int] | None = None
    power_solve_iters: tuple[float, int] | None = None
    rejected_steps: int = 0

    @property
    def settled(self) -> bool:
        return self.settle_time is not None

    @property
    def status(self) -> str:
        """'ok', or 'step_failure' if a step failed."""
        return "ok" if self.fail_step is None else "step_failure"

    @property
    def negative_power_seen(self) -> bool:
        """Whether a trajectory row has a negative power."""
        return bool((self.trajectory.P < 0).any())


def _width_scale(err: float) -> float:
    """The factor on an RK4 step's width for the next try or step, after an
    error estimate err: 0.9 (err/STEP_TOL)^(-1/4) within [0.2, 4]."""
    if err == 0.0:
        return _GROWTH
    return min(_GROWTH, max(_SHRINK, _SAFETY * (err / STEP_TOL) ** -0.25))


def run(system: DispatchSystem, params: AlgorithmParams,
        disturbance: DisturbanceSpec | None = None, z0=None,
        c_star: float | None = None, stride: int = 100) -> RunResult:
    """Integrate the dispatch dynamics to t_end or sustained consensus.

    RK4 steps start at width dt and are then sized by error control, never
    wider than _chatter_width: the width after an accepted step is scaled by
    0.9 (err/STEP_TOL)^(-1/4) within [0.2, 4] (at most 1 after a
    rejection). Implicit steps have width dt, except that in an undisturbed
    settle window each doubles the width of the one before. The last step
    lands on t_end. A step whose error estimate exceeds STEP_TOL, or whose
    solve fails, is rejected and retried narrower: an RK4 step at the
    controller's width (a quarter of its width after a failed solve), an
    implicit step at half its width.

    Settling is declared when the consensus residual stays below
    settle_tol for settle_window seconds; the settling time recorded is
    the start of that window and integration stops once it is confirmed.
    Every stride-th accepted step and the terminal state are trajectory
    rows. The Lyapunov column is V = 0.5 (C - c_star)^2, with c_star
    defaulting to the terminal cost. A step that fails below _MIN_STEP dt
    ends the run with status "step_failure". ValueError on a system with
    loop gain 0, such as one generator.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    stepper = _Stepper(system, params, disturbance)
    z0 = np.zeros(system.n) if z0 is None else np.asarray(z0, dtype=float)
    min_width = _MIN_STEP * params.dt

    state = _state(0.0, z0, stepper.solve(z0, system.d0, system.chord0), system)
    t, z, P, res = state.t, state.z, state.P, state.residual
    h = (state.lam, state.H, state.H * state.lam)
    r = _disagreement(h[2], system)
    k1 = _z_dot(r, params, stepper.w_at(t))  # dz/dt at (t, z); each step returns the next one
    rows = [(t, z, P, state.loss, state.cost, res)]

    def emit():
        rows.append((t, z, P, system.loss.total_loss(P), fleet_cost(system.cost_coef, P), res))

    # the settle window open since window_start (None if the residual is above settle_tol)
    window_start = window_end = None
    if res < params.settle_tol:
        window_start, window_end = t, t + params.settle_window
    rk4_width, implicit_width, may_grow = params.dt, params.dt, True
    settle_time, fail_step, switch_time = None, None, None
    steps = rejected = 0
    while t < params.t_end:
        implicit, cap = stepper.kind(r)
        widening = implicit and stepper.quiet and window_start is not None
        width = implicit_width if implicit else min(rk4_width, cap)
        t_new = min(t + width, params.t_end)
        if window_start is not None and t < window_end < t_new:
            t_new = window_end
        dt = t_new - t
        try:
            out = stepper.advance(t, z, P, h, r, dt, implicit, k1)
        except StepFailure as e:
            out, failure = None, e
        else:
            failure = None
            if out.err > STEP_TOL:
                failure = StepFailure(f"RK4 step at t = {t:.9g} s, width {dt:.3g} s: "
                                      f"error estimate {out.err:.3g} above STEP_TOL")
        if failure is not None:
            if dt < min_width:
                fail_step = steps
                logger.warning("run ended at t = %.9g s: %s", t, failure)
                break
            if implicit:
                implicit_width = dt / 2.0
            else:  # a failed solve is retried at a quarter of the width
                rk4_width, may_grow = dt * (_width_scale(out.err) if out is not None else 0.25), False
            rejected += 1
            continue
        if implicit:
            if switch_time is None:
                switch_time = t
                logger.info("implicit step took over at t = %.3f s (residual %.3g)", t, res)
            implicit_width = 2.0 * implicit_width if widening else params.dt
        else:
            rk4_width, may_grow = dt * min(_width_scale(out.err), _GROWTH if may_grow else 1.0), True
        t, z, P, h, r, k1 = t_new, out.z, out.P, out.h, out.r, out.k
        res = _residual(h[2])
        steps += 1
        if steps % stride == 0:
            emit()
        if res < params.settle_tol:
            if window_start is None:
                window_start, window_end = t, t + params.settle_window
            if t >= window_end:
                settle_time = window_start
                break
        else:
            window_start, implicit_width = None, params.dt
    if steps % stride:
        emit()
    iters = stepper.newton_iters
    terminal = _state(t, z, P, system, h)
    c_star = terminal.cost if c_star is None else c_star
    rows_t, rows_z, rows_p, rows_pl, rows_c, rows_r = zip(*rows)
    cost = np.array(rows_c)
    traj = Trajectory(
        t=np.array(rows_t), z=np.array(rows_z), P=np.array(rows_p),
        loss=np.array(rows_pl), cost=cost, residual=np.array(rows_r), V=0.5 * (cost - c_star) ** 2,
    )
    result = RunResult(
        trajectory=traj, terminal=terminal, settle_time=settle_time, c_star=float(c_star), fail_step=fail_step,
        steps=steps, switch_time=switch_time,
        implicit_newton_iters=(sum(iters) / len(iters), max(iters)) if iters else None,
        power_solve_iters=(stepper.evals / stepper.solves, stepper.max_evals), rejected_steps=rejected,
    )
    if result.negative_power_seen:
        logger.warning("negative transient powers observed; delta = min b is only valid on P >= 0")
    return result
