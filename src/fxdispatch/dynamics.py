"""Continuous-time consensus dispatch dynamics.

The auxiliary state z evolves by a two-gain signed-power consensus law on
the loss-weighted marginal costs H_i * lambda_i; the powers P are defined
implicitly at every instant by P_i = consensus_term_i + D_i0 + P_Li(P),
which keeps total generation equal to demand plus losses by construction.

The integrator picks its own steps. While the consensus residual is large it
takes classical Runge-Kutta steps (4 stages) whose width is set by error
control: stage 1 is the state the step starts from and also closes the step
before (first same as last), so the order-3 embedded solution with weights
(1/6, 1/3, 1/3, 0, 1/6) on (k1, ..., k4, k1 of the next step) gives a free
error estimate, and a step is accepted when it is within STEP_TOL (Hairer,
Norsett & Wanner, Solving ODEs I, II.4). Each later stage solves the implicit
power equation by a warm-started chord (simplified Newton) iteration (a stage
whose solve stalls fails its step; see _solve_power). There are two
tolerances. Every solve whose P becomes a solved instant (a run's start, the
end of each step) stops at fp_tol, so every point is balanced to fp_tol.
The solves of RK4 stages 2 to 4, which only feed k2 to k4, stop at
max(fp_tol, _STAGE_TOL), _STAGE_TOL being STEP_TOL/30: inner iterations
stop at a fraction of the step's error tolerance, not at roundoff (Hairer &
Wanner, Solving ODEs II, IV.8). Every power solve iterates on
KronLossModel._newton_factor, (I - J(P))^-1 with J the loss Jacobian; the RK4
tries of a call share one, formed again only once a solve shows it stale (one
chord correction no longer reaches the solve's tolerance, or the solve
failed), as simplified Newton iterations reuse their Jacobian (ibid.). A
solved instant is one _Point (t, z, P, H lam with its factors, the
disagreement, the residual and dz/dt), formed only by _Stepper.at. Each kind
of step is one _Stepper method from a point p to a time t_new, of width
dt = t_new - p.t, that returns (the point at t_new, err): the new point's
dz/dt, formed at the w(p.t + dt) the step used, is an RK4 step's k5 and the
next step's k1; an RK4 step's err is dt/6 max|k4 - k5|, and an implicit
step's is 0.0, as it has no error estimate yet. A try costs its NumPy calls'
overhead (0.4 us each with array operands, 0.6 us with a Python float); its
reductions stay in NumPy, as Python-level ones lose at large n (see _amax).
Explicit RK4 on the non-Lipschitz k1 sig(r)^mu term chatters once g k1 h
|r|^(mu - 1) is of order one at width h, g being the loop gain, so one rule,
the cap of _Stepper.kind, bounds RK4's width at the disagreement r, and where
that cap falls below dt the integrator takes linearly implicit,
chattering-free steps of width dt instead (backward Euler on the consensus
law, after Acary & Brogliato 2010 and Polyakov, Efimov & Brogliato 2019),
which reach consensus to roundoff. Their Newton systems are singular along 1
at consensus: each is solved by LU where a lower bound on its least singular
value shows that lstsq would keep every singular value, and by lstsq's
minimum-norm solution otherwise (_newton_step). Once an undisturbed run is
below settle_tol each implicit step doubles its width, so the settle window
is confirmed in about ten steps. A failed step is retried narrower (see run);
only a failure below _MIN_STEP dt ends a run. The kind of step depends only on
the state. One _Stepper per call holds the disturbance, the solver counters
and both kinds of step, and carries both the public `step` (width dt, which
adds the monitors) and `run` (which forms cost and loss once, over the emitted
rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid_model import (KronLossModel, _check_count, _check_sizes, _demand_shares, _vector, cost_coefficients,
                         fleet_cost, total_demand, weighted_cost_jacobian)
from .topology import LocalTopology

logger = logging.getLogger(__name__)

# Always False now that run() has one NumPy path; perfbench/run.py stamps it.
_HAVE_NUMBA = False


#: Near consensus r moves as dr/dt = -M k1 sig(r)^mu (M from _sensitivity),
#: and RK4 at width h stops converging and chatters at
#: max|r| = c(mu) (g k1 h)^(1/(1 - mu)), with the loop gain g = ||M||_inf at
#: P = d0. Measured c is at most 0.134, 0.092, 0.061 and 0.028 at mu = 0.2,
#: 0.35, 0.5 and 0.65, over k1 = 5 and 50, h = 1e-3 and 2e-3, the reference
#: case with its link weights scaled by 0.3, 1 and 3 (g from 0.27 to 27) and a
#: lossless pair. The width _Stepper.kind allows at max|r|, and the
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
#: The balance tolerance (MW on ||d||_2) of the power solves of RK4 stages 2
#: to 4, or fp_tol where that is larger. Those solves only feed k2 to k4, and
#: an accepted step keeps dt ||dz'/dP|| near RK4's stability bound, so a stage
#: error e moves z' by a few e: at STEP_TOL / 30, about a tenth of STEP_TOL.
#: Measured against every stage at fp_tol on the reference run (t_end 10),
#: criterion 4's nine calibration runs and the benchmark's 12 seed-1 sweep
#: scenarios: at STEP_TOL / 3, 10, 30, 100 and 300 the sweep takes 1.90, 2.03,
#: 2.11, 2.16 and 2.25 loss evaluations per solve (2.74 at fp_tol) and 397 to
#: 410 chord factors (814), and its P at t_end moves by at most 2.4e-6,
#: 2.4e-7, 1.7e-7, 1.5e-7 and 1.1e-7 MW; the reference run and the sweep take
#: the same steps, the calibration runs at most 3 more accepted and 12 more
#: rejected steps of 4 066. 10 would save 4% of the sweep's evaluations for
#: three times the stage error.
_STAGE_TOL = STEP_TOL / 30
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
#: An RK4 power solve that needs more loss evaluations than this, so more
#: than one chord correction, marks the chord factor stale.
_FRESH_EVALS = 2
_EPS = float(np.finfo(float).eps)
#: max over a 1-D array, without ndarray.max()'s Python-level wrapper
_amax = np.maximum.reduce
# An RK4 try on 4-vectors is about 140 NumPy calls whose overhead is its cost
# (numpy 2.4.6, 2-core x86-64, timeit): 0.37 us a call with array operands,
# 0.59 us with a Python float, 0.71 us for unary minus (np.negative 0.38). So H
# and lam are one product, the gains are arrays, 2 k is k + k, and A.dot(x) is
# A @ x at about half its overhead, with the same BLAS call and bits. Reductions
# stay in NumPy: max(map(abs, x.tolist())) beats np.abs and _amax at n = 4
# (0.5 against 1.5 us), not at n = 64 (3.5 against 1.6 us), where in _residual,
# kind and rk4's err it made the 64-unit fleets 4% slower.


class StepFailure(RuntimeError):
    """The implicit power equation or the Newton iteration of the implicit
    step failed to converge. run() retries a failed step narrower and ends
    only when one narrower than _MIN_STEP dt fails; step() raises it."""


@dataclass(frozen=True)
class AlgorithmParams:
    """Gains, exponents, and integrator settings.

    k1, k2: consensus gains (> 0); mu in (0, 1) and nu > 1 are the signed
    power exponents; dt: the first RK4 step and the implicit steps' width
    (s), steps turning implicit where _Stepper.kind's cap is below it; t_end:
    horizon (s); fp_tol: the power solve's tolerance on the 2-norm of its
    balance residual (MW) at every solved point (RK4 stages 2 to 4 stop at
    max(fp_tol, STEP_TOL/30)); fp_max_iter: cap on its chord iterations, a
    solve not converged by then failing; settle_tol: consensus residual
    threshold (finite, > 0); settle_window: seconds the residual must stay
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
        for name in ("k1", "k2", "dt", "fp_tol", "settle_tol"):
            if not 0 < getattr(self, name) < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be {'finite' if getattr(self, name) == math.inf else 'positive'}")
        for name in ("t_end", "settle_window"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        _check_count("fp_max_iter", self.fp_max_iter, 1)


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
        if not 0 <= self.amplitude < math.inf:  # also rejects NaN
            raise ValueError(f"amplitude must be {'finite' if self.amplitude == math.inf else '>= 0'}")
        _check_count("seed", self.seed, 0)


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
    amplitude = np.full(n, spec.amplitude)  # an array operand, as for the gains of _Stepper
    return lambda t: amplitude * np.sin(omega * t + theta)


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
        #: the (2n x n) stack [G; diag(2c)] and [1 + B0; b], G = own_grad_jac: _h_lambda's product and add
        self._hl_jac = np.vstack([self.loss.own_grad_jac, np.diag(2.0 * self.c_coef)])
        self._hl_const = np.concatenate([self.loss._one_plus_b0, self.b_coef])
        self.d0 = _demand_shares(self.gens)
        #: d0 + B00/N, the constant term of the power solve's folded residual
        self._d0_b00 = self.d0 + self.loss._b00_share
        #: -L, with which _disagreement forms sum_j a_ij (x_j - x_i) in one product
        self.neg_laplacian = -self.top.L

    @property
    def dbar(self) -> float:
        """The total demand, grid_model.total_demand of the fleet (MW)."""
        return total_demand(self.gens)

    @cached_property
    def chord0(self) -> np.ndarray:
        """(I - J(d0))^-1, the power solve's Newton factor at P = d0."""
        return self.loss._newton_factor(self.d0)

    @cached_property
    def loop_gain(self) -> float:
        """g = ||M||_inf at P = d0 (M from _sensitivity), the gain with which
        the disagreement answers the consensus law near consensus."""
        M = _sensitivity(*_h_lambda(self.d0, self)[:2], self, self.chord0)[1]
        return float(np.abs(M).sum(axis=1).max())


@dataclass
class SimulationState:
    """One solved instant, a trajectory row: t, z, the solved power P, the
    cost and loss at P, and the consensus residual _residual(H lam) at P;
    total_power is computed from P."""

    t: float
    z: np.ndarray
    P: np.ndarray
    cost: float
    loss: float
    residual: float

    @property
    def total_power(self) -> float:
        return float(self.P.sum())


def _sig_pow(x, m: float):
    """Signed power |x|^m * sign(x), elementwise; zero at zero."""
    return np.copysign(np.abs(x) ** m, x)


def solve_power(z, system: DispatchSystem, prev_P=None, fp_tol: float = AlgorithmParams.fp_tol,
                fp_max_iter: int = AlgorithmParams.fp_max_iter) -> np.ndarray:
    """Solve P_i = sum_j a_ij (z_j - z_i) + D_i0 + P_Li(P) for P.

    Warm-started (from d0 without prev_P) chord iteration on the factor
    system.chord0 = (I - J(d0))^-1; see _solve_power. Raises StepFailure if
    the iteration stalls or has not converged after fp_max_iter iterations,
    ValueError unless fp_max_iter is an integer >= 1 and z (and prev_P, if
    given) of shape (n,).
    """
    _check_count("fp_max_iter", fp_max_iter, 1)
    P = _vector("prev_P", prev_P, system.n) if prev_P is not None else system.d0
    return _solve_power(_vector("z", z, system.n), system, P, system.chord0, fp_tol, fp_max_iter)[0]


def _solve_power(z: np.ndarray, system: DispatchSystem, P: np.ndarray, A: np.ndarray,
                 fp_tol: float, fp_max_iter: int) -> tuple[np.ndarray, int]:
    """Solve P = -L z + d0 + P_L(P) from P; return (P, loss evaluations).

    Each of at most fp_max_iter chord iterations forms the balance residual
    d = -L z + d0 + P_L(P) - P and moves P <- P + A d, with A the Newton
    factor (I - J)^-1 at a nearby P, J the loss Jacobian. d is formed in
    one folded expression, base + P (B P + (B0 - 1)) with the per-solve
    constant base = -L z + (d0 + B00/N) (KronLossModel._losses_less_power).
    Once ||d||_2 < fp_tol, tested as d.d < fp_tol^2 in one call, it returns
    P + d, whose balance residual is one sweep below fp_tol; as
    ||d||_2 >= max|d|, every entry of d is below fp_tol too. StepFailure
    after fp_max_iter iterations, or as soon as d.d stops shrinking or is
    not finite, so a diverging iterate stops long before it overflows.
    """
    base = _disagreement(z, system) + system._d0_b00
    loss = system.loss
    folded = loss._losses_less_power
    warm, last, tol2 = P, math.inf, fp_tol * fp_tol
    # every update builds a new array: the P passed in is never written to or returned
    for evals in range(1, fp_max_iter + 1):
        d = base + folded(P)
        size = d.dot(d)
        if size < tol2:
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

    [H; lam] = [G; diag(2c)] P + [1 + B0; b], G = B + diag(B_ii), both stored
    on the system: lam is grid_model.marginal_costs bit for bit, H is
    KronLossModel._loss_factors within its last bit (the taller product
    may sum a row of G P in another order)."""
    hl = system._hl_jac.dot(P) + system._hl_const
    H, lam = hl[:system.n], hl[system.n:]
    return lam, H, H * lam


def _residual(hl: np.ndarray) -> float:
    """Consensus residual max_i |H_i lam_i - mean(H lam)|."""
    return float(_amax(np.abs(hl - np.add.reduce(hl) / hl.size)))


def _disagreement(x: np.ndarray, system: DispatchSystem) -> np.ndarray:
    """-L x, entry i being sum_j a_ij (x_j - x_i): the disagreement
    r = -L (H lam) for x = H lam, and the consensus term of the power
    equation for x = z."""
    return system.neg_laplacian.dot(x)


def _z_dot(r: np.ndarray, k1, k2, mu: float, nu: float, w) -> np.ndarray:
    """dz_i/dt = -k1 sig(r_i)^mu - k2 sig(r_i)^nu + w_i at the disagreement
    r = -L (H lam); k1 and k2 are floats or arrays, w None in a quiet run. |r|
    is taken once and r's sign applied to the sum, _sig_pow's value per term."""
    a = np.abs(r)
    dz = np.negative(np.copysign(k1 * a ** mu + k2 * a ** nu, r))
    return dz if w is None else dz + w


def _state(t: float, z: np.ndarray, P: np.ndarray, system: DispatchSystem, residual: float) -> SimulationState:
    """The state at a solved (z, P) whose consensus residual is residual,
    with its cost and loss formed at P."""
    return SimulationState(
        t=t,
        z=np.asarray(z, dtype=float).copy(),
        P=P,
        cost=float(fleet_cost(system.cost_coef, P)),
        loss=system.loss.total_loss(P),
        residual=residual,
    )


def make_state(t: float, z, system: DispatchSystem, params: AlgorithmParams | None = None) -> SimulationState:
    """Solve the power equation at z from d0 and assemble all monitors; the
    solver settings are those of params, or their defaults without it."""
    fp = (params.fp_tol, params.fp_max_iter) if params else ()
    P = solve_power(z, system, None, *fp)
    return _state(t, z, P, system, _residual(_h_lambda(P, system)[2]))


def _sensitivity(lam: np.ndarray, H: np.ndarray, system: DispatchSystem,
                 jinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, M) at P: C = K (I - J)^-1, how H lam moves with the consensus
    term -L z of the power equation, and M = L C L, with which the
    disagreement r = -L (H lam) moves with z as dr = M dz. K = d(H lam)/dP,
    J is the Jacobian of the generator losses and L the Laplacian; lam and H
    are those of _h_lambda at P, and jinv is (I - J)^-1 there. M is formed
    as (-L) C (-L), equal to L C L bit for bit."""
    C = weighted_cost_jacobian(system.loss.own_grad_jac, system.c_coef, lam, H, 1.0).dot(jinv)
    neg_lap = system.neg_laplacian
    return C, neg_lap.dot(C).dot(neg_lap)


def _newton_gap(C: np.ndarray, system: DispatchSystem, dt: float) -> float:
    """gap = dt c phi2^2 / 2 for _newton_step's bound, with phi2 the
    algebraic connectivity and c the Gershgorin lower bound on the
    eigenvalues of C's symmetric part (C from _sensitivity): then
    x' dt M x >= 2 gap |x - mean(x)|^2 for every x. 0.0 where c <= 0, for
    which there is no such bound. phi2 is top.phi2, which unlike
    topology.spectrum does not refuse a phi2 near 0 (gap near 0: lstsq)."""
    S = C + C.T
    diag = S.diagonal()
    c = 0.5 * float(np.minimum.reduce(diag + np.abs(diag) - np.abs(S).sum(axis=1)))
    return 0.5 * dt * c * system.top.phi2 ** 2 if c > 0.0 else 0.0


def _newton_step(jac: np.ndarray, F: np.ndarray, D: np.ndarray, E: np.ndarray, k1: float,
                 gap: float) -> np.ndarray:
    """The implicit step's Newton update, jac^-1 F for jac = diag(D) + dt M
    diag(E) (D >= 0 and E >= k1 from _Stepper.implicit): an LU solve where a
    lower bound on jac's least singular value shows jac regular, else lstsq's
    minimum-norm solution.

    The bound: jac = (diag(Delta) + dt M) diag(E) with Delta = D / E >= 0.
    Write a unit x as a multiple of 1 / sqrt(n) plus w orthogonal to 1; as
    x' dt M x >= 2 gap |w|^2 (_newton_gap), minimising over w gives
    sigma_min(jac) >= k1 mean(Delta gap / (Delta + gap)) in exact
    arithmetic, for the jac formed exactly from the computed C. lstsq with
    rcond=None drops the singular values below n eps sigma_max, and
    sigma_max <= ||jac||_F, so jac is solved by LU only where the bound
    exceeds 2 n eps ||jac||_F. The second n eps ||jac||_F is a margin for
    the rounding in forming M and jac, not a proven bound on it: that
    rounding scales with |L| |C| |L|, which exceeds |M| where L C L cancels.
    TestNewtonStep checks the margin against the SVD, on constructed systems
    and on whole runs. At s = 0, where jac is singular along 1, Delta = 0
    and the bound is 0: such systems, and every one with gap = 0, go to
    lstsq.
    """
    if gap > 0.0:
        ratio = D / E
        lower = k1 * gap / F.size * float(np.add.reduce(ratio / (ratio + gap)))
        flat = jac.reshape(-1)
        if lower * lower > (2.0 * F.size * _EPS) ** 2 * flat.dot(flat):
            return np.linalg.solve(jac, F)
    return np.linalg.lstsq(jac, F, rcond=None)[0]


class _Point(NamedTuple):
    """A solved instant: time t, state z, the solved power P, h = _h_lambda
    at P (lam, H, H lam), the disagreement r = -L (H lam), the consensus
    residual res = _residual(H lam) and k = dz/dt at (t, z); _Stepper.at
    forms it."""

    t: float
    z: np.ndarray
    P: np.ndarray
    h: tuple
    r: np.ndarray
    res: float
    k: np.ndarray


class _Stepper:
    """The integrator of one step() or run() call.

    w_at (w(t) from _disturbance_fn) and quiet (no disturbance at all) come
    from one DisturbanceSpec, None for none. stage_tol is the tolerance of
    the solves of RK4 stages 2 to 4. solves and evals count the power
    solves and their loss evaluations (max_evals the most in one solve);
    newton_iters lists the Newton iterations of each implicit step that
    succeeded. chord is the RK4 tries' pair (A, A (-L)), A = (I - J(P))^-1,
    None until rk4 forms it and again once a solve has found it stale;
    chord_factors counts the pairs formed. k1 and k2 are the gains as
    arrays, _z_dot's operands. ValueError unless the loop gain is positive.
    """

    def __init__(self, system: DispatchSystem, params: AlgorithmParams, disturbance: DisturbanceSpec | None):
        if not system.loop_gain > 0.0:
            raise ValueError(f"the loop gain is {system.loop_gain:g}: no generator has a linked neighbour "
                             f"(as with one generator), so the consensus law cannot move the dispatch")
        spec = disturbance if disturbance is not None else DisturbanceSpec()
        self.system, self.params = system, params
        self.quiet = not spec.active
        self.w_at = _disturbance_fn(spec, system.n)
        self.stage_tol = max(params.fp_tol, _STAGE_TOL)
        self.solves = self.evals = self.max_evals = 0
        self.newton_iters, self.chord, self.chord_factors = [], None, 0
        self.k1, self.k2 = np.full(system.n, params.k1), np.full(system.n, params.k2)
        #: the largest weighted degree, max diag(L)
        self.deg_max = -float(np.minimum.reduce(system.neg_laplacian.diagonal()))

    def roundoff(self, hl: np.ndarray) -> float:
        """eps deg_max max|H lam| at H lam = hl, the roundoff of the
        disagreement -L (H lam): the floor of the implicit step's Newton tolerance."""
        return float(_EPS * self.deg_max * _amax(np.abs(hl)))

    def kind(self, r: np.ndarray) -> tuple[bool, float]:
        """(implicit, cap) at the disagreement r: cap, the widest RK4 step
        that does not chatter there, _CHATTER_WIDTH max|r|^(1 - mu) / (g k1)
        with g the loop gain, bounds the RK4 step's width, and the step is
        linearly implicit where cap is below dt."""
        params, r_max = self.params, float(_amax(np.abs(r)))
        cap = _CHATTER_WIDTH * r_max ** (1.0 - params.mu) / (self.system.loop_gain * params.k1)
        return cap < params.dt, cap

    def at(self, t: float, z: np.ndarray, P: np.ndarray, w) -> _Point:
        """The point at (t, z) with the solved power P there, its dz/dt formed
        at the disturbance w (None for none)."""
        h = _h_lambda(P, self.system)
        r = _disagreement(h[2], self.system)
        return _Point(t, z, P, h, r, _residual(h[2]), self.slope(r, w))

    def slope(self, r: np.ndarray, w) -> np.ndarray:
        """dz/dt by _z_dot at the disagreement r and the disturbance w."""
        return _z_dot(r, self.k1, self.k2, self.params.mu, self.params.nu, w)

    def solve(self, z: np.ndarray, P: np.ndarray, A: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
        """solve_power at z from P with chord factor A to the balance
        tolerance tol, counted: (P, loss evaluations)."""
        P, evals = _solve_power(z, self.system, P, A, tol, self.params.fp_max_iter)
        self.solves += 1
        self.evals += evals
        self.max_evals = max(self.max_evals, evals)
        return P, evals

    def rk4(self, p: _Point, t_new: float) -> tuple[_Point, float]:
        """The RK4 step from the point p to t_new, of width dt = t_new - p.t:
        (the point at t_new, err).

        p's P and k give stage 1; stages 2 to 4 solve to stage_tol, the
        end-of-step solve to fp_tol. The new point's k, formed at w(t + dt),
        is k5, which closes the step and is the next step's k1. err is
        dt/6 max|k4 - k5|, the distance to the order-3 solution with weights
        (1/6, 1/3, 1/3, 0, 1/6) on (k1, ..., k5), in which w(t + dt) cancels.
        A try that finds chord None forms it at p's P first.
        """
        t, z, P, k1 = p.t, p.z, p.P, p.k
        dt = t_new - t
        if self.chord is None:
            A = self.system.loss._newton_factor(P)
            self.chord = A, A.dot(self.system.neg_laplacian)
            self.chord_factors += 1
        chord, tol, system = self.chord, self.stage_tol, self.system
        w_half, w_end = self.w_at(t + dt / 2.0), self.w_at(t + dt)
        z2 = z + dt / 2.0 * k1
        P2 = self.stage("stage 2", p, dt, chord, z2, z, P, tol)
        k2 = self.slope(_disagreement(_h_lambda(P2, system)[2], system), w_half)
        z3 = z + dt / 2.0 * k2
        P3 = self.stage("stage 3", p, dt, chord, z3, z2, P2, tol)
        k3 = self.slope(_disagreement(_h_lambda(P3, system)[2], system), w_half)
        z4 = z + dt * k3
        P4 = self.stage("stage 4", p, dt, chord, z4, z3, P3, tol)
        k4 = self.slope(_disagreement(_h_lambda(P4, system)[2], system), w_end)
        z_new = z + dt / 6.0 * (k1 + (k2 + k2) + (k3 + k3) + k4)
        P_new = self.stage("end-of-step solve", p, dt, chord, z_new, z4, P4, self.params.fp_tol)
        q = self.at(t_new, z_new, P_new, w_end)
        return q, dt / 6.0 * float(_amax(np.abs(k4 - q.k)))

    def stage(self, name: str, p: _Point, dt: float, chord: tuple[np.ndarray, np.ndarray], z: np.ndarray,
              z_from: np.ndarray, P_from: np.ndarray, tol: float) -> np.ndarray:
        """P at z to tol, RK4 stage name's counted solve in the try from p of
        width dt, started at P_from + A (-L) (z - z_from), chord = (A, A (-L)).
        Over _FRESH_EVALS loss evaluations, or a failure, sets self.chord to
        None for the next try; a failure raises StepFailure naming name, t, dt."""
        A, AL = chord
        try:
            P, evals = self.solve(z, P_from + AL.dot(z - z_from), A, tol)
        except StepFailure as e:
            self.chord = None
            raise StepFailure(f"RK4 {name} at t = {p.t:.9g} s, width {dt:.3g} s: {e}") from e
        if evals > _FRESH_EVALS:
            self.chord = None
        return P

    def implicit(self, p: _Point, t_new: float) -> tuple[_Point, float]:
        """The linearly implicit step from the point p to t_new, of width
        dt = t_new - p.t: (the point at t_new, 0.0). err is 0.0, as this step
        has no error estimate yet; the new point's k, formed at w(p.t + dt),
        is the next step's k1.

        With p's P, h and disagreement r, and C, M = _sensitivity at P, it
        solves y = r + M dz, dz = -dt (k1 sig(y)^mu + k2 sig(y)^nu) + dt w(t + dt)
        for the next disagreement y, which is backward Euler on the consensus
        law linearised at P, so it has no chatter: exact consensus is its
        fixed point. r is first made to sum to zero, as -L (H lam) does in
        exact arithmetic: as 1' M = 0, sum(y) = sum(r), so a rounded sum of r
        would set the mean of y, the direction along which the Newton matrix
        is near-singular at consensus, and Newton started below that mean
        overshoots it by orders of magnitude and needs tens of iterations to
        come back. Newton runs in s = sig(y)^mu, in which the equation is
        smooth at consensus, starting from sig(r)^mu. Its matrix
        diag(D) + dt M diag(E) is built in place and solved by _newton_step,
        as M has the null vector 1 on both sides. The Newton factor
        (I - J(P))^-1 is formed once, for M and as the chord factor of the
        one power solve at z + dz that then restores the balance exactly. The
        Newton iterations go to newton_iters once that solve has succeeded.
        """
        params = self.params
        k1, k2, mu, nu = params.k1, params.k2, params.mu, params.nu
        (lam, H, hl), P, r = p.h, p.P, p.r
        r = r - np.add.reduce(r) / r.size
        system, dt = self.system, t_new - p.t
        jinv = system.loss._newton_factor(P)
        C, M = _sensitivity(lam, H, system, jinv)
        dtM, gap, n = dt * M, _newton_gap(C, system, dt), system.n
        w = self.w_at(p.t + dt)
        dtw = None if w is None else dt * w
        f0 = _amax(np.abs(r if dtw is None else r + M.dot(dtw)))  # max|F| at s = 0
        tol = max(_IMPLICIT_RTOL * f0, self.roundoff(hl))
        s = _sig_pow(r, mu)
        for iters in range(_IMPLICIT_MAX_ITER + 1):
            law = k1 * s + k2 * _sig_pow(s, nu / mu)
            dz = -dt * law if dtw is None else dtw - dt * law
            F = _sig_pow(s, 1.0 / mu) - r - M.dot(dz)
            if _amax(np.abs(F)) <= tol:
                break
            if iters == _IMPLICIT_MAX_ITER:
                raise StepFailure(f"implicit step at t = {p.t:.9g} s, width {dt:.3g} s did not converge "
                                  f"in {_IMPLICIT_MAX_ITER} Newton iterations")
            a = np.abs(s)
            D = a ** (1.0 / mu - 1.0) / mu
            E = k1 + k2 * nu / mu * a ** (nu / mu - 1.0)
            jac = dtM * E
            jac.reshape(-1)[::n + 1] += D
            s = s - _newton_step(jac, F, D, E, k1, gap)
        z_new = p.z + dz
        P_new = self.solve(z_new, P, jinv, params.fp_tol)[0]
        self.newton_iters.append(iters)
        return self.at(t_new, z_new, P_new, w), 0.0


def step(state: SimulationState, system: DispatchSystem, params: AlgorithmParams) -> SimulationState:
    """One undisturbed step of width dt on z: classical 4-stage
    Runge-Kutta, or the linearly implicit step where _Stepper.kind's cap at
    the disagreement of state.P is below dt; the kind is decided as in run().

    Stage 1 is the point at state's (t, z, P). The returned state, its P
    solved to fp_tol, is the row run() would emit at t' = t + dt as rounded,
    the width integrated being t' - t. StepFailure if the step fails (step()
    does not retry it); ValueError on a system with loop gain 0, such as one
    generator, or a state whose z or P is not of shape (n,).
    """
    stepper = _Stepper(system, params, None)
    p = stepper.at(state.t, _vector("state.z", state.z, system.n), _vector("state.P", state.P, system.n), None)
    p = (stepper.implicit if stepper.kind(p.r)[0] else stepper.rk4)(p, state.t + params.dt)[0]
    return _state(p.t, p.z, p.P, system, p.res)


@dataclass
class Trajectory:
    """Strided simulation history and the reference cost c_star, from which
    the Lyapunov column V = 0.5 (C - c_star)^2 is computed."""

    t: np.ndarray
    z: np.ndarray
    P: np.ndarray
    loss: np.ndarray
    cost: np.ndarray
    residual: np.ndarray
    c_star: float

    @property
    def V(self) -> np.ndarray:
        return 0.5 * (self.cost - self.c_star) ** 2


@dataclass
class RunResult:
    """A run's trajectory, the evidence its verdicts are computed from, and
    its solver counters; terminal is the last row, its arrays copies.

    settle_time is the start of the confirmed settle window (None if the
    run did not settle), min_power the least power at the initial point and
    at every accepted step, in a trajectory row or not, and fail_step the
    number of accepted steps before a step failed (None if none did); the
    verdicts settled, negative_power_seen and status are properties of
    these. The counters: accepted and rejected steps, the time of the first
    implicit step (None if RK4 did every step), the mean and max Newton
    iterations of the implicit steps (None if there were none), the mean and
    max loss evaluations per power solve of the run, and the RK4 chord
    factors formed."""

    trajectory: Trajectory
    settle_time: float | None
    min_power: float
    fail_step: int | None = None
    steps: int = 0
    switch_time: float | None = None
    implicit_newton_iters: tuple[float, int] | None = None
    power_solve_iters: tuple[float, int] | None = None
    rejected_steps: int = 0
    chord_factors: int = 0

    @property
    def terminal(self) -> SimulationState:
        traj = self.trajectory
        return SimulationState(t=float(traj.t[-1]), z=traj.z[-1].copy(), P=traj.P[-1].copy(),
                               cost=float(traj.cost[-1]), loss=float(traj.loss[-1]),
                               residual=float(traj.residual[-1]))

    @property
    def settled(self) -> bool:
        return self.settle_time is not None

    @property
    def status(self) -> str:
        """'ok', or 'step_failure' if a step failed."""
        return "ok" if self.fail_step is None else "step_failure"

    @property
    def negative_power_seen(self) -> bool:
        """Whether a power was negative at the initial point or at an accepted step."""
        return self.min_power < 0.0


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
    wider than _Stepper.kind's cap: the width after an accepted step is
    scaled by _width_scale(err), at most 1 after a rejection. Implicit steps
    have width dt, except that in an undisturbed settle window each doubles
    the width of the one before. The last step lands on t_end. A step whose
    error estimate exceeds STEP_TOL, or whose solve fails, is rejected and
    retried narrower: an RK4 step at the controller's width (a quarter of its
    width after a failed solve), an implicit step at half its width.

    Settling is declared when the consensus residual stays below
    settle_tol for settle_window seconds; the settling time recorded is
    the start of that window and integration stops once it is confirmed.
    Every stride-th accepted step and the last point are trajectory rows,
    the last row being RunResult.terminal. The Lyapunov column is
    V = 0.5 (C - c_star)^2, c_star defaulting to the last row's cost. A
    step that fails below _MIN_STEP dt ends the run with status
    "step_failure". ValueError on a system with loop gain 0, such as one
    generator, or a z0 not of shape (n,).
    """
    _check_count("stride", stride, 1)
    stepper = _Stepper(system, params, disturbance)
    z0 = np.zeros(system.n) if z0 is None else _vector("z0", z0, system.n)
    min_width = _MIN_STEP * params.dt

    P0 = stepper.solve(z0, system.d0, system.chord0, params.fp_tol)[0]
    p = stepper.at(0.0, z0, P0, stepper.w_at(0.0))
    rows = [p]
    low = p.P.copy()  # the elementwise least power so far

    # the settle window open since window_start (None if the residual is above settle_tol)
    window_start = window_end = None
    if p.res < params.settle_tol:
        window_start, window_end = p.t, p.t + params.settle_window
    rk4_width, implicit_width, may_grow = params.dt, params.dt, True
    settle_time, fail_step, switch_time = None, None, None
    steps = rejected = 0
    while p.t < params.t_end:
        implicit, cap = stepper.kind(p.r)
        widening = implicit and stepper.quiet and window_start is not None
        width = implicit_width if implicit else min(rk4_width, cap)
        t_new = min(p.t + width, params.t_end)
        if window_start is not None and p.t < window_end < t_new:
            t_new = window_end
        dt = t_new - p.t
        try:
            out, err = (stepper.implicit if implicit else stepper.rk4)(p, t_new)
        except StepFailure as e:
            err, failure = None, e
        else:
            failure = None
            if err > STEP_TOL:
                failure = StepFailure(f"RK4 step at t = {p.t:.9g} s, width {dt:.3g} s: "
                                      f"error estimate {err:.3g} above STEP_TOL")
        if failure is not None:
            if dt < min_width:
                fail_step = steps
                logger.warning("run ended at t = %.9g s: %s", p.t, failure)
                break
            if implicit:
                implicit_width = dt / 2.0
            else:  # a failed solve is retried at a quarter of the width
                rk4_width, may_grow = dt * (_width_scale(err) if err is not None else 0.25), False
            rejected += 1
            continue
        if implicit:
            if switch_time is None:
                switch_time = p.t
                logger.info("implicit step took over at t = %.3f s (residual %.3g)", p.t, p.res)
            implicit_width = 2.0 * implicit_width if widening else params.dt
        else:
            rk4_width, may_grow = dt * min(_width_scale(err), _GROWTH if may_grow else 1.0), True
        p = out
        np.minimum(low, p.P, out=low)
        steps += 1
        if steps % stride == 0:
            rows.append(p)
        if p.res < params.settle_tol:
            if window_start is None:
                window_start, window_end = p.t, p.t + params.settle_window
            if p.t >= window_end:
                settle_time = window_start
                break
        else:
            window_start, implicit_width = None, params.dt
    if steps % stride:
        rows.append(p)
    iters = stepper.newton_iters
    P_rows = np.array([q.P for q in rows])
    cost = fleet_cost(system.cost_coef, P_rows)
    c_star = cost[-1] if c_star is None else c_star
    traj = Trajectory(t=np.array([q.t for q in rows]), z=np.array([q.z for q in rows]), P=P_rows,
                      loss=system.loss.total_loss(P_rows), cost=cost,
                      residual=np.array([q.res for q in rows]), c_star=float(c_star))
    result = RunResult(
        trajectory=traj, settle_time=settle_time, min_power=float(np.minimum.reduce(low)),
        fail_step=fail_step, steps=steps, switch_time=switch_time,
        implicit_newton_iters=(sum(iters) / len(iters), max(iters)) if iters else None,
        power_solve_iters=(stepper.evals / stepper.solves, stepper.max_evals), rejected_steps=rejected,
        chord_factors=stepper.chord_factors,
    )
    if result.negative_power_seen:
        logger.warning("negative transient power %.6g MW observed; delta = min b is only valid on P >= 0",
                       result.min_power)
    return result
