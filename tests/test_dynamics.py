import dataclasses
import pathlib
import warnings

import numpy as np
import pytest

from fxdispatch import (
    AlgorithmParams,
    DispatchSystem,
    DisturbanceSpec,
    GeneratorSpec,
    KronLossModel,
    LocalTopology,
    SimulationState,
    StepFailure,
    path_topology,
    run,
    sig_pow,
    solve_power,
    solve_equilibrium,
    step,
)
from fxdispatch import dynamics
from fxdispatch.config import config_from_dict, load_config
from fxdispatch.dynamics import (
    _GROWTH,
    _chatter_width,
    _disagreement,
    _disturbance_fn,
    _h_lambda,
    _residual,
    _state,
    _Stepper,
    _width_scale,
    _z_dot,
    make_state,
)
from fxdispatch.grid_model import marginal_costs, total_cost
from fxdispatch.topology import laplacian
from tests.conftest import REF_DEMAND, REF_P0, ring_fleet_dict

REF_PARAMS = AlgorithmParams(k1=5.0, k2=5.0, mu=0.5, nu=2.0)
REF_CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"
#: Terminal P of the reference case (every demand split, mu = 0.5 and 0.2)
#: from a fixed-step run at dt = 2.5e-4, to the last bit of the first split.
FINE_TERMINAL = np.array([164.75601311044773, 171.72475981634753, 168.59776550240161, 135.8317407974683])


def lossless_pair(d=100.0, split=(100.0, 100.0)):
    gens = tuple(GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=s, d0=s) for s in split)
    model = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
    return DispatchSystem(gens=gens, loss=model, top=path_topology(2))


def state_r(state, system):
    """The disagreement r = -L (H lam) at a state."""
    return _disagreement(state.H * state.lam, system)


def disagreement(state, system):
    """max |r| at a state, at which _chatter_width decides the kind of step."""
    return float(np.abs(state_r(state, system)).max())


def implicit_at(state, system, params):
    """Whether the step from a state is linearly implicit."""
    return _chatter_width(system, params, disagreement(state, system)) < params.dt


def equilibrium_z(system):
    """A z whose solved power is solve_equilibrium's consensus point."""
    sol = solve_equilibrium(system.gens, system.loss, REF_DEMAND)
    cons = sol.P_star - system.d0 - system.loss.generator_losses(sol.P_star)
    return -np.linalg.pinv(laplacian(system.top)) @ cons


class TestParams:
    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            AlgorithmParams(k1=1.0, k2=1.0, mu=1.5, nu=2.0)
        with pytest.raises(ValueError):
            AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=0.9)

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            AlgorithmParams(k1=0.0, k2=1.0, mu=0.5, nu=2.0)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0, t_end=-1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("settle_tol", 0.0, "settle_tol must be positive"),
        ("settle_tol", float("nan"), "settle_tol must be positive"),
        ("settle_window", -1.0, "settle_window must be finite and >= 0"),
        ("settle_window", float("nan"), "settle_window must be finite and >= 0"),
        ("settle_window", float("inf"), "settle_window must be finite and >= 0"),
        ("fp_max_iter", 0, "fp_max_iter must be >= 1"),
        ("fp_max_iter", float("nan"), "fp_max_iter must be >= 1"),
    ])
    def test_rejects_out_of_range_solver_settings(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0, **{field: value})

    def test_zero_settle_window_allowed(self):
        assert AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0, settle_window=0.0).settle_window == 0.0


class TestSigPow:
    def test_negative_base(self):
        assert sig_pow(-4.0, 0.5) == -2.0

    def test_zero(self):
        for m in [0.3, 0.5, 1.0, 2.0]:
            assert sig_pow(0.0, m) == 0.0

    def test_square(self):
        assert sig_pow(3.0, 2.0) == 9.0

    def test_odd_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, m = rng.normal(), rng.uniform(0.2, 3.0)
            assert sig_pow(-x, m) == pytest.approx(-sig_pow(x, m), rel=1e-15)


class TestSolvePower:
    def test_lossless_is_explicit(self):
        system = lossless_pair(split=(120.0, 80.0))
        z = np.array([3.0, -1.0])
        adjacency = system.top.adjacency()
        cons = adjacency @ z - adjacency.sum(axis=1) * z
        P = solve_power(z, system)
        assert P == pytest.approx(cons + system.d0, abs=1e-14)

    def test_zero_z_substitution(self, ref_system):
        P = solve_power(np.zeros(4), ref_system, fp_tol=1e-10)
        rhs = ref_system.d0 + ref_system.loss.generator_losses(P)
        assert np.max(np.abs(P - rhs)) < 1e-10

    def test_derived_demand_shares_reproduce_initial_power(self, ref_model, ref_top):
        # choosing d0_i = P_i(0) - P_Li(P(0)) makes z = 0 reproduce P(0)
        shares = REF_P0 - ref_model.generator_losses(REF_P0)
        gens = tuple(
            GeneratorSpec(a=1.0, b=2.0, c=0.1, p0=p, d0=d)
            for p, d in zip(REF_P0, shares)
        )
        system = DispatchSystem(gens=gens, loss=ref_model, top=ref_top)
        P = solve_power(np.zeros(4), system, fp_tol=1e-12)
        assert np.max(np.abs(P - REF_P0)) < 1e-9

    @pytest.mark.parametrize("fleet", ["reference", "16 units"])
    def test_chord_result_is_the_newton_root(self, ref_system, fleet):
        system = ref_system if fleet == "reference" else config_from_dict(ring_fleet_dict(16)).system()
        tol = AlgorithmParams.fp_tol
        rng = np.random.default_rng(5)
        for z in [np.zeros(system.n), *rng.normal(scale=10.0, size=(3, system.n))]:
            base = _disagreement(z, system) + system.d0
            for warm in (system.d0, 0.5 * system.d0, 2.0 * system.d0):
                P = solve_power(z, system, prev_P=warm)
                assert np.abs(base + system.loss.generator_losses(P) - P).max() < tol
                root = P
                for _ in range(3):  # Newton polish
                    r = base + system.loss.generator_losses(root) - root
                    root = root + np.linalg.solve(np.eye(system.n) - system.loss._jacobian(root), r)
                assert np.abs(P - root).max() < tol

    @pytest.mark.parametrize("fleet", ["reference", "64 units"])
    def test_folded_residual_meets_the_unfolded_balance(self, ref_system, fleet):
        # the chord loop forms its residual folded, -L z + (d0 + B00/N) + P (B P + (B0 - 1));
        # its result meets the balance formed term by term, from any warm start
        system = ref_system if fleet == "reference" else config_from_dict(ring_fleet_dict(64)).system()
        tol = AlgorithmParams.fp_tol
        rng = np.random.default_rng(7)
        neg_lap = -laplacian(system.top)
        for z in rng.normal(scale=10.0, size=(5, system.n)):
            from_d0 = solve_power(z, system)
            for warm in (system.d0, system.d0 * rng.uniform(0.5, 1.5, system.n)):
                P = solve_power(z, system, prev_P=warm)
                assert np.abs(P - (neg_lap @ z + system.d0 + system.loss.generator_losses(P))).max() <= tol
                assert np.abs(P - from_d0).max() <= 1e-9

    def test_solve_not_converged_within_fp_max_iter_raises(self, ref_system):
        # a solve away from d0 needs several chord iterations; one is not enough
        with pytest.raises(StepFailure, match="largest own-loss gradient at its warm start"):
            solve_power(np.array([1.0, -1.0, 1.0, -1.0]), ref_system, fp_max_iter=1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infeasible_losses_raise(self):
        # P = 600 + 0.01 P^2 has no real root: the chord iteration must give up
        gens = (GeneratorSpec(a=0.0, b=1.0, c=0.1, d0=600.0),)
        model = KronLossModel(np.array([[0.01]]), np.zeros(1), 0.0)
        system = DispatchSystem(gens=gens, loss=model, top=path_topology(1))
        with pytest.raises(StepFailure):
            solve_power(np.zeros(1), system)


class TestZDerivative:
    def test_zero_at_consensus(self):
        system = lossless_pair(split=(100.0, 100.0))
        state = make_state(0.0, np.zeros(2), system)
        dz = _z_dot(state_r(state, system), REF_PARAMS, None)
        assert np.array_equal(dz, np.zeros(2))

    def test_two_node_hand_case(self):
        # H*lam = (0, 1) on a unit edge, k1 = k2 = 1:
        # r = (1, -1), dz = -(sig(r)^0.5 + sig(r)^2) = (-2, 2)
        system = lossless_pair()
        state = SimulationState(
            t=0.0, z=np.zeros(2), P=np.array([0.0, 1.0]),
            lam=np.array([0.0, 1.0]), H=np.ones(2),
            cost=0.0, loss=0.0,
        )
        params = AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0)
        dz = _z_dot(state_r(state, system), params, None)
        assert dz == pytest.approx([-2.0, 2.0], abs=1e-15)

    def test_disturbance_none_equals_zero_vector(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        a = _z_dot(state_r(state, ref_system), REF_PARAMS, None)
        b = _z_dot(state_r(state, ref_system), REF_PARAMS, np.zeros(4))
        assert np.array_equal(a, b)

    def test_disturbance_adds(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        w = np.array([0.1, -0.2, 0.3, 0.0])
        a = _z_dot(state_r(state, ref_system), REF_PARAMS, None)
        b = _z_dot(state_r(state, ref_system), REF_PARAMS, w)
        assert b == pytest.approx(a + w, abs=1e-15)


class TestFusedOperators:
    """The integrator's one-call forms against the definitions they fuse:
    within 4 ulps, relative to the sum of the magnitudes of the terms
    (2 at most measured), or bit for bit where the arithmetic is the same."""

    ULPS = 4.0 * np.finfo(float).eps

    @pytest.fixture(params=["reference", "64 units"])
    def system(self, request, ref_system):
        return ref_system if request.param == "reference" else config_from_dict(ring_fleet_dict(64)).system()

    def samples(self, system):
        rng = np.random.default_rng(11)
        return [(rng.normal(scale=10.0, size=system.n), system.d0 * rng.uniform(0.5, 1.5, system.n))
                for _ in range(50)]

    def test_disagreement_is_adjacency_minus_degree(self, system):
        A = system.top.adjacency()
        deg = A.sum(axis=1)
        for x, _ in self.samples(system):
            scale = A @ np.abs(x) + deg * np.abs(x)
            assert np.all(np.abs(_disagreement(x, system) - (A @ x - deg * x)) <= self.ULPS * scale)

    def test_losses_and_own_gradient(self, system):
        m = system.loss
        for _, P in self.samples(system):
            losses = P * (m.B @ P) + P * m.B0 + m.B00 / m.n
            assert np.all(np.abs(m.generator_losses(P) - losses) <= self.ULPS * losses)
            own = m.B @ P + np.diag(m.B) * P + m.B0
            assert np.all(np.abs(m._own_gradient(P) - own) <= self.ULPS * own)
            # the power solve's folded residual term, losses less B00/N and less P
            folded = P * (m.B @ P) + P * m.B0 - P
            assert np.all(np.abs(m._losses_less_power(P) - folded) <= self.ULPS * (losses + P))

    def test_h_lambda(self, system):
        m = system.loss
        for _, P in self.samples(system):
            lam, H, hl = _h_lambda(P, system)
            assert np.array_equal(lam, marginal_costs(system.b_coef, system.c_coef, P))
            H_def = 1.0 + m.B @ P + np.diag(m.B) * P + m.B0
            assert np.all(np.abs(H - H_def) <= self.ULPS * H_def)
            assert np.all(np.abs(hl - H_def * lam) <= self.ULPS * H_def * lam)

    def test_cost_rows_are_total_cost(self, system):
        # run() and the monitors evaluate the cost from the system's stored
        # coefficients, bit for bit as total_cost and as its formula from
        # arrays rebuilt from the generators
        a, b, c = (np.array([getattr(g, k) for g in system.gens]) for k in "abc")
        res = run(system, dataclasses.replace(REF_PARAMS, t_end=0.02), stride=1)
        for P, cost in [*zip(res.trajectory.P, res.trajectory.cost), (res.terminal.P, res.terminal.cost)]:
            assert cost == total_cost(system.gens, P) == float(np.sum(c * P * P + b * P + a))


class TestStep:
    def test_stationary_at_exact_consensus(self):
        system = lossless_pair(split=(100.0, 100.0))
        state = make_state(0.0, np.zeros(2), system)
        nxt = step(state, system, REF_PARAMS)
        assert np.array_equal(nxt.z, state.z)
        assert nxt.P == pytest.approx(state.P, abs=1e-14)

    def test_near_stationary_at_solved_equilibrium(self, ref_system):
        state = make_state(0.0, equilibrium_z(ref_system), ref_system, params=REF_PARAMS)
        nxt = step(state, ref_system, REF_PARAMS)
        assert np.max(np.abs(nxt.z - state.z)) < 1e-5 * REF_PARAMS.dt / 1e-3

    def test_step_halving_fourth_order(self, ref_system):
        T = 0.05

        def terminal_z(dt):
            params = dataclasses.replace(REF_PARAMS, dt=dt, t_end=T)
            state = make_state(0.0, np.zeros(4), ref_system, params=params)
            for _ in range(int(round(T / dt))):
                state = step(state, ref_system, params)
            return state.z

        z_ref = terminal_z(1e-5)
        err_coarse = np.max(np.abs(terminal_z(1e-3) - z_ref))
        err_fine = np.max(np.abs(terminal_z(5e-4) - z_ref))
        assert 8.0 < err_coarse / err_fine < 32.0

    def test_balance_conserved_along_run(self, ref_system):
        params = dataclasses.replace(REF_PARAMS, t_end=2.0)
        res = run(ref_system, params, stride=1)
        drift = np.abs(res.trajectory.P.sum(axis=1) - ref_system.dbar - res.trajectory.loss)
        assert drift.max() <= 4.0 * params.fp_tol


def replay(system, params, disturbance, res, z0=None):
    """States at the row times of a stride-1 run, each advanced from the one
    before through the stepper's advance, of the kind it decides, over the
    width between their times. Each k1 is formed afresh at its state, so
    the k5 that run() takes as the next k1 is checked against it."""
    stepper = _Stepper(system, params, disturbance)
    z0 = np.zeros(system.n) if z0 is None else z0
    states = [make_state(0.0, z0, system, params=params)]
    for t_next in res.trajectory.t[1:]:
        s = states[-1]
        h = (s.lam, s.H, s.H * s.lam)
        r = _disagreement(h[2], system)
        k1 = _z_dot(r, params, stepper.w_at(s.t))
        out = stepper.advance(s.t, s.z, s.P, h, r, t_next - s.t, stepper.kind(r)[0], k1)
        states.append(_state(t_next, out.z, out.P, system))
    return states


def assert_rows_are_states(traj, states):
    assert np.array_equal(traj.t, [s.t for s in states])
    assert np.array_equal(traj.z, np.stack([s.z for s in states]))
    assert np.array_equal(traj.P, np.stack([s.P for s in states]))
    assert np.array_equal(traj.loss, [s.loss for s in states])
    assert np.array_equal(traj.cost, [s.cost for s in states])
    assert np.array_equal(traj.residual, [s.residual for s in states])


def assert_same_state(a, b):
    for f in dataclasses.fields(SimulationState):
        assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


class TestRunMatchesStep:
    """run() must reproduce its accepted steps, replayed through the advance
    it shares with step(), bit for bit."""

    @pytest.mark.parametrize("disturbance", [
        None,
        DisturbanceSpec(enabled=True, amplitude=0.5, seed=21),
    ], ids=["plain", "disturbed"])
    def test_rows_and_terminal_bit_identical(self, ref_system, disturbance):
        params = dataclasses.replace(REF_PARAMS, t_end=0.1)
        res = run(ref_system, params, disturbance=disturbance, stride=1)
        states = replay(ref_system, params, disturbance, res)
        assert_rows_are_states(res.trajectory, states)
        assert_same_state(res.terminal, states[-1])
        # error control varies the width, after rejected steps too, and lands on t_end
        assert res.rejected_steps > 0 and len(set(np.diff(res.trajectory.t))) > 10
        assert res.terminal.t == params.t_end and res.steps == len(states) - 1

    def test_rows_and_terminal_bit_identical_across_the_switch(self, ref_system):
        z0 = equilibrium_z(ref_system) + 0.03 * np.array([1.0, -1.0, 1.0, -1.0])
        params = dataclasses.replace(REF_PARAMS, t_end=0.15)
        res = run(ref_system, params, z0=z0, stride=1)
        states = replay(ref_system, params, None, res, z0=z0)
        assert_rows_are_states(res.trajectory, states)
        assert_same_state(res.terminal, states[-1])
        k = next(k for k, s in enumerate(states) if implicit_at(s, ref_system, params))
        assert 0 < k < len(states) - 1
        assert res.switch_time == states[k].t
        # implicit steps from there on have width dt and are public step(),
        # but for the last one, cut at t_end
        assert res.trajectory.t[-2] + params.dt > params.t_end
        for j in range(k, len(states) - 2):
            assert_same_state(step(states[j], ref_system, params), states[j + 1])

    def test_settling_rows_and_time(self):
        system = lossless_pair(split=(110.0, 90.0))
        params = dataclasses.replace(REF_PARAMS, t_end=5.0, settle_window=0.05)
        res = run(system, params, stride=1)
        states = replay(system, params, None, res)
        assert_rows_are_states(res.trajectory, states)
        assert res.settled
        # the window opens at the first state of the last run below settle_tol
        # and closes when its width has passed
        below = [s.residual < params.settle_tol for s in states]
        first = max(k for k, b in enumerate(below) if not b) + 1
        assert res.settle_time == states[first].t
        assert states[-1].t == states[first].t + params.settle_window
        # undisturbed, each implicit window step doubles the width of the one
        # before; on this low-gain pair the window opens under RK4
        implicit = [implicit_at(s, system, params) for s in states]
        j = implicit.index(True, first)
        assert j > first and all(implicit[j:-1])
        widths = np.diff(res.trajectory.t[j:])
        assert widths[:-1] == pytest.approx(params.dt * 2.0 ** np.arange(len(widths) - 1), rel=1e-9)
        assert 0.0 < widths[-1] <= 2.0 ** (len(widths) - 1) * params.dt
        stride = 7
        strided = run(system, params, stride=stride)
        last = len(states) - 1
        emitted = list(range(0, last + 1, stride)) + ([last] if last % stride else [])
        assert_rows_are_states(strided.trajectory, [states[k] for k in emitted])
        assert_same_state(strided.terminal, states[last])
        assert (strided.settle_time, strided.steps) == (res.settle_time, res.steps)


def symmetric_lossy_pair():
    gens = tuple(GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=100.0, d0=100.0) for _ in range(2))
    model = KronLossModel(np.array([[1e-4, 2e-5], [2e-5, 1e-4]]), np.full(2, 1e-3), 1.0)
    return DispatchSystem(gens=gens, loss=model, top=path_topology(2))


def implicit_step(system, params, disturbance=None):
    """The implicit advance over width dt as a function of a state, returning
    (z', P', Newton iterations): its (P, (lam, H, H lam), r) start the step."""
    stepper = _Stepper(system, params, disturbance)

    def advance(s):
        z, P, _ = stepper.implicit(s.t, s.z, s.P, (s.lam, s.H, s.H * s.lam), state_r(s, system), params.dt)
        return z, P, stepper.newton_iters[-1]
    return advance


class TestImplicitStep:
    @pytest.mark.parametrize("system", [lossless_pair(), symmetric_lossy_pair()], ids=["lossless", "lossy"])
    def test_exact_consensus_is_a_fixed_point(self, system):
        state = make_state(0.0, np.array([0.5, 0.5]), system, params=REF_PARAMS)
        assert state.residual == 0.0
        z, P, iters = implicit_step(system, REF_PARAMS)(state)
        assert np.array_equal(z, state.z)
        assert iters == 0

    @pytest.mark.parametrize("weight, k1, mu", [
        (1.0, 5.0, 0.5), (1.0, 50.0, 0.2), (3.0, 5.0, 0.35), (0.3, 50.0, 0.65),
    ], ids=["reference", "k1=50,mu=0.2", "weights*3,mu=0.35", "weights*0.3,k1=50,mu=0.65"])
    def test_rk4_floor_lies_below_the_switch(self, ref_system, weight, k1, mu):
        # RK4 at width dt started at consensus climbs to its chatter floor and
        # stays there; the steps turn implicit 2.7 to 4.1 times above it here,
        # and at least 2.5 times for every c(mu) in _CHATTER_WIDTH's comment
        # (the cap on RK4's width, not this margin, keeps wider steps off it)
        top = LocalTopology(4, [(i, i + 1, weight) for i in range(3)])
        system = DispatchSystem(gens=ref_system.gens, loss=ref_system.loss, top=top)
        params = dataclasses.replace(REF_PARAMS, k1=k1, mu=mu)
        advance = _Stepper(system, params, None).rk4
        state = make_state(0.0, equilibrium_z(system), system, params=params)
        floor = []
        for k in range(400):
            dz = _z_dot(state_r(state, system), params, None)
            z, P = advance(state.t, state.z, state.P, dz, params.dt)[:2]
            state = _state(state.t + params.dt, z, P, system)
            if k >= 200:
                floor.append(state)
        r_floor = [disagreement(s, system) for s in floor]
        assert 0.0 < max(r_floor)
        assert _chatter_width(system, params, 2.5 * max(r_floor)) < params.dt
        if (weight, k1, mu) == (1.0, 5.0, 0.5):
            dt2 = params.dt ** 2
            assert min(s.residual for s in floor) > params.settle_tol
            assert max(s.residual for s in floor) == pytest.approx(3.15 * dt2, rel=0.01)

    @pytest.mark.parametrize("k1, mu", [(50.0, 0.2), (20.0, 0.35)])
    def test_other_gains_and_exponents_reach_consensus(self, ref_system, k1, mu):
        params = dataclasses.replace(REF_PARAMS, k1=k1, mu=mu, t_end=3.0)
        res = run(ref_system, params)
        assert res.settled and res.switch_time < res.settle_time
        assert res.terminal.residual < 1e-12

    def test_reference_case_reaches_the_equilibrium_at_the_shipped_dt(self, ref_system):
        params = dataclasses.replace(REF_PARAMS, t_end=10.0)
        res = run(ref_system, params)
        sol = solve_equilibrium(ref_system.gens, ref_system.loss, REF_DEMAND)
        assert res.settled and 5.0 <= res.settle_time <= 5.02
        assert res.terminal.residual < 1e-12
        assert np.max(np.abs(res.terminal.P - sol.P_star)) < 1e-9
        assert (res.steps, res.rejected_steps) == (246, 3)
        assert res.switch_time < res.settle_time
        mean_iters, max_iters = res.implicit_newton_iters
        assert 0.0 < mean_iters <= max_iters <= 10

    def test_newton_non_convergence_raises(self, ref_system, monkeypatch):
        z = equilibrium_z(ref_system) + 1e-5 * np.array([1.0, -1.0, 1.0, -1.0])
        state = make_state(0.0, z, ref_system, params=REF_PARAMS)
        assert implicit_at(state, ref_system, REF_PARAMS)
        step_fn = implicit_step(ref_system, REF_PARAMS)
        assert step_fn(state)[2] > 0  # converges as is
        # a Newton update that never moves
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (np.zeros_like(b), None, 0, None))
        with pytest.raises(StepFailure, match="50 Newton iterations"):
            step_fn(state)
        with pytest.raises(StepFailure):
            step(state, ref_system, REF_PARAMS)


def calls_per_try(ref_system, monkeypatch, names):
    """Run the reference case to t = 5.2 s, through rejected RK4 tries and the
    switch to implicit steps, and return per try of the advance but the last,
    in order, its start time, its kind ("rk4" or "implicit"), whether it was
    accepted, and how often it called each of the dynamics functions named."""
    counts = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(dynamics, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(dynamics, name, counted(name))
    entries = []  # the counts when each try starts, its start time and kind
    real_advance = dynamics._Stepper.advance

    def counting_advance(self, t, z, P, h, r, dt, implicit, k1):
        start = dict(counts)
        out = real_advance(self, t, z, P, h, r, dt, implicit, k1)
        entries.append((start, t, "implicit" if implicit else "rk4"))
        return out

    monkeypatch.setattr(dynamics._Stepper, "advance", counting_advance)
    res = run(ref_system, dataclasses.replace(REF_PARAMS, t_end=5.2))
    assert len(entries) == res.steps + res.rejected_steps
    assert res.rejected_steps > 0 and 4.9 < res.switch_time < 5.0
    # a rejected try is retried from where it started
    return [(t, kind, t_next != t, tuple(end[name] - start[name] for name in names))
            for (start, t, kind), (end, t_next, _) in zip(entries, entries[1:])]


class TestWorkPerStep:
    def test_one_power_solve_and_one_h_lambda_per_stage(self, ref_system, monkeypatch):
        # stage 1 of an RK4 step is the state the step starts from, so an RK4
        # step, accepted or rejected, solves P at its three later stages and at
        # its end; an implicit step solves once, and each solved P gets one H lam
        tries = calls_per_try(ref_system, monkeypatch, ("_solve_power", "_h_lambda"))
        per_step = {}
        for _, kind, accepted, calls in tries:
            per_step.setdefault((kind, "accepted" if accepted else "rejected"), set()).add(calls)
        assert per_step == {("rk4", "accepted"): {(4, 4)}, ("rk4", "rejected"): {(4, 4)},
                            ("implicit", "accepted"): {(1, 1)}}

    def test_four_z_dot_per_rk4_try(self, ref_system, monkeypatch):
        # dz/dt at the three later stages and k5 at the end, which the tries
        # from there take as their k1; run() forms the k1 at t = 0 before its
        # first try (rejected here), and an implicit step forms only its k5
        tries = calls_per_try(ref_system, monkeypatch, ("_z_dot",))
        assert len([t for t, _, _, _ in tries if t == 0.0]) == 2
        rk4 = [calls for _, kind, _, calls in tries if kind == "rk4"]
        assert len(rk4) > 200 and set(rk4) == {(4,)}
        assert {calls for _, kind, _, calls in tries if kind == "implicit"} == {(1,)}

    def test_at_most_three_loss_evaluations_per_power_solve(self, ref_system, monkeypatch):
        # the chord iteration needs about 2.5; the plain fixed-point sweep needed
        # about 6. Each solve is recounted by the unfolded chord loop from the
        # same start: g = -L z + d0 + generator_losses(P), P <- P + A (g - P)
        recount = []
        real = dynamics._solve_power

        def recounting(z, system, P, A, fp_tol, fp_max_iter):
            base = -laplacian(system.top) @ z + system.d0
            x = P
            for evals in range(1, fp_max_iter + 1):
                d = base + system.loss.generator_losses(x) - x
                if np.abs(d).max() < fp_tol:
                    break
                x = x + A @ d
            recount.append(evals)
            return real(z, system, P, A, fp_tol, fp_max_iter)

        monkeypatch.setattr(dynamics, "_solve_power", recounting)
        res = run(ref_system, dataclasses.replace(REF_PARAMS, t_end=5.2))
        mean = sum(recount) / len(recount)
        assert mean <= 3.0
        assert res.power_solve_iters == (pytest.approx(mean, rel=1e-12), max(recount))

    @pytest.mark.parametrize("mu, expected", [
        (0.5, [(5.0089910775, 4.9839910775, 246, 5.0075), (4.6916834404, 4.6666834404, 224, 4.69025),
               (5.6795236420, 5.6555236420, 277, 5.67875)]),
        (0.2, [(3.3775342763, 3.3595342763, 421, 3.376), (3.0503935896, 3.0323935896, 400, 3.049),
               (4.0782828235, 4.0612828235, 461, 4.07725)]),
    ])
    def test_verdicts_of_the_demand_splits(self, ref_system, mu, expected):
        # criterion 4's splits at the shipped dt: (settle_time, switch_time,
        # steps), and the settle time of a fixed-step run at dt = 2.5e-4
        params = dataclasses.replace(REF_PARAMS, mu=mu, t_end=20.0)
        splits = [(170.0, 110.0, 140.0, 180.0), (150.0, 150.0, 150.0, 150.0), (300.0, 100.0, 100.0, 100.0)]
        window_steps = int(np.ceil(np.log2(params.settle_window / params.dt + 1.0)))
        for shares, (settle_time, switch_time, steps, fine_settle_time) in zip(splits, expected):
            gens = tuple(dataclasses.replace(g, p0=s, d0=s) for g, s in zip(ref_system.gens, shares))
            res = run(DispatchSystem(gens=gens, loss=ref_system.loss, top=ref_system.top), params, stride=1)
            assert res.settled
            assert res.settle_time == pytest.approx(settle_time, abs=1e-9)
            assert res.switch_time == pytest.approx(switch_time, abs=1e-9)
            assert res.steps == steps
            assert abs(res.settle_time - fine_settle_time) < 0.01
            assert np.abs(res.terminal.P - FINE_TERMINAL).max() < 1e-9
            # the widths of the settle window's steps double: ten steps confirm one second
            assert np.count_nonzero(res.trajectory.t > res.settle_time) == window_steps == 10

    def test_verdict_at_mu_02_and_k1_20(self, ref_system):
        res = run(ref_system, dataclasses.replace(REF_PARAMS, mu=0.2, k1=20.0, t_end=20.0))
        assert res.settled
        assert abs(res.settle_time - 1.21975) < 0.01  # fixed step at dt = 2.5e-4
        assert np.abs(res.terminal.P - FINE_TERMINAL).max() < 1e-9


def disturbances_added(system, disturbance, monkeypatch):
    """The w passed to _z_dot over a run to t = 0.05 s, in order."""
    seen = []
    real = dynamics._z_dot

    def recording(r, params, w):
        seen.append(w)
        return real(r, params, w)

    monkeypatch.setattr(dynamics, "_z_dot", recording)
    run(system, dataclasses.replace(REF_PARAMS, t_end=0.05), disturbance=disturbance)
    return seen


class TestDisturbance:
    # a quiet run has no w(t) and adds nothing to dz/dt, not even zeros
    def test_disabled_gives_zero(self, ref_system, monkeypatch):
        assert _disturbance_fn(DisturbanceSpec(), 4)(1.0) is None
        seen = disturbances_added(ref_system, None, monkeypatch)
        assert seen and all(w is None for w in seen)

    def test_zero_amplitude_gives_zero(self, ref_system, monkeypatch):
        spec = DisturbanceSpec(enabled=True, amplitude=0.0, seed=3)
        assert _disturbance_fn(spec, 4)(1.0) is None
        seen = disturbances_added(ref_system, spec, monkeypatch)
        assert seen and all(w is None for w in seen)

    def test_bounded(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        w_at = _disturbance_fn(spec, 4)
        for t in np.linspace(0.0, 200.0, 500):
            assert np.max(np.abs(w_at(t))) <= 0.5

    def test_near_zero_mean_over_horizon(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        t = np.linspace(0.0, 200.0, 200_001)
        w = _disturbance_fn(spec, 4)(t[:, None])  # w broadcasts over a column of times
        assert w.shape == (t.size, 4)
        assert np.max(np.abs(w.mean(axis=0))) < 0.005

    def test_seed_determinism(self):
        a = _disturbance_fn(DisturbanceSpec(enabled=True, amplitude=0.5, seed=9), 4)(3.3)
        b = _disturbance_fn(DisturbanceSpec(enabled=True, amplitude=0.5, seed=9), 4)(3.3)
        c = _disturbance_fn(DisturbanceSpec(enabled=True, amplitude=0.5, seed=10), 4)(3.3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(enabled=True, amplitude=-0.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(kind="square")


class TestRun:
    def test_rejects_zero_stride(self, ref_system):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            run(ref_system, REF_PARAMS, stride=0)

    def test_zero_horizon_single_row(self, ref_system):
        params = dataclasses.replace(REF_PARAMS, t_end=0.0)
        res = run(ref_system, params)
        assert res.trajectory.t.shape == (1,)
        assert res.trajectory.t[0] == 0.0
        assert not res.settled

    def test_lossless_identical_pair_equal_split(self):
        system = lossless_pair(split=(150.0, 50.0))
        params = dataclasses.replace(REF_PARAMS, dt=2.5e-4, t_end=30.0)
        res = run(system, params)
        assert res.settled
        assert res.terminal.P == pytest.approx([100.0, 100.0], abs=1e-6)

    def test_terminal_independent_of_demand_split(self, ref_model, ref_top):
        def system_for(shares):
            gens = tuple(
                GeneratorSpec(a=a, b=b, c=c, p0=d, d0=d)
                for (a, b, c), d in zip(
                    [(53.0, 1.21, 0.094), (34.0, 3.47, 0.082), (45.0, 2.24, 0.086), (78.0, 2.55, 0.105)],
                    shares,
                )
            )
            return DispatchSystem(gens=gens, loss=ref_model, top=ref_top)

        params = dataclasses.replace(REF_PARAMS, t_end=20.0)
        a = run(system_for([170.0, 110.0, 140.0, 180.0]), params)
        b = run(system_for([150.0, 150.0, 150.0, 150.0]), params)
        assert np.max(np.abs(a.terminal.P - b.terminal.P)) < 1e-3

    @pytest.mark.parametrize("mu, k1", [(0.2, None), (0.5, None), (0.2, 20.0)], ids=["0.2", "0.5", "0.2,k1=20"])
    @pytest.mark.parametrize("dt", [0.1, 0.2])
    def test_wide_dt_settles(self, mu, k1, dt):
        # RK4 capped at _chatter_width carries the run until the implicit steps
        # of width dt take over; were every step implicit from t = 0, Newton
        # would fail at t = dt for mu = 0.2. At mu = 0.2, k1 = 20 and dt = 0.2
        # the implicit steps of width dt fail in Newton; each is retried at
        # half its width, and the run settles
        config = load_config(str(REF_CONFIG))
        params = dataclasses.replace(config.params, mu=mu, dt=dt, t_end=20.0)
        res = run(config.system(), params if k1 is None else dataclasses.replace(params, k1=k1))
        assert res.status == "ok" and res.settled
        assert np.abs(res.terminal.P - FINE_TERMINAL).max() < 1e-9

    def test_one_generator_raises(self):
        # the loop gain of one generator is 0, and _chatter_width divides by it
        gens = (GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=100.0, d0=100.0),)
        system = DispatchSystem(gens=gens, loss=KronLossModel(np.zeros((1, 1)), np.zeros(1), 0.0),
                                top=path_topology(1))
        state = make_state(0.0, np.zeros(1), system)
        assert state.P.tolist() == [100.0]
        with pytest.raises(ValueError, match="loop gain is 0: no generator has a linked neighbour"):
            run(system, REF_PARAMS)
        with pytest.raises(ValueError, match="loop gain is 0: no generator has a linked neighbour"):
            step(state, system, REF_PARAMS)

    def test_verdicts_follow_their_evidence(self, ref_system):
        res = run(ref_system, dataclasses.replace(REF_PARAMS, t_end=0.1))
        assert (res.status, res.settled, res.negative_power_seen) == ("ok", False, False)
        assert dataclasses.replace(res, fail_step=3).status == "step_failure"
        settled = dataclasses.replace(res, settle_time=0.05)
        assert settled.settled is True and dataclasses.replace(settled, settle_time=None).settled is False
        flipped = dataclasses.replace(res.trajectory, P=-res.trajectory.P)
        assert dataclasses.replace(res, trajectory=flipped).negative_power_seen is True
        term = res.terminal
        assert term.total_power == float(term.P.sum())
        assert term.residual == _residual(term.H * term.lam)

    def test_settled_run_reports_window_start(self, ref_system):
        params = dataclasses.replace(REF_PARAMS, dt=2.5e-4, t_end=20.0)
        res = run(ref_system, params)
        assert res.settled
        assert 0.0 < res.settle_time < 20.0
        # the residual at the terminal state stays below the threshold
        assert res.terminal.residual < params.settle_tol

    def test_run_from_consensus_settles_at_once(self, ref_system):
        # from the terminal z of a settled run the window opens at t = 0, and
        # implicit steps that double from dt confirm it at settle_window
        params = dataclasses.replace(REF_PARAMS, t_end=20.0)
        settled = run(ref_system, params)
        assert settled.settled
        res = run(ref_system, params, z0=settled.terminal.z, stride=1)
        assert (res.status, res.settled, res.settle_time, res.switch_time) == ("ok", True, 0.0, 0.0)
        assert (res.steps, res.rejected_steps) == (10, 0)
        rows = [0.0] + [(2**k - 1) * params.dt for k in range(1, 10)] + [params.settle_window]
        assert res.trajectory.t == pytest.approx(rows, rel=0.0, abs=1e-15)


class TestErrorControl:
    #: P(0.5 s) on the reference case with criterion 4's demand splits and
    #: the shipped gains and their doubling, from fixed-step runs at dt = 1e-5
    FINE_P_HALF = [
        ((170.0, 110.0, 140.0, 180.0), 5.0, [152.7682570981298, 166.37239572094478, 175.28209370556417, 147.6393313900383]),
        ((170.0, 110.0, 140.0, 180.0), 10.0, [156.8514902779828, 168.3208826035722, 172.8872141029812, 143.59601949813782]),
        ((150.0, 150.0, 150.0, 150.0), 5.0, [155.62368661909863, 167.7057653910884, 173.5990690618002, 144.84975146882437]),
        ((150.0, 150.0, 150.0, 150.0), 10.0, [158.58165129520236, 169.13044545008506, 171.88346555402077, 141.89178550128798]),
        ((300.0, 100.0, 100.0, 100.0), 5.0, [189.0506053411539, 183.15069777470387, 154.8127518106482, 111.83571310828609]),
        ((300.0, 100.0, 100.0, 100.0), 10.0, [178.70988674407099, 178.09615831974344, 160.80571016759387, 122.0722847404772]),
    ]

    @pytest.mark.parametrize("shares, gain, fine", FINE_P_HALF)
    def test_transient_matches_a_fine_fixed_step_run(self, ref_system, shares, gain, fine):
        # RK4 at the fixed shipped dt was 3.6e-3 MW off on the last split at gain 10
        gens = tuple(dataclasses.replace(g, p0=s, d0=s) for g, s in zip(ref_system.gens, shares))
        system = DispatchSystem(gens=gens, loss=ref_system.loss, top=ref_system.top)
        res = run(system, dataclasses.replace(REF_PARAMS, k1=gain, k2=gain, t_end=0.5))
        assert res.terminal.t == 0.5
        assert np.abs(res.terminal.P - fine).max() < 1e-3

    def test_zero_error_estimate_grows_the_width_the_most(self):
        assert _width_scale(0.0) == _GROWTH

    def test_far_initial_state_runs_without_warnings(self, ref_system):
        # the first RK4 step of width dt fails in its power solve; it is rejected, not fatal
        params = dataclasses.replace(REF_PARAMS, t_end=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(ref_system, params, z0=100.0 * np.array([1.0, -1.0, 1.0, -1.0]))
        assert res.status == "ok" and res.settled
        assert res.rejected_steps > 0
        assert np.max(np.abs(res.terminal.P - FINE_TERMINAL)) < 1e-9

    def test_failed_stage_names_its_step(self, ref_system):
        state = make_state(0.0, 100.0 * np.array([1.0, -1.0, 1.0, -1.0]), ref_system, params=REF_PARAMS)
        advance = _Stepper(ref_system, REF_PARAMS, None).rk4
        k1 = _z_dot(state_r(state, ref_system), REF_PARAMS, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match=r"RK4 stage \d at t = 0 s, width 0.001 s: power solve did not "
                                                  r"converge; the largest own-loss gradient at its warm start is \d"):
                advance(0.0, state.z, state.P, k1, REF_PARAMS.dt)

    def test_diverging_power_solve_stops_before_overflow(self, ref_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match="own-loss gradient at its warm start is 0.0992"):
                solve_power(1e6 * np.array([1.0, -1.0, 1.0, -1.0]), ref_system)

    def test_a_step_failing_at_every_width_ends_the_run(self, ref_system, monkeypatch):
        real = dynamics._solve_power
        z0 = np.zeros(4)

        def only_at_z0(z, *args):
            if not np.array_equal(z, z0):
                raise StepFailure("refused")
            return real(z, *args)

        monkeypatch.setattr(dynamics, "_solve_power", only_at_z0)
        res = run(ref_system, REF_PARAMS)
        # widths dt, dt/4, ..., dt/4^9 are rejected; dt/4^10 is below 1e-6 dt
        assert (res.status, res.fail_step, res.steps, res.rejected_steps) == ("step_failure", 0, 0, 10)
        assert res.trajectory.t.tolist() == [0.0] and res.terminal.t == 0.0

    @staticmethod
    def refuse_one_implicit_step(monkeypatch, refuse):
        """Patch the implicit step to raise StepFailure once, on the first try
        for which refuse(width, earlier tries) holds; return the (t, width)
        of every implicit step tried, in order."""
        real = dynamics._Stepper.implicit
        tries = []

        def refusing(self, t, z, P, h, r, dt):
            tries.append((t, dt))
            if refuse(dt, tries[:-1]):
                raise StepFailure("refused")
            return real(self, t, z, P, h, r, dt)

        monkeypatch.setattr(dynamics._Stepper, "implicit", refusing)
        return tries

    def test_failed_widened_window_step_is_retried_at_dt(self, ref_system, monkeypatch):
        params = dataclasses.replace(REF_PARAMS, t_end=10.0)
        plain = run(ref_system, params)
        wide = 1.5 * params.dt  # above dt and its roundoff in t + dt - t
        tries = self.refuse_one_implicit_step(
            monkeypatch, lambda dt, before: dt > wide and all(w <= wide for _, w in before))
        res = run(ref_system, params)
        k = next(k for k, (_, w) in enumerate(tries) if w > wide)
        assert tries[k][1] == pytest.approx(2.0 * params.dt, rel=1e-9)
        # retried at half its width, then widened again
        assert tries[k + 1][0] == tries[k][0] and tries[k + 1][1] == pytest.approx(params.dt, rel=1e-9)
        assert tries[k + 2][1] == pytest.approx(2.0 * params.dt, rel=1e-9)
        assert res.rejected_steps == plain.rejected_steps + 1
        assert res.settled and res.settle_time == plain.settle_time
        assert res.terminal.t == res.settle_time + params.settle_window

    def test_failed_implicit_step_is_retried_at_half_its_width(self, ref_system, monkeypatch):
        params = dataclasses.replace(REF_PARAMS, t_end=10.0)
        plain = run(ref_system, params)
        tries = self.refuse_one_implicit_step(monkeypatch, lambda dt, before: not before)
        res = run(ref_system, params)
        (t0, w0), (t1, w1), (t2, w2) = tries[:3]
        assert w0 == pytest.approx(params.dt, rel=1e-9) and t0 == plain.switch_time
        # the refused step is retried from where it started at half its width,
        # and the step after that has width dt again
        assert t1 == t0 and w1 == pytest.approx(params.dt / 2.0, rel=1e-9)
        assert t2 == t1 + w1 and w2 == pytest.approx(params.dt, rel=1e-9)
        assert res.status == "ok" and res.rejected_steps == plain.rejected_steps + 1
        assert res.switch_time == plain.switch_time
        assert res.settled and abs(res.settle_time - plain.settle_time) < 0.01
        assert np.abs(res.terminal.P - FINE_TERMINAL).max() < 1e-9

    def test_golden_run_keeps_criteria_3_and_8_at_every_accepted_step(self):
        config = load_config(str(REF_CONFIG))
        system = config.system()
        eq = solve_equilibrium(config.generators, config.loss, system.dbar)
        res = run(system, config.params, c_star=eq.cost_star, stride=1)
        traj = res.trajectory
        assert res.settled and len(traj.t) == res.steps + 1
        drift = np.abs(traj.P.sum(axis=1) - system.dbar - traj.loss)
        assert drift.max() <= 4e-10
        assert np.diff(traj.V[traj.t >= 0.1]).max() <= 1e-9


class TestLyapunov:
    PARAMS = dataclasses.replace(REF_PARAMS, t_end=0.05)

    def test_zero_at_optimum(self, ref_system):
        # c_star defaults to the terminal cost, so V is 0 at the terminal row
        res = run(ref_system, self.PARAMS, stride=10)
        assert res.trajectory.t[-1] == res.terminal.t
        assert res.c_star == res.terminal.cost
        assert res.trajectory.V[-1] == 0.0
        assert np.array_equal(res.trajectory.V, 0.5 * (res.trajectory.cost - res.c_star) ** 2)

    def test_cost_gap_two(self, ref_system):
        c0 = make_state(0.0, np.zeros(4), ref_system).cost
        res = run(ref_system, self.PARAMS, c_star=c0 - 2.0, stride=10)
        assert np.array_equal(res.trajectory.V, 0.5 * (res.trajectory.cost - (c0 - 2.0)) ** 2)
        assert res.trajectory.V[0] == pytest.approx(2.0)
