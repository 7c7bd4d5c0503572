import dataclasses

import numpy as np
import pytest

from fxdispatch import (
    AlgorithmParams,
    DispatchSystem,
    DisturbanceSpec,
    GeneratorSpec,
    KronLossModel,
    SimulationState,
    StepFailure,
    path_topology,
    run,
    sig_pow,
    solve_power,
    solve_equilibrium,
    step,
)
from fxdispatch.dynamics import (
    _disagreement,
    _disturbance_fn,
    _h_lambda,
    _implicit,
    _residual,
    _rk4,
    _state,
    _switch_level,
    _z_dot,
    make_state,
)
from fxdispatch.topology import laplacian
from tests.conftest import REF_DEMAND, REF_P0

REF_PARAMS = AlgorithmParams(k1=5.0, k2=5.0, mu=0.5, nu=2.0)


def lossless_pair(d=100.0, split=(100.0, 100.0)):
    gens = tuple(GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=s, d0=s) for s in split)
    model = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
    return DispatchSystem(gens=gens, loss=model, top=path_topology(2))


def disagreement(state, system):
    """max |r| at a state, the quantity the implicit switch is decided on."""
    return float(np.abs(_disagreement(state.H * state.lam, system)).max())


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
        cons = system.adjacency @ z - system.degree * z
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infeasible_losses_raise(self):
        # P = 600 + 0.01 P^2 has no real root: both solvers must give up
        gens = (GeneratorSpec(a=0.0, b=1.0, c=0.1, d0=600.0),)
        model = KronLossModel(np.array([[0.01]]), np.zeros(1), 0.0)
        system = DispatchSystem(gens=gens, loss=model, top=path_topology(1))
        with pytest.raises(StepFailure):
            solve_power(np.zeros(1), system)


class TestZDerivative:
    def test_zero_at_consensus(self):
        system = lossless_pair(split=(100.0, 100.0))
        state = make_state(0.0, np.zeros(2), system)
        dz = _z_dot(state.H * state.lam, system, REF_PARAMS, None)
        assert np.array_equal(dz, np.zeros(2))

    def test_two_node_hand_case(self):
        # H*lam = (0, 1) on a unit edge, k1 = k2 = 1:
        # r = (1, -1), dz = -(sig(r)^0.5 + sig(r)^2) = (-2, 2)
        system = lossless_pair()
        state = SimulationState(
            t=0.0, z=np.zeros(2), P=np.array([0.0, 1.0]),
            lam=np.array([0.0, 1.0]), H=np.ones(2),
            cost=0.0, loss=0.0, total_power=1.0, residual=0.5,
        )
        params = AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0)
        dz = _z_dot(state.H * state.lam, system, params, None)
        assert dz == pytest.approx([-2.0, 2.0], abs=1e-15)

    def test_disturbance_none_equals_zero_vector(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        a = _z_dot(state.H * state.lam, ref_system, REF_PARAMS, None)
        b = _z_dot(state.H * state.lam, ref_system, REF_PARAMS, np.zeros(4))
        assert np.array_equal(a, b)

    def test_disturbance_adds(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        w = np.array([0.1, -0.2, 0.3, 0.0])
        a = _z_dot(state.H * state.lam, ref_system, REF_PARAMS, None)
        b = _z_dot(state.H * state.lam, ref_system, REF_PARAMS, w)
        assert b == pytest.approx(a + w, abs=1e-15)


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


def step_loop(system, params, disturbance, nsteps, z0=None):
    """States 0..nsteps from public step() calls, starting at z0 (default 0)."""
    z0 = np.zeros(system.n) if z0 is None else z0
    states = [make_state(0.0, z0, system, params=params)]
    for _ in range(nsteps):
        states.append(step(states[-1], system, params, disturbance))
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
    """run() must reproduce public step() calls bit for bit."""

    @pytest.mark.parametrize("disturbance, fp_max_iter", [
        (None, 200),
        (DisturbanceSpec(enabled=True, amplitude=0.5, seed=21), 200),
        # one fixed-point sweep: every solve that does not start converged
        # finishes on the Newton fallback
        (None, 1),
    ], ids=["plain", "disturbed", "newton"])
    def test_rows_and_terminal_bit_identical(self, ref_system, disturbance, fp_max_iter):
        params = dataclasses.replace(REF_PARAMS, t_end=0.1, fp_max_iter=fp_max_iter)
        res = run(ref_system, params, disturbance=disturbance, stride=1)
        states = step_loop(ref_system, params, disturbance, 100)
        assert_rows_are_states(res.trajectory, states)
        assert_same_state(res.terminal, states[-1])

    def test_rows_and_terminal_bit_identical_across_the_switch(self, ref_system):
        # from near consensus RK4 takes the first 76 steps, the implicit step the rest
        z0 = equilibrium_z(ref_system) + 0.03 * np.array([1.0, -1.0, 1.0, -1.0])
        params = dataclasses.replace(REF_PARAMS, t_end=0.15)
        res = run(ref_system, params, z0=z0, stride=1)
        states = step_loop(ref_system, params, None, 150, z0=z0)
        assert res.switch_time == states[76].t
        level = _switch_level(ref_system, params)
        assert disagreement(states[75], ref_system) >= level > disagreement(states[76], ref_system)
        assert_rows_are_states(res.trajectory, states)
        assert_same_state(res.terminal, states[-1])

    def test_settling_rows_and_time(self):
        system = lossless_pair(split=(110.0, 90.0))
        params = dataclasses.replace(REF_PARAMS, t_end=5.0, settle_window=0.05)
        window = int(round(params.settle_window / params.dt))
        stride = 7
        res = run(system, params, stride=stride)
        states = step_loop(system, params, None, 1500)
        below = np.array([s.residual < params.settle_tol for s in states])
        # first index that opens window + 1 consecutive states below settle_tol
        first = next(k for k in range(len(states) - window) if below[k:k + window + 1].all())
        last = first + window
        assert res.settled
        assert res.settle_time == first * params.dt
        emitted = list(range(0, last + 1, stride)) + ([last] if last % stride else [])
        assert_rows_are_states(res.trajectory, [states[k] for k in emitted])
        assert_same_state(res.terminal, states[last])


def symmetric_lossy_pair():
    gens = tuple(GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=100.0, d0=100.0) for _ in range(2))
    model = KronLossModel(np.array([[1e-4, 2e-5], [2e-5, 1e-4]]), np.full(2, 1e-3), 1.0)
    return DispatchSystem(gens=gens, loss=model, top=path_topology(2))


def implicit_step(system, params, disturbance=None):
    return _implicit(system, params, _disturbance_fn(disturbance or DisturbanceSpec(), system.n))


class TestImplicitStep:
    @pytest.mark.parametrize("system", [lossless_pair(), symmetric_lossy_pair()], ids=["lossless", "lossy"])
    def test_exact_consensus_is_a_fixed_point(self, system):
        state = make_state(0.0, np.array([0.5, 0.5]), system, params=REF_PARAMS)
        assert state.residual == 0.0
        t, z, P, iters = implicit_step(system, REF_PARAMS)(state.t, state.z, state.P)
        assert np.array_equal(z, state.z)
        assert iters == 0

    @pytest.mark.parametrize("weight, k1, mu", [
        (1.0, 5.0, 0.5), (1.0, 50.0, 0.2), (3.0, 5.0, 0.35), (0.3, 50.0, 0.65),
    ], ids=["reference", "k1=50,mu=0.2", "weights*3,mu=0.35", "weights*0.3,k1=50,mu=0.65"])
    def test_rk4_floor_lies_below_the_switch(self, ref_system, weight, k1, mu):
        # RK4 started at consensus climbs to its chatter floor and stays there
        system = DispatchSystem(gens=ref_system.gens, loss=ref_system.loss, top=path_topology(4, weight))
        params = dataclasses.replace(REF_PARAMS, k1=k1, mu=mu)
        advance = _rk4(system, params, _disturbance_fn(DisturbanceSpec(), 4))
        state = make_state(0.0, equilibrium_z(system), system, params=params)
        floor = []
        for k in range(400):
            state = _state(*advance(state.t, state.z, state.P), system)
            if k >= 200:
                floor.append(state)
        r_floor = [disagreement(s, system) for s in floor]
        assert 0.0 < max(r_floor) < _switch_level(system, params) / 10.0
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
        assert res.steps == 6009
        assert res.switch_time < res.settle_time
        mean_iters, max_iters = res.implicit_newton_iters
        assert 0.0 < mean_iters <= max_iters <= 10

    def test_newton_non_convergence_raises(self, ref_system, monkeypatch):
        z = equilibrium_z(ref_system) + 3e-5 * np.array([1.0, -1.0, 1.0, -1.0])
        state = make_state(0.0, z, ref_system, params=REF_PARAMS)
        assert disagreement(state, ref_system) < _switch_level(ref_system, REF_PARAMS)
        step_fn = implicit_step(ref_system, REF_PARAMS)
        assert step_fn(state.t, state.z, state.P)[3] > 0  # converges as is
        # a Newton update that never moves
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond=None: (np.zeros_like(b), None, 0, None))
        with pytest.raises(StepFailure, match="50 Newton iterations"):
            step_fn(state.t, state.z, state.P)
        with pytest.raises(StepFailure):
            step(state, ref_system, REF_PARAMS)


class TestDisturbance:
    def test_disabled_gives_zero(self):
        assert np.array_equal(_disturbance_fn(DisturbanceSpec(), 4)(1.0), np.zeros(4))

    def test_zero_amplitude_gives_zero(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.0, seed=3)
        assert np.array_equal(_disturbance_fn(spec, 4)(1.0), np.zeros(4))

    def test_bounded(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        w_at = _disturbance_fn(spec, 4)
        for t in np.linspace(0.0, 200.0, 500):
            assert np.max(np.abs(w_at(t))) <= 0.5

    def test_near_zero_mean_over_horizon(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        t = np.linspace(0.0, 200.0, 200_001)
        w_at = _disturbance_fn(spec, 4)
        w = np.stack([w_at(ti) for ti in t])
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

    def test_settled_run_reports_window_start(self, ref_system):
        params = dataclasses.replace(REF_PARAMS, dt=2.5e-4, t_end=20.0)
        res = run(ref_system, params)
        assert res.settled
        assert 0.0 < res.settle_time < 20.0
        # the residual at the terminal state stays below the threshold
        assert res.terminal.residual < params.settle_tol


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
