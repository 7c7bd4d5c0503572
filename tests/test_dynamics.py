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
    lyapunov_value,
    make_disturbance,
    path_topology,
    run,
    sig_pow,
    solve_power,
    solve_equilibrium,
    step,
    z_derivative,
)
from fxdispatch.dynamics import _disturbance_fn, make_state
from fxdispatch.topology import laplacian
from tests.conftest import REF_DEMAND, REF_P0

REF_PARAMS = AlgorithmParams(k1=5.0, k2=5.0, mu=0.5, nu=2.0)


def lossless_pair(d=100.0, split=(100.0, 100.0)):
    gens = tuple(GeneratorSpec(a=1.0, b=2.0, c=0.05, p0=s, d0=s) for s in split)
    model = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
    return DispatchSystem(gens=gens, loss=model, top=path_topology(2))


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
        dz = z_derivative(state, system, REF_PARAMS)
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
        dz = z_derivative(state, system, params)
        assert dz == pytest.approx([-2.0, 2.0], abs=1e-15)

    def test_disturbance_none_equals_zero_vector(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        a = z_derivative(state, ref_system, REF_PARAMS)
        b = z_derivative(state, ref_system, REF_PARAMS, w=np.zeros(4))
        assert np.array_equal(a, b)

    def test_disturbance_adds(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        w = np.array([0.1, -0.2, 0.3, 0.0])
        a = z_derivative(state, ref_system, REF_PARAMS)
        b = z_derivative(state, ref_system, REF_PARAMS, w=w)
        assert b == pytest.approx(a + w, abs=1e-15)


class TestStep:
    def test_stationary_at_exact_consensus(self):
        system = lossless_pair(split=(100.0, 100.0))
        state = make_state(0.0, np.zeros(2), system)
        nxt = step(state, system, REF_PARAMS)
        assert np.array_equal(nxt.z, state.z)
        assert nxt.P == pytest.approx(state.P, abs=1e-14)

    def test_near_stationary_at_solved_equilibrium(self, ref_system):
        sol = solve_equilibrium(ref_system.gens, ref_system.loss, REF_DEMAND)
        cons = sol.P_star - ref_system.d0 - ref_system.loss.generator_losses(sol.P_star)
        z = -np.linalg.pinv(laplacian(ref_system.top)) @ cons
        state = make_state(0.0, z, ref_system, params=REF_PARAMS)
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


def step_loop(system, params, disturbance, nsteps):
    """States 0..nsteps from public step() calls, starting at z = 0."""
    states = [make_state(0.0, np.zeros(system.n), system, params=params)]
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


class TestDisturbance:
    def test_disabled_gives_zero(self):
        assert np.array_equal(make_disturbance(DisturbanceSpec(), 4, 1.0), np.zeros(4))

    def test_zero_amplitude_gives_zero(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.0, seed=3)
        assert np.array_equal(make_disturbance(spec, 4, 1.0), np.zeros(4))

    def test_bounded(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        for t in np.linspace(0.0, 200.0, 500):
            assert np.max(np.abs(make_disturbance(spec, 4, t))) <= 0.5

    def test_near_zero_mean_over_horizon(self):
        spec = DisturbanceSpec(enabled=True, amplitude=0.5, seed=7)
        t = np.linspace(0.0, 200.0, 200_001)
        w_at = _disturbance_fn(spec, 4)  # make_disturbance(spec, 4, t) is w_at(t)
        w = np.stack([w_at(ti) for ti in t])
        assert np.max(np.abs(w.mean(axis=0))) < 0.005

    def test_seed_determinism(self):
        a = make_disturbance(DisturbanceSpec(enabled=True, amplitude=0.5, seed=9), 4, 3.3)
        b = make_disturbance(DisturbanceSpec(enabled=True, amplitude=0.5, seed=9), 4, 3.3)
        c = make_disturbance(DisturbanceSpec(enabled=True, amplitude=0.5, seed=10), 4, 3.3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(enabled=True, amplitude=-0.1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(kind="square")


class TestRun:
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
    def test_zero_at_optimum(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        assert lyapunov_value(state, state.cost) == 0.0

    def test_cost_gap_two(self, ref_system):
        state = make_state(0.0, np.zeros(4), ref_system)
        assert lyapunov_value(state, state.cost - 2.0) == pytest.approx(2.0)
