import dataclasses

import numpy as np
import pytest

from fxdispatch import (
    AlgorithmParams,
    AssumptionReport,
    AssumptionViolation,
    DispatchSystem,
    GeneratorSpec,
    KronLossModel,
    assemble_assumption_report,
    build_s_matrix,
    settling_bound,
)
from fxdispatch import analysis, dynamics
from fxdispatch.analysis import jacobi_eigenvalues
from fxdispatch.cli import evaluate_gates
from fxdispatch.config import config_from_dict
from fxdispatch.grid_model import marginal_costs
from tests.conftest import REF_B, REF_DEMAND, REF_P0, benchmark_workloads, path_topology, ring_fleet_dict
from tests.lemma3 import curvature_matrices, power_mean_check, verify_lemma3_bounds

#: the reference fleet's sigma = 2 min c_i and delta = min b_i
REF_SIGMA, REF_DELTA = 0.164, 1.21

# S matrix printed for the reference case (4 decimal places)
REF_S_4DP = np.array([
    [0.1646, 0.0000, 0.0001, 0.0000],
    [0.0000, 0.1645, 0.0001, 0.0002],
    [0.0001, 0.0001, 0.1648, 0.0002],
    [0.0000, 0.0002, 0.0002, 0.1646],
])


def random_case(rng, n, scale=1e-3):
    M = rng.uniform(0.0, scale, size=(n, n))
    model = KronLossModel((M + M.T) / 2.0, rng.uniform(0.0, 1e-2, size=n), rng.uniform(0.0, 4.0))
    gens = tuple(
        GeneratorSpec(a=float(rng.uniform(0, 100)), b=float(rng.uniform(0.5, 5.0)),
                      c=float(rng.uniform(0.01, 0.2)))
        for _ in range(n)
    )
    P = rng.uniform(0.0, 300.0, size=n)
    return model, gens, P


def lossless_case(dbar):
    """Three lossless units with total demand dbar, sigma = 2c = 1 and delta = b = 1."""
    model = KronLossModel(np.zeros((3, 3)), np.zeros(3), 0.0)
    gens = tuple(GeneratorSpec(a=0.0, b=1.0, c=0.5, d0=dbar / 3.0) for _ in range(3))
    return model, gens, path_topology(3)


class TestRemark2:
    def test_reference_case_all_pass(self, ref_model, ref_gens, ref_top):
        assert sum(g.d0 for g in ref_gens) == REF_DEMAND
        assert assemble_assumption_report(ref_model, ref_gens, ref_top).remark2_ok

    def test_lossless_passes(self):
        assert assemble_assumption_report(*lossless_case(1.0)).remark2_ok
        assert assemble_assumption_report(*lossless_case(1e6)).remark2_ok

    def test_scaled_coefficients_fail(self, ref_model, ref_gens, ref_top):
        big = KronLossModel(ref_model.B * 1e4, ref_model.B0, ref_model.B00)
        assert not assemble_assumption_report(big, ref_gens, ref_top).remark2_ok

    def test_fails_without_positive_demand(self, ref_model, ref_gens, ref_top):
        idle = tuple(dataclasses.replace(g, d0=0.0) for g in ref_gens)
        assert not assemble_assumption_report(ref_model, idle, ref_top).remark2_ok


class TestA2:
    def test_reference_case(self, ref_model, ref_gens, ref_top):
        rep = assemble_assumption_report(ref_model, ref_gens, ref_top)
        assert (rep.sigma, rep.delta) == (REF_SIGMA, REF_DELTA)
        assert rep.a2_ok
        assert rep.rho == pytest.approx(1.0e-3)
        assert rep.b1 == pytest.approx(-1.61e-5, abs=1e-7)
        assert rep.a2_value == pytest.approx(0.1641, abs=5e-4)

    def test_lossless_degenerate(self):
        rep = assemble_assumption_report(*lossless_case(1.0))
        assert (rep.sigma, rep.delta) == (1.0, 1.0)
        assert rep.a2_value == pytest.approx(1.0)

    def test_negative_delta_uses_largest_eigenvalue(self, ref_model, ref_gens, ref_top):
        gens = tuple(dataclasses.replace(g, b=-1.0) for g in ref_gens)
        rep = assemble_assumption_report(ref_model, gens, ref_top)
        assert (rep.sigma, rep.delta) == (0.164, -1.0)
        expected = (1.0 + 1e-3) * 0.164 - np.linalg.eigvalsh(REF_B)[-1]
        assert rep.a2_value == pytest.approx(expected, rel=1e-10)

    def test_zero_delta_rejected(self, ref_model, ref_gens, ref_top):
        gens = tuple(dataclasses.replace(g, b=0.0) for g in ref_gens)
        with pytest.raises(AssumptionViolation):
            assemble_assumption_report(ref_model, gens, ref_top)


class TestCostConstants:
    """sigma = 2 min c_i and delta = min b_i, formed by the assembler and held,
    with delta != 0 checked, by AssumptionReport."""

    def test_reference_fleet(self, ref_model, ref_gens, ref_top):
        rep = assemble_assumption_report(ref_model, ref_gens, ref_top)
        assert (rep.sigma, rep.delta) == (pytest.approx(0.164), 1.21)

    def test_singleton(self):
        model = KronLossModel(np.zeros((1, 1)), np.zeros(1), 0.0)
        rep = assemble_assumption_report(model, [GeneratorSpec(a=0.0, b=1.0, c=1.0)], path_topology(1))
        assert (rep.sigma, rep.delta) == (2.0, 1.0)

    def test_min_over_modified_fleet(self, ref_model, ref_gens, ref_top):
        gens = list(ref_gens)
        gens[3] = GeneratorSpec(a=78.0, b=0.9, c=0.105)
        assert assemble_assumption_report(ref_model, gens, ref_top).delta == pytest.approx(0.9)

    def test_zero_delta_rejected(self):
        message = "^marginal-cost lower bound delta must be nonzero$"
        model = KronLossModel(np.zeros((1, 1)), np.zeros(1), 0.0)
        with pytest.raises(AssumptionViolation, match=message):
            assemble_assumption_report(model, [GeneratorSpec(a=0.0, b=0.0, c=1.0)], path_topology(1))
        with pytest.raises(AssumptionViolation, match=message):
            AssumptionReport(rho=0.0, b1=0.0, bN=0.0, sigma=1.0, delta=0.0, a1_per_generator=(True,),
                             remark2_ok=True)

    def test_empty_rejected(self, ref_model, ref_top):
        with pytest.raises(ValueError, match="^0 generators but loss matrix is 4x4$"):
            assemble_assumption_report(ref_model, [], ref_top)


class TestSMatrix:
    def test_reference_matrix_and_tau1(self, ref_model):
        S = build_s_matrix(ref_model, REF_SIGMA, REF_DELTA)
        assert np.max(np.abs(S - REF_S_4DP)) < 5e-5
        assert jacobi_eigenvalues(S)[0] == pytest.approx(0.1644, abs=5e-4)

    def test_lossless_is_scaled_identity(self):
        model = KronLossModel(np.zeros((3, 3)), np.zeros(3), 0.0)
        S = build_s_matrix(model, 0.7, 2.0)
        assert np.array_equal(S, 0.7 * np.eye(3))
        assert jacobi_eigenvalues(S) == pytest.approx([0.7, 0.7, 0.7])

    def test_two_by_two_closed_form(self):
        beta, gamma, sigma, delta = 2e-4, 5e-5, 0.3, 1.5
        model = KronLossModel(np.array([[beta, gamma], [gamma, beta]]), np.zeros(2), 0.0)
        S = build_s_matrix(model, sigma, delta)
        expected = np.sort([sigma + 2 * beta * delta - gamma * delta,
                            sigma + 2 * beta * delta + gamma * delta])
        assert jacobi_eigenvalues(S) == pytest.approx(expected, rel=1e-12)

    def test_gates_decompose_b_and_s_once_each(self, monkeypatch):
        # the benchmark's traced eigenvalue counts read these calls
        config = config_from_dict(ring_fleet_dict(5))
        seen, real = [], analysis.jacobi_eigenvalues
        monkeypatch.setattr(analysis, "jacobi_eigenvalues", lambda A: seen.append(np.array(A)) or real(A))
        gates = evaluate_gates(config)
        S = build_s_matrix(config.loss, gates.report.sigma, gates.report.delta)
        assert len(seen) == 2
        assert np.array_equal(seen[0], config.loss.B) and np.array_equal(seen[1], S)
        assert gates.tau1 == float(real(S)[0])


class TestLemma3Bounds:
    def test_reference_case_at_initial_power(self, ref_model, ref_gens):
        rep = verify_lemma3_bounds(ref_model, ref_gens, REF_P0)
        assert rep.all_ok

    def test_lossless_collapse(self):
        model = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
        gens = (GeneratorSpec(a=0.0, b=1.0, c=0.5), GeneratorSpec(a=0.0, b=2.0, c=0.6))
        rep = verify_lemma3_bounds(model, gens, np.array([10.0, 20.0]))
        assert rep.all_ok
        assert np.array_equal(rep.grad_F, np.zeros((2, 2)))
        assert np.array_equal(rep.grad_M, np.zeros((2, 2)))
        assert np.array_equal(rep.Q, np.diag([1.0, 1.2]))

    def test_rejects_negative_power(self, ref_model, ref_gens):
        with pytest.raises(AssumptionViolation):
            verify_lemma3_bounds(ref_model, ref_gens, np.array([-1.0, 0.0, 0.0, 0.0]))

    def test_q_is_the_lemma3_decomposition(self):
        # Q = d(H lam)/dP; by algebra it equals diag(2c) + 0.5 grad_F + grad_M
        rng = np.random.default_rng(11)
        for _ in range(50):
            model, gens, P = random_case(rng, int(rng.integers(2, 7)))
            grad_F, grad_M, Q = curvature_matrices(model, gens, P)
            parts = np.diag([2.0 * g.c for g in gens]) + 0.5 * grad_F + grad_M
            assert np.max(np.abs(Q - parts)) <= 1e-12 * np.max(np.abs(Q))

    def test_q_is_the_dynamics_sensitivity_k(self, monkeypatch):
        # the K that _sensitivity forms is Q, bit for bit
        seen, form = [], dynamics.weighted_cost_jacobian

        def spy(*args):
            seen.append(form(*args))
            return seen[-1]

        monkeypatch.setattr(dynamics, "weighted_cost_jacobian", spy)
        rng = np.random.default_rng(12)
        for _ in range(50):
            model, gens, P = random_case(rng, int(rng.integers(2, 7)))
            system = DispatchSystem(gens=gens, loss=model, top=path_topology(len(gens)))
            lam, H, _ = dynamics._h_lambda(P, system)
            dynamics._sensitivity(lam, H, system, np.eye(len(gens)))
            assert np.array_equal(seen.pop(), curvature_matrices(model, gens, P)[2])

    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_jacobians_match_finite_differences(self, h):
        rng = np.random.default_rng(42)
        for _ in range(10):
            model, gens, P = random_case(rng, int(rng.integers(2, 6)))
            grad_F, grad_M, _ = curvature_matrices(model, gens, P)
            b, c = np.array([g.b for g in gens]), np.array([g.c for g in gens])

            def F_vec(P):
                return model.total_loss_gradient(P) * marginal_costs(b, c, P)

            def M_vec(P):
                return (np.diag(model.B) * P + model.B0 / 2.0) * marginal_costs(b, c, P)

            n = len(P)
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                fd_F = (F_vec(P + e) - F_vec(P - e)) / (2 * h)
                fd_M = (M_vec(P + e) - M_vec(P - e)) / (2 * h)
                assert np.max(np.abs(fd_F - grad_F[:, j])) <= 1e-6
                assert np.max(np.abs(fd_M - grad_M[:, j])) <= 1e-6


class TestSettlingBound:
    PARAMS = AlgorithmParams(k1=5.0, k2=5.0, mu=0.5, nu=2.0)

    def test_reference_value(self):
        sb = settling_bound(self.PARAMS, rho=1.0e-3, tau1=0.1644, phi2=0.5858, n=4)
        assert sb.ts == pytest.approx(154.47, abs=0.5)
        assert (sb.p, sb.q) == (0.875, 1.25)

    def test_joint_gain_homogeneity(self):
        sb1 = settling_bound(self.PARAMS, 1e-3, 0.1644, 0.5858, 4)
        doubled = AlgorithmParams(k1=10.0, k2=10.0, mu=0.5, nu=2.0)
        sb2 = settling_bound(doubled, 1e-3, 0.1644, 0.5858, 4)
        assert sb2.ts == pytest.approx(sb1.ts / 2.0, rel=1e-12)

    def test_hand_evaluated_unit_case(self):
        # rho and spectra chosen so (1+rho)*tau1*phi2^2 == 1
        p = AlgorithmParams(k1=1.0, k2=1.0, mu=0.5, nu=2.0)
        sb = settling_bound(p, rho=0.0, tau1=1.0, phi2=1.0, n=1)
        assert sb.ts == pytest.approx(8.0 / 2.0**0.125 + 4.0 * 2.0**0.25, rel=1e-12)

    def test_monotone_in_each_argument(self):
        base = settling_bound(self.PARAMS, 1e-3, 0.1644, 0.5858, 4).ts
        assert settling_bound(AlgorithmParams(k1=6.0, k2=5.0, mu=0.5, nu=2.0), 1e-3, 0.1644, 0.5858, 4).ts < base
        assert settling_bound(AlgorithmParams(k1=5.0, k2=6.0, mu=0.5, nu=2.0), 1e-3, 0.1644, 0.5858, 4).ts < base
        assert settling_bound(self.PARAMS, 1e-3, 0.18, 0.5858, 4).ts < base
        assert settling_bound(self.PARAMS, 1e-3, 0.1644, 0.7, 4).ts < base

    @pytest.mark.parametrize("tau1", [0.0, float("nan")])
    def test_nonpositive_tau1_rejected(self, tau1):
        with pytest.raises(AssumptionViolation, match=rf"^tau1={tau1} <= 0: curvature condition failed"):
            settling_bound(self.PARAMS, 1e-3, tau1, 0.5858, 4)

    @pytest.mark.parametrize("phi2", [0.0, float("nan")])
    def test_nonpositive_phi2_rejected(self, phi2):
        with pytest.raises(AssumptionViolation, match=rf"^phi2={phi2} <= 0: graph disconnected"):
            settling_bound(self.PARAMS, 0.0, 1.0, phi2, 1)


class TestBoundOnSeededFleets:
    """The paper's theorem as a property: a run whose fleet passes every
    gate and whose powers stay >= 0 settles before the bound ts.

    The benchmark's fleet_dict(seed, n = 6 + seed % 5) for seeds 0-11, run to
    t_end 200 from z0 = 0 and from z0 = (1, -1, 1, ...): 24 runs. All 12
    fleets pass the gates and no run sees a negative power; the runs settle
    in 0.26-1.25 s against ts of 64-1 356 s. From z0 scaled by 10 or 100
    every fleet drives a power negative, which is outside the theorem's
    premise (delta = min b bounds the marginal costs only on P >= 0), so
    those runs are not part of this property. A run that meets the premise
    and does not settle before ts is a counterexample to the bound or to the
    code: the assertion names it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_runs_that_meet_the_premise_settle_before_ts(self, seed):
        n = 6 + seed % 5
        config = config_from_dict(benchmark_workloads().fleet_dict(seed, n=n))
        gates = evaluate_gates(config)
        # the seeded data meets the premise, so that the property is not vacuous
        assert gates.all_ok, f"seed {seed}: the fleet fails a gate"
        params = dataclasses.replace(config.params, t_end=200.0)
        ts = settling_bound(params, gates.report.rho, gates.tau1, gates.phi2, n).ts
        for z0 in (np.zeros(n), (-1.0) ** np.arange(n)):
            res = dynamics.run(config.system(), params, z0=z0)
            assert not res.negative_power_seen, f"seed {seed}, z0 {z0}: min P {res.min_power}"
            assert res.settled and res.settle_time < ts, (
                f"counterexample: seed {seed}, n {n}, z0 {z0}: settled {res.settled} at {res.settle_time}, "
                f"ts {ts}")


class TestPowerMean:
    def test_equal_elements_equality_case(self):
        assert power_mean_check(np.array([1.0, 1.0]), 2.0)

    def test_singleton(self):
        for m in [0.3, 1.0, 2.5]:
            assert power_mean_check(np.array([4.0]), m)

    @pytest.mark.parametrize("m", [0.3, 0.75, 1.5, 3.0])
    def test_random_draws(self, m):
        rng = np.random.default_rng(int(m * 100))
        for _ in range(1000):
            zeta = rng.uniform(0.0, 10.0, size=int(rng.integers(1, 8)))
            assert power_mean_check(zeta, m)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            power_mean_check(np.array([-1.0, 1.0]), 0.5)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="exponent must be positive"):
            power_mean_check([1.0], 0.0)


class TestAssumptionReport:
    def test_reference_configuration(self, ref_model, ref_gens, ref_top):
        rep = assemble_assumption_report(ref_model, ref_gens, ref_top)
        assert rep.a1_ok and rep.remark2_ok and rep.a2_ok
        assert rep.sigma == pytest.approx(0.164)
        assert rep.delta == 1.21
        assert rep.rho == pytest.approx(1.0e-3)
        assert rep.a2_value == pytest.approx(0.1641, abs=5e-4)

    def test_verdicts_follow_their_evidence(self, ref_model, ref_gens, ref_top):
        rep = assemble_assumption_report(ref_model, ref_gens, ref_top)
        assert rep.a1_ok and rep.a2_ok
        assert not dataclasses.replace(rep, a1_per_generator=(True, False, True, True)).a1_ok
        failing = dataclasses.replace(rep, sigma=-rep.sigma)
        assert failing.a2_value < 0
        assert not failing.a2_ok
        assert failing.a1_ok and failing.remark2_ok

    def test_refuses_a_topology_of_another_size(self, ref_model, ref_gens):
        # any LocalTopology is connected, so every gate would pass
        with pytest.raises(ValueError, match="4 generators but topology has 7 nodes"):
            assemble_assumption_report(ref_model, ref_gens, path_topology(7))

    def test_tau1_positive_whenever_a2_passes(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            model, gens, _ = random_case(rng, int(rng.integers(2, 6)), scale=1e-2)
            rep = assemble_assumption_report(model, gens, path_topology(len(gens)))
            if rep.a2_ok:
                assert jacobi_eigenvalues(build_s_matrix(model, rep.sigma, rep.delta))[0] > 0
