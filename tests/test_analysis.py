import dataclasses

import numpy as np
import pytest

from fxdispatch import (
    AlgorithmParams,
    AssumptionViolation,
    CostSummary,
    DispatchSystem,
    GeneratorSpec,
    KronLossModel,
    assemble_assumption_report,
    build_s_matrix,
    check_a1,
    check_a2,
    cost_summary,
    path_topology,
    power_mean_check,
    settling_bound,
    verify_lemma3_bounds,
)
from fxdispatch import dynamics
from fxdispatch.analysis import curvature_matrices
from fxdispatch.grid_model import marginal_costs
from tests.conftest import REF_B, REF_DEMAND, REF_P0

REF_SUMMARY = CostSummary(sigma=0.164, delta=1.21)

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


class TestCheckA1:
    def test_reference_case_all_pass(self, ref_model):
        assert check_a1(ref_model, REF_DEMAND).all()

    def test_lossless_passes(self):
        model = KronLossModel(np.zeros((3, 3)), np.zeros(3), 0.0)
        assert check_a1(model, 1.0).all()
        assert check_a1(model, 1e6).all()

    def test_scaled_coefficients_fail(self, ref_model):
        big = KronLossModel(ref_model.B * 1e4, ref_model.B0, ref_model.B00)
        assert not check_a1(big, REF_DEMAND).all()

    def test_rejects_nonpositive_demand(self, ref_model):
        with pytest.raises(AssumptionViolation):
            check_a1(ref_model, 0.0)


class TestCheckA2:
    def test_reference_case(self, ref_model):
        rep = check_a2(ref_model, REF_SUMMARY)
        assert rep.a2_ok
        assert rep.rho == pytest.approx(1.0e-3)
        assert rep.b1 == pytest.approx(-1.61e-5, abs=1e-7)
        assert rep.a2_value == pytest.approx(0.1641, abs=5e-4)

    def test_lossless_degenerate(self):
        model = KronLossModel(np.zeros((3, 3)), np.zeros(3), 0.0)
        rep = check_a2(model, CostSummary(sigma=1.0, delta=1.0))
        assert rep.a2_value == pytest.approx(1.0)

    def test_negative_delta_uses_largest_eigenvalue(self, ref_model):
        rep = check_a2(ref_model, CostSummary(sigma=0.164, delta=-1.0))
        expected = (1.0 + 1e-3) * 0.164 - np.linalg.eigvalsh(REF_B)[-1]
        assert rep.a2_value == pytest.approx(expected, rel=1e-10)

    def test_zero_delta_rejected(self, ref_model):
        with pytest.raises(AssumptionViolation):
            check_a2(ref_model, CostSummary(sigma=1.0, delta=0.0))


class TestSMatrix:
    def test_reference_matrix_and_tau1(self, ref_model):
        sm = build_s_matrix(ref_model, REF_SUMMARY)
        assert np.max(np.abs(sm.S - REF_S_4DP)) < 5e-5
        assert sm.tau[0] == pytest.approx(0.1644, abs=5e-4)

    def test_lossless_is_scaled_identity(self):
        model = KronLossModel(np.zeros((3, 3)), np.zeros(3), 0.0)
        sm = build_s_matrix(model, CostSummary(sigma=0.7, delta=2.0))
        assert np.array_equal(sm.S, 0.7 * np.eye(3))
        assert sm.tau == pytest.approx([0.7, 0.7, 0.7])

    def test_two_by_two_closed_form(self):
        beta, gamma, sigma, delta = 2e-4, 5e-5, 0.3, 1.5
        model = KronLossModel(np.array([[beta, gamma], [gamma, beta]]), np.zeros(2), 0.0)
        sm = build_s_matrix(model, CostSummary(sigma=sigma, delta=delta))
        expected = np.sort([sigma + 2 * beta * delta - gamma * delta,
                            sigma + 2 * beta * delta + gamma * delta])
        assert sm.tau == pytest.approx(expected, rel=1e-12)


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

    def test_nonpositive_tau1_rejected(self):
        with pytest.raises(AssumptionViolation):
            settling_bound(self.PARAMS, 1e-3, 0.0, 0.5858, 4)

    def test_nonpositive_phi2_rejected(self):
        with pytest.raises(AssumptionViolation, match=r"phi2=0\.0 <= 0"):
            settling_bound(self.PARAMS, 0.0, 1.0, 0.0, 1)


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
        assert rep.all_ok
        assert rep.sigma == pytest.approx(0.164)
        assert rep.delta == 1.21
        assert rep.rho == pytest.approx(1.0e-3)
        assert rep.a2_value == pytest.approx(0.1641, abs=5e-4)

    def test_verdicts_follow_their_evidence(self, ref_model, ref_gens, ref_top):
        rep = assemble_assumption_report(ref_model, ref_gens, ref_top)
        assert rep.a1_ok and rep.a2_ok
        assert not dataclasses.replace(rep, a1_per_generator=(True, False, True, True)).a1_ok
        assert not dataclasses.replace(rep, a2_value=-rep.a2_value).a2_ok
        assert not dataclasses.replace(rep, a2_value=-rep.a2_value).all_ok

    def test_tau1_positive_whenever_a2_passes(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            model, gens, _ = random_case(rng, int(rng.integers(2, 6)), scale=1e-2)
            summary = cost_summary(gens)
            rep = check_a2(model, summary)
            if rep.a2_ok:
                assert build_s_matrix(model, summary).tau[0] > 0
