import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxdispatch import (
    ConfigurationError,
    AssumptionViolation,
    CostSummary,
    DispatchSystem,
    GeneratorSpec,
    KronLossModel,
    cost_summary,
    path_topology,
    total_cost,
    total_demand,
)
from fxdispatch.grid_model import marginal_costs, weighted_cost_jacobian
from tests.conftest import REF_COST, REF_P0


def random_model(rng, n):
    M = rng.uniform(0.0, 1e-3, size=(n, n))
    B = (M + M.T) / 2.0
    return KronLossModel(B, rng.uniform(0.0, 1e-2, size=n), rng.uniform(0.0, 5.0))


class TestGeneratorSpec:
    def test_rejects_nonconvex_cost(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(a=1.0, b=1.0, c=0.0)

    def test_rejects_negative_initial_power(self):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(a=1.0, b=1.0, c=1.0, p0=-1.0)

    @pytest.mark.parametrize("field", ["a", "b", "c", "p0", "d0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            GeneratorSpec(**{"a": 1.0, "b": 1.0, "c": 1.0, field: value})


class TestLossModelConstruction:
    def test_rejects_asymmetric(self):
        B = np.array([[1.0, 2.0], [3.0, 1.0]]) * 1e-4
        with pytest.raises(ConfigurationError, match=r"\(0,1\)"):
            KronLossModel(B, np.zeros(2), 0.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ConfigurationError):
            KronLossModel(-1e-4 * np.eye(2), np.zeros(2), 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            KronLossModel(np.eye(3) * 1e-4, np.zeros(2), 0.0)


class TestTotalLoss:
    def test_zero_power_gives_constant_term(self, ref_model):
        assert ref_model.total_loss(np.zeros(4)) == 4.0

    def test_reference_optimum_loss(self, ref_model):
        # reported loss at the reference dispatch is 41.2 MW
        assert ref_model.total_loss([161.4, 171.3, 170.4, 138.1]) == pytest.approx(41.2, abs=0.05)

    def test_direct_evaluation(self, ref_model):
        # frozen from a one-line scalar evaluation of the quadratic form
        assert ref_model.total_loss(REF_P0) == pytest.approx(37.62501, abs=1e-9)

    def test_dimension_mismatch(self, ref_model):
        with pytest.raises(ConfigurationError):
            ref_model.total_loss(np.zeros(3))

    def test_permutation_invariance(self, ref_model):
        rng = np.random.default_rng(7)
        P = rng.uniform(0.0, 200.0, size=4)
        for _ in range(20):
            perm = rng.permutation(4)
            permuted = KronLossModel(ref_model.B[np.ix_(perm, perm)], ref_model.B0[perm], ref_model.B00)
            assert permuted.total_loss(P[perm]) == pytest.approx(ref_model.total_loss(P), rel=1e-14)


class TestGeneratorLoss:
    def test_zero_own_power_gives_constant_share(self, ref_model):
        P = np.array([0.0, 50.0, 60.0, 70.0])
        assert ref_model.generator_losses(P)[0] == pytest.approx(1.0)  # B00 / 4

    def test_shares_sum_to_total_reference(self, ref_model):
        P = np.array([161.4, 171.3, 170.4, 138.1])
        total = sum(ref_model.generator_losses(P)[i] for i in range(4))
        assert total == pytest.approx(41.2, abs=0.05)
        assert total == pytest.approx(ref_model.total_loss(P), rel=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shares_sum_to_total_random(self, n):
        rng = np.random.default_rng(n)
        model = random_model(rng, n)
        P = rng.uniform(0.0, 300.0, size=n)
        total = sum(model.generator_losses(P)[i] for i in range(n))
        assert total == pytest.approx(model.total_loss(P), rel=1e-12)


class TestLossGradients:
    def test_total_gradient_at_origin_is_linear_coefficient(self, ref_model):
        for i in range(4):
            assert ref_model.total_loss_gradient(np.zeros(4))[i] == ref_model.B0[i]

    def test_own_gradient_at_origin_is_linear_coefficient(self, ref_model):
        for i in range(4):
            assert ref_model.own_loss_gradient(np.zeros(4))[i] == ref_model.B0[i]

    def test_total_gradient_matches_finite_difference(self, ref_model):
        h = 1e-4
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (ref_model.total_loss(REF_P0 + e) - ref_model.total_loss(REF_P0 - e)) / (2 * h)
            assert ref_model.total_loss_gradient(REF_P0)[i] == pytest.approx(fd, abs=1e-8)

    def test_diagonal_only_model(self):
        model = KronLossModel(np.diag([2e-4, 3e-4]), np.array([1e-3, 2e-3]), 0.0)
        P = np.array([50.0, 80.0])
        for i in range(2):
            assert model.total_loss_gradient(P)[i] == pytest.approx(2 * model.B[i, i] * P[i] + model.B0[i])
            assert model.own_loss_gradient(P)[i] == pytest.approx(2 * model.B[i, i] * P[i] + model.B0[i])

    @pytest.mark.parametrize("seed", range(5))
    def test_own_gradient_jacobian_matches_finite_differences(self, seed):
        # the own-loss gradient is linear in P, so central differences are exact up to roundoff
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        model = random_model(rng, n)
        P = rng.uniform(0.0, 400.0, size=n)
        h = 1e-2
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (model.own_loss_gradient(P + e) - model.own_loss_gradient(P - e)) / (2 * h)
            assert np.max(np.abs(fd - model.own_grad_jac[:, j])) <= 1e-11

    def test_own_gradient_direct_evaluation(self, ref_model):
        # frozen from an independent evaluation of the own-loss gradient row
        assert ref_model.own_loss_gradient(REF_P0)[1] == pytest.approx(0.065036, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_half_gradient_identity(self, seed):
        # own gradient == half the total gradient + B_ii P_i + B_i0/2
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        model = random_model(rng, n)
        P = rng.uniform(0.0, 400.0, size=n)
        for i in range(n):
            lhs = model.own_loss_gradient(P)[i]
            rhs = 0.5 * model.total_loss_gradient(P)[i] + model.B[i, i] * P[i] + model.B0[i] / 2.0
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
    def test_second_order_convergence(self, ref_model, h):
        # quadratic loss => central differences are exact up to roundoff,
        # comfortably inside the K*h^2 envelope
        K = 1.0
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (ref_model.total_loss(REF_P0 + e) - ref_model.total_loss(REF_P0 - e)) / (2 * h)
            assert abs(fd - ref_model.total_loss_gradient(REF_P0)[i]) <= K * h * h


class TestCosts:
    def test_marginal_cost_at_zero_is_linear_coefficient(self):
        assert marginal_costs(1.21, 0.094, 0.0) == 1.21

    def test_marginal_cost_root(self):
        assert marginal_costs(-4.0, 0.5, 4.0) == 0.0

    def test_marginal_cost_hand_value(self):
        assert marginal_costs(3.47, 0.082, 100.0) == pytest.approx(19.87)

    def test_total_cost_at_zero_sums_offsets(self, ref_gens):
        assert total_cost(ref_gens, np.zeros(4)) == pytest.approx(210.0)

    def test_total_cost_at_reference_dispatch(self, ref_gens):
        # reported optimal cost ~ $11093/h
        assert total_cost(ref_gens, [161.4, 171.3, 170.4, 138.1]) == pytest.approx(11093, abs=10)

    def test_total_cost_single_generator(self):
        g = GeneratorSpec(a=2.0, b=3.0, c=4.0)
        assert total_cost([g], [1.0]) == pytest.approx(9.0)

    def test_total_cost_rejects_a_power_count_that_does_not_match(self, ref_gens):
        with pytest.raises(ConfigurationError, match="4 generators but 3 powers"):
            total_cost(ref_gens, [1.0, 2.0, 3.0])



class TestTotalDemand:
    def test_dispatch_system_sums_the_demand_where_the_library_does(self):
        # 64 shares, so NumPy's pairwise sum and Python's left-to-right sum can
        # disagree in the last bit; the system's dbar must be the library's total
        python_sum_differs = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d0 = rng.uniform(10.0, 45.0, 64)
            gens = tuple(GeneratorSpec(a=50.0, b=2.0, c=0.1, p0=d, d0=d) for d in d0.tolist())
            system = DispatchSystem(gens=gens, loss=random_model(rng, 64), top=path_topology(64))
            assert system.dbar == total_demand(gens) == float(np.sum(d0))
            python_sum_differs += sum(g.d0 for g in gens) != total_demand(gens)
        assert python_sum_differs > 0


def penalty_factor(model, P):
    """The classical coordination weight pf = 1 / (1 - own-loss gradient)
    and its derivative pf^2 with respect to that gradient."""
    pf = 1.0 / (1.0 - model.own_loss_gradient(P))
    return pf, pf**2


def consensus_weight(model, P):
    """The consensus weight H = 1 + own-loss gradient, of derivative 1."""
    return 1.0 + model.own_loss_gradient(P), 1.0


class TestWeightedCostJacobian:
    @pytest.mark.parametrize("weight", [consensus_weight, penalty_factor])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, weight, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        model = random_model(rng, n)
        b, c = rng.uniform(0.5, 5.0, size=n), rng.uniform(0.01, 0.2, size=n)
        P = rng.uniform(0.0, 60.0, size=n)  # own-loss gradients stay below 1

        def w_lam(P):
            return weight(model, P)[0] * marginal_costs(b, c, P)

        w, dw = weight(model, P)
        J = weighted_cost_jacobian(model.own_grad_jac, c, marginal_costs(b, c, P), w, dw)
        h = 1e-3
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd = (w_lam(P + e) - w_lam(P - e)) / (2 * h)
            assert fd == pytest.approx(J[:, j], rel=1e-6, abs=1e-9)


class TestCostSummary:
    def test_reference_fleet(self, ref_gens):
        s = cost_summary(ref_gens)
        assert s == CostSummary(sigma=pytest.approx(0.164), delta=1.21)

    def test_singleton(self):
        s = cost_summary([GeneratorSpec(a=0.0, b=1.0, c=1.0)])
        assert (s.sigma, s.delta) == (2.0, 1.0)

    def test_min_over_modified_fleet(self, ref_gens):
        gens = list(ref_gens)
        gens[3] = GeneratorSpec(a=78.0, b=0.9, c=0.105)
        assert cost_summary(gens).delta == pytest.approx(0.9)

    def test_zero_delta_rejected(self):
        message = "^marginal-cost lower bound delta must be nonzero$"
        with pytest.raises(AssumptionViolation, match=message):
            cost_summary([GeneratorSpec(a=0.0, b=0.0, c=1.0)])
        with pytest.raises(AssumptionViolation, match=message):
            CostSummary(sigma=1.0, delta=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            cost_summary([])
