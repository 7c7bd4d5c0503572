import numpy as np
import pytest

from fxdispatch import (
    AssumptionViolation,
    GeneratorSpec,
    KronLossModel,
    NewtonFailure,
    brute_force_optimum,
    kkt_penalty_solution,
    solve_equilibrium,
)
from fxdispatch.oracle import _damped_newton
from fxdispatch.dynamics import make_state, solve_power
from tests.conftest import (
    REF_DEMAND,
    REF_EQ_COST,
    REF_EQ_LOSS,
    REF_EQUILIBRIUM,
)


def lossless(n):
    return KronLossModel(np.zeros((n, n)), np.zeros(n), 0.0)


TWO_GENS = (
    GeneratorSpec(a=10.0, b=1.0, c=0.05),
    GeneratorSpec(a=5.0, b=2.0, c=0.08),
)
TWO_D = 100.0
# closed form for the equal-marginal-cost split of the lossless pair:
# P1 = (2 c2 D + b2 - b1) / (2 c1 + 2 c2), evaluated by hand beforehand
TWO_P1 = (2 * 0.08 * 100.0 + 2.0 - 1.0) / (2 * 0.05 + 2 * 0.08)
THREE_GENS = TWO_GENS + (GeneratorSpec(a=8.0, b=1.5, c=0.06),)


def balance_gap(P, model, d):
    return abs(P.sum() - d - model.total_loss(P))


class TestSolveEquilibrium:
    def test_reference_case_frozen(self, ref_gens, ref_model):
        sol = solve_equilibrium(ref_gens, ref_model, REF_DEMAND)
        assert sol.P_star == pytest.approx(REF_EQUILIBRIUM, abs=1e-6)
        assert sol.cost_star == pytest.approx(REF_EQ_COST, abs=1e-6)
        assert sol.loss_star == pytest.approx(REF_EQ_LOSS, abs=1e-8)

    def test_residual_invariants(self, ref_gens, ref_model):
        sol = solve_equilibrium(ref_gens, ref_model, REF_DEMAND)
        assert sol.constraint_residual < 1e-10
        assert sol.consensus_residual < 1e-10

    def test_solution_consistent_with_simulator_monitors(self, ref_system):
        # reconstruct the equilibrium's z up to the consensus subspace and
        # feed it through the simulator's own power solve and monitors
        sol = solve_equilibrium(ref_system.gens, ref_system.loss, REF_DEMAND)
        cons = sol.P_star - ref_system.d0 - ref_system.loss.generator_losses(sol.P_star)
        z = -np.linalg.pinv(ref_system.top.L) @ cons
        state = make_state(0.0, z, ref_system)
        assert np.max(np.abs(state.P - sol.P_star)) < 1e-9
        assert abs(state.total_power - ref_system.dbar - state.loss) < 1e-9
        assert state.residual < 1e-9

    def test_identical_lossless_equal_split(self):
        d = 75.0
        gens = (GeneratorSpec(a=1.0, b=2.0, c=0.05),) * 2
        sol = solve_equilibrium(gens, lossless(2), 2 * d)
        assert sol.P_star == pytest.approx([d, d], abs=1e-10)
        assert sol.mu_star == pytest.approx(2 * 0.05 * d + 2.0, abs=1e-10)

    def test_two_gen_lossless_closed_form(self):
        sol = solve_equilibrium(TWO_GENS, lossless(2), TWO_D)
        assert sol.P_star[0] == pytest.approx(TWO_P1, abs=1e-10)
        assert sol.P_star[1] == pytest.approx(TWO_D - TWO_P1, abs=1e-10)


    def test_no_balance_raises_with_best_iterate(self, ref_gens, ref_model):
        # with B = diag(1e-2) the losses outgrow any dispatch: no balance exists at 600 MW
        model = KronLossModel(np.diag([1e-2] * 4), ref_model.B0, ref_model.B00)
        with pytest.raises(NewtonFailure, match="no descent after 30 halvings") as exc:
            solve_equilibrium(ref_gens, model, REF_DEMAND)
        assert exc.value.best.shape == (5,) and np.isfinite(exc.value.best).all()


class TestDampedNewton:
    # on r(x) = x with the Jacobian 1/(1 - q) each full step scales x by q

    @staticmethod
    def solve(q):
        return _damped_newton(lambda x: x, lambda x: np.array([[1.0 / (1.0 - q)]]), [1.0])

    def test_converges_on_the_last_allowed_iteration(self):
        # 0.757^99 = 1.07e-12 and 0.757^100 = 8.1e-13
        x, its = self.solve(0.757)
        assert its == 100 and abs(x[0]) < 1e-12

    def test_raises_past_the_last_allowed_iteration(self):
        # 0.76^100 = 1.206e-12
        with pytest.raises(NewtonFailure, match=r"not converged in 100 iterations \(residual 1.206e-12\)") as exc:
            self.solve(0.76)
        assert exc.value.best[0] == pytest.approx(0.76**100)


class TestBruteForce:
    def test_two_gen_lossless_matches_closed_form(self):
        P = brute_force_optimum(TWO_GENS, lossless(2), TWO_D, grid_step=0.01)
        assert abs(P[0] - TWO_P1) <= 0.01

    def test_single_generator_pinned_by_constraint(self):
        gens = (GeneratorSpec(a=0.0, b=1.0, c=1.0),)
        model = KronLossModel(np.array([[1e-4]]), np.array([1e-3]), 2.0)
        P = brute_force_optimum(gens, model, 50.0, grid_step=1.0)
        assert P[0] == pytest.approx(50.0 + model.total_loss(P), abs=1e-10)

    def test_two_gen_small_losses_near_newton_solution(self):
        model = KronLossModel(np.array([[1.0, 0.3], [0.3, 1.2]]) * 1e-5, np.zeros(2), 0.0)
        sol = solve_equilibrium(TWO_GENS, model, TWO_D)
        P = brute_force_optimum(TWO_GENS, model, TWO_D, grid_step=0.05)
        assert np.max(np.abs(P - sol.P_star)) <= 0.1

    def test_three_gen_lossless_matches_equal_lambda(self):
        # equal-lambda closed form: lam* = (D + sum b_i/2c_i) / sum 1/2c_i
        inv = np.array([1.0 / (2 * g.c) for g in THREE_GENS])
        bvec = np.array([g.b for g in THREE_GENS])
        lam = (TWO_D + (bvec * inv).sum()) / inv.sum()
        P_closed = (lam - bvec) * inv
        P = brute_force_optimum(THREE_GENS, lossless(3), TWO_D, grid_step=0.1)
        # two scanned powers within one grid step, the closed one within two
        assert np.all(np.abs(P - P_closed) <= [0.1, 0.1, 0.2])
        assert balance_gap(P, lossless(3), TWO_D) <= 1e-9

    def test_three_gen_lossy_frozen(self):
        model = KronLossModel(np.array([[1.0, 0.3, 0.1], [0.3, 1.2, 0.2], [0.1, 0.2, 0.9]]) * 1e-4,
                              np.array([1e-3, 2e-3, 1.5e-3]), 0.5)
        P = brute_force_optimum(THREE_GENS, model, TWO_D, grid_step=1.0)
        # frozen: the point of a scan that closed the last power by scalar fixed point to 1e-12
        assert P == pytest.approx([45.0, 22.0, 34.1257232208455], abs=1e-9)
        assert balance_gap(P, model, TWO_D) <= 1e-9

    def test_unclosable_points_are_skipped(self):
        # at many grid points x = 50 - p + 1e-2 (p^2 + x^2) has no root; the
        # scan skips them without a RuntimeWarning
        gens = (GeneratorSpec(a=0.0, b=1.0, c=1.0),) * 2
        model = KronLossModel(np.diag([1e-2, 1e-2]), np.zeros(2), 0.0)
        P = brute_force_optimum(gens, model, 50.0, grid_step=1.0)
        assert np.array_equal(P, [50.0, 50.0])

    def test_single_generator_without_root_is_none(self):
        # x = 50 + 1e-2 x^2 has no real root
        gens = (GeneratorSpec(a=0.0, b=1.0, c=1.0),)
        model = KronLossModel(np.array([[1e-2]]), np.zeros(1), 0.0)
        assert brute_force_optimum(gens, model, 50.0, grid_step=1.0) is None

    def test_negative_demand_has_no_grid_point(self):
        assert brute_force_optimum(TWO_GENS, lossless(2), -1.0, grid_step=0.1) is None

    def test_rejects_large_fleet(self, ref_gens, ref_model):
        with pytest.raises(ValueError):
            brute_force_optimum(ref_gens, ref_model, REF_DEMAND, grid_step=1.0)

    @pytest.mark.parametrize("grid_step", [0.0, -1.0, float("nan")])
    def test_rejects_bad_step(self, grid_step):
        with pytest.raises(ValueError, match="^grid_step must be positive$"):
            brute_force_optimum(TWO_GENS, lossless(2), TWO_D, grid_step=grid_step)


@pytest.mark.parametrize("solver", [solve_equilibrium, kkt_penalty_solution])
@pytest.mark.parametrize("d_total, shown", [(0.0, "0"), (-40.0, "-40"), (float("nan"), "nan")])
def test_refuses_a_total_demand_that_is_not_positive(ref_gens, ref_model, solver, d_total, shown):
    # every point balancing such a demand would have a negative power
    with pytest.raises(AssumptionViolation,
                       match=f"^total demand is {shown} MW; the oracle needs a positive total demand$"):
        solver(ref_gens, ref_model, d_total)


class TestPenaltyCoordination:
    def test_lossless_identical_to_equilibrium(self):
        a = solve_equilibrium(TWO_GENS, lossless(2), TWO_D)
        b = kkt_penalty_solution(TWO_GENS, lossless(2), TWO_D)
        assert np.max(np.abs(a.P_star - b.P_star)) < 1e-10

    def test_reference_case_frozen(self, ref_gens, ref_model):
        # frozen: the own-loss penalty-factor point of the reference case
        sol = kkt_penalty_solution(ref_gens, ref_model, REF_DEMAND)
        assert sol.P_star == pytest.approx([165.273216, 171.843481, 168.310811, 135.440523], abs=1e-6)
        assert sol.cost_star == pytest.approx(11080.161847, abs=1e-6)

    def test_reference_case_gap_is_small_but_nonzero(self, ref_gens, ref_model):
        a = solve_equilibrium(ref_gens, ref_model, REF_DEMAND)
        b = kkt_penalty_solution(ref_gens, ref_model, REF_DEMAND)
        gap = np.max(np.abs(a.P_star - b.P_star))
        # frozen: the two coordination rules differ by about half a MW here
        assert gap == pytest.approx(0.517, abs=0.05)

    def test_gap_grows_with_loss_coefficients(self, ref_gens, ref_model):
        gaps = []
        for scale in [1.0, 3.0]:
            model = KronLossModel(ref_model.B * scale, ref_model.B0, ref_model.B00)
            a = solve_equilibrium(ref_gens, model, REF_DEMAND)
            b = kkt_penalty_solution(ref_gens, model, REF_DEMAND)
            gaps.append(np.max(np.abs(a.P_star - b.P_star)))
        assert gaps[1] > gaps[0]

    def test_vanishing_losses_all_coincide(self, ref_gens):
        model = KronLossModel(np.zeros((4, 4)), np.zeros(4), 0.0)
        a = solve_equilibrium(ref_gens, model, REF_DEMAND)
        b = kkt_penalty_solution(ref_gens, model, REF_DEMAND)
        # equal-lambda closed form: lam* = (D + sum b_i/2c_i) / sum 1/2c_i
        inv = np.array([1.0 / (2 * g.c) for g in ref_gens])
        bvec = np.array([g.b for g in ref_gens])
        lam = (REF_DEMAND + (bvec * inv).sum()) / inv.sum()
        P_closed = (lam - bvec) * inv
        assert np.max(np.abs(a.P_star - P_closed)) < 1e-8
        assert np.max(np.abs(b.P_star - P_closed)) < 1e-8
