"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
``criterion N: PASS``/``FAIL`` line. Sub-checks are soft-collected so a
failing criterion reports every violated tolerance at once.
"""

import dataclasses
import pathlib
import time

import numpy as np
import pytest

from fxdispatch import (
    DispatchSystem,
    DisturbanceSpec,
    GeneratorSpec,
    KronLossModel,
    brute_force_optimum,
    load_config,
    run,
    settling_bound,
    solve_equilibrium,
)
from fxdispatch.cli import evaluate_gates
from fxdispatch.grid_model import total_demand
from tests.lemma3 import curvature_matrices, power_mean_check, verify_lemma3_bounds

CONFIG_PATH = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"

REPORTED_DISPATCH = np.array([161.4, 171.3, 170.4, 138.1])
REPORTED_TOTAL = 641.2
REPORTED_LOSS = 41.2
REPORTED_COST = 11093.0
TS_BOUND = 154.47


def _conclude(num, checks):
    failures = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    print(f"criterion {num}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"criterion {num} failed: " + "; ".join(failures)


@pytest.fixture(scope="session")
def golden():
    """The reference-configuration run: dt=1e-3, t_end=200, plus its oracle."""
    config = load_config(str(CONFIG_PATH))
    eq = solve_equilibrium(config.generators, config.loss, total_demand(config.generators))
    t0 = time.perf_counter()
    result = run(config.system(), config.params, disturbance=config.disturbance,
                 c_star=eq.cost_star, stride=config.output.stride)
    wall = time.perf_counter() - t0
    return config, eq, result, wall


def test_criterion_1_golden_reproduction(golden):
    config, _, result, wall = golden
    term = result.terminal
    _conclude(1, [
        ("wall clock < 60 s", wall < 60.0, f"{wall:.1f} s"),
        ("terminal dispatch within 0.2 MW",
         bool(np.max(np.abs(term.P - REPORTED_DISPATCH)) <= 0.2),
         f"got {np.round(term.P, 3).tolist()}, max gap "
         f"{np.max(np.abs(term.P - REPORTED_DISPATCH)):.3f}"),
        ("total power 641.2 +/- 0.5", abs(term.total_power - REPORTED_TOTAL) <= 0.5,
         f"{term.total_power:.3f}"),
        ("loss 41.2 +/- 0.5", abs(term.loss - REPORTED_LOSS) <= 0.5, f"{term.loss:.3f}"),
        ("cost 11093 +/- 10", abs(term.cost - REPORTED_COST) <= 10.0, f"{term.cost:.2f}"),
    ])


def test_criterion_2_analysis_chain(golden):
    config, _, _, _ = golden
    gates = evaluate_gates(config)
    r = gates.report
    sb = settling_bound(config.params, r.rho, gates.tau1, gates.phi2, 4)
    _conclude(2, [
        ("sigma exact", r.sigma == 2.0 * 0.082, f"{r.sigma!r}"),
        ("delta exact", r.delta == 1.21, f"{r.delta!r}"),
        ("rho exact", r.rho == 1.0e-3, f"{r.rho!r}"),
        ("b1", abs(r.b1 - (-1.61e-5)) <= 1e-7, f"{r.b1:.6e}"),
        ("tau1", abs(gates.tau1 - 0.1644) <= 5e-4, f"{gates.tau1:.6f}"),
        ("phi2", abs(gates.phi2 - 0.5858) <= 1e-4, f"{gates.phi2:.6f}"),
        ("A2 scalar", abs(r.a2_value - 0.1641) <= 5e-4, f"{r.a2_value:.6f}"),
        ("settling bound", abs(sb.ts - TS_BOUND) <= 0.5, f"{sb.ts:.4f}"),
    ])


def test_criterion_3_constraint_invariant(golden):
    config, _, result, _ = golden
    dbar = total_demand(config.generators)
    drift = np.abs(result.trajectory.P.sum(axis=1) - dbar - result.trajectory.loss)
    _conclude(3, [
        ("|sum P - demand - loss| <= 4e-10 at every emitted step",
         bool(drift.max() <= 4e-10), f"max {drift.max():.3e}"),
    ])


def test_criterion_4_fixed_time_property(golden):
    config, _, _, _ = golden
    splits = [(170.0, 110.0, 140.0, 180.0),
              (150.0, 150.0, 150.0, 150.0),
              (300.0, 100.0, 100.0, 100.0)]
    # a finer dt than the golden run's: RK4 starts at a quarter of the
    # shipped step, and the implicit steps and settle time resolve 0.25 ms
    params = dataclasses.replace(config.params, dt=2.5e-4, t_end=20.0)
    results = []
    for shares in splits:
        gens = tuple(dataclasses.replace(g, p0=s, d0=s)
                     for g, s in zip(config.generators, shares))
        system = DispatchSystem(gens=gens, loss=config.loss, top=config.topology)
        results.append(run(system, params))
    checks = []
    for shares, res in zip(splits, results):
        checks.append((f"settles below 1e-6 before {TS_BOUND} s from {shares}",
                       res.settled and res.settle_time < TS_BOUND,
                       f"settled={res.settled}, t={res.settle_time}"))
    terminals = np.array([r.terminal.P for r in results])
    spread = np.max(terminals.max(axis=0) - terminals.min(axis=0))
    checks.append(("terminal dispatch agreement within 1e-3 MW",
                   bool(spread <= 1e-3), f"spread {spread:.2e}"))
    _conclude(4, checks)


def test_criterion_5_oracle_equivalence(golden):
    config, eq, result, _ = golden
    checks = [
        ("simulator terminal vs equilibrium solver < 1e-3 MW",
         bool(np.max(np.abs(result.terminal.P - eq.P_star)) < 1e-3),
         f"max gap {np.max(np.abs(result.terminal.P - eq.P_star)):.2e}"),
    ]

    # lossless pair: closed-form equal marginal cost split
    gens = (GeneratorSpec(a=10.0, b=1.0, c=0.05), GeneratorSpec(a=5.0, b=2.0, c=0.08))
    model = KronLossModel(np.zeros((2, 2)), np.zeros(2), 0.0)
    d = 100.0
    p1 = (2 * 0.08 * d + 2.0 - 1.0) / (2 * 0.05 + 2 * 0.08)
    sol = solve_equilibrium(gens, model, d)
    checks.append(("lossless closed form to 1e-8 MW",
                   bool(np.max(np.abs(sol.P_star - [p1, d - p1])) < 1e-8),
                   f"{sol.P_star.tolist()}"))

    grid = brute_force_optimum(gens, model, d, grid_step=0.01)
    checks.append(("brute-force grid within resolution",
                   bool(abs(grid[0] - p1) <= 0.01), f"{grid.tolist()}"))
    _conclude(5, checks)


def _random_instance(rng):
    n = int(rng.integers(2, 7))
    M = rng.uniform(0.0, 10.0 ** rng.uniform(-5, -3), size=(n, n))
    model = KronLossModel((M + M.T) / 2.0, rng.uniform(0.0, 1e-2, size=n),
                          rng.uniform(0.0, 5.0))
    gens = tuple(GeneratorSpec(a=float(rng.uniform(0, 100)),
                               b=float(rng.uniform(0.5, 5.0)),
                               c=float(rng.uniform(0.01, 0.2)))
                 for _ in range(n))
    P = rng.uniform(0.0, 300.0, size=n)
    return model, gens, P


def test_criterion_6_property_suites():
    cases = 10_000
    rng = np.random.default_rng(2024)

    identity_bad = 0
    for _ in range(cases):
        model, _, P = _random_instance(rng)
        own = model.own_loss_gradient(P)
        half = 0.5 * model.total_loss_gradient(P) + np.diag(model.B) * P + model.B0 / 2.0
        if np.max(np.abs(own - half)) > 1e-12:
            identity_bad += 1

    mean_bad = 0
    for _ in range(cases):
        zeta = rng.uniform(0.0, 10.0, size=int(rng.integers(1, 8)))
        m = rng.choice([0.3, 0.75, 1.5, 3.0])
        if not power_mean_check(zeta, m):
            mean_bad += 1

    bounds_bad = 0
    for _ in range(cases):
        model, gens, P = _random_instance(rng)
        if not verify_lemma3_bounds(model, gens, P).all_ok:
            bounds_bad += 1

    fd_bad = 0
    for _ in range(cases):
        model, gens, P = _random_instance(rng)
        grad_F, grad_M, _ = curvature_matrices(model, gens, P)
        n = len(P)
        bvec = np.array([g.b for g in gens])
        cvec = np.array([g.c for g in gens])

        def F_vec(Q):
            return model.total_loss_gradient(Q) * (2 * cvec * Q + bvec)

        def M_vec(Q):
            return (np.diag(model.B) * Q + model.B0 / 2.0) * (2 * cvec * Q + bvec)

        j = int(rng.integers(0, n))
        worst = 0.0
        for h in (1e-3, 5e-4):
            e = np.zeros(n)
            e[j] = h
            err_F = np.max(np.abs((F_vec(P + e) - F_vec(P - e)) / (2 * h) - grad_F[:, j]))
            err_M = np.max(np.abs((M_vec(P + e) - M_vec(P - e)) / (2 * h) - grad_M[:, j]))
            # quadratic maps: the O(h^2) truncation term vanishes, leaving
            # only roundoff, comfortably inside the K*h^2 envelope
            worst = max(worst, err_F - max(1e-9, h * h), err_M - max(1e-9, h * h))
        if worst > 0:
            fd_bad += 1

    _conclude(6, [
        ("gradient identity to 1e-12", identity_bad == 0, f"{identity_bad}/{cases} bad"),
        ("power-mean inequalities", mean_bad == 0, f"{mean_bad}/{cases} bad"),
        ("curvature bounds R1-R5", bounds_bad == 0, f"{bounds_bad}/{cases} bad"),
        ("finite-difference envelope", fd_bad == 0, f"{fd_bad}/{cases} bad"),
    ])


def test_criterion_7_disturbance_robustness(golden):
    config, _, _, _ = golden
    params = dataclasses.replace(config.params, t_end=20.0)
    quiet = run(config.system(), params)
    noisy = run(config.system(), params,
                disturbance=DisturbanceSpec(enabled=True, amplitude=0.5, seed=42))
    gap = np.max(np.abs(noisy.terminal.P - quiet.terminal.P))
    _conclude(7, [
        ("terminal dispatch within 0.5 MW of undisturbed run",
         bool(gap <= 0.5), f"max gap {gap:.3f} MW"),
    ])


def test_criterion_8_lyapunov_monotone(golden):
    config, _, result, _ = golden
    t, V = result.trajectory.t, result.trajectory.V
    keep = t >= 0.1
    diffs = np.diff(V[keep])
    worst = diffs.max() if diffs.size else 0.0
    _conclude(8, [
        ("V nonincreasing after t = 0.1 s (slack 1e-9)",
         bool(worst <= 1e-9), f"worst increase {worst:.3e}"),
    ])
