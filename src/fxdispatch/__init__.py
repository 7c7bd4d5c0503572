"""Fixed-time consensus economic dispatch with quadratic transmission losses.

A simulator library for loss-aware economic dispatch over a two-layer
communication topology: generator cost and B-coefficient loss models,
assumption gates with their eigenvalue machinery, the analytic
settling-time bound, the continuous-time consensus dynamics, and
independent equilibrium oracles for cross-validation.
"""

from .analysis import (
    AssumptionReport,
    SettlingBound,
    SMatrix,
    assemble_assumption_report,
    build_s_matrix,
    check_a1,
    check_a2,
    power_mean_check,
    settling_bound,
    verify_lemma3_bounds,
)
from .config import RunConfig, load_config, save_config
from .dynamics import (
    AlgorithmParams,
    DispatchSystem,
    DisturbanceSpec,
    RunResult,
    SimulationState,
    StepFailure,
    run,
    sig_pow,
    solve_power,
    step,
)
from .grid_model import (
    AssumptionViolation,
    ConfigurationError,
    CostSummary,
    GeneratorSpec,
    KronLossModel,
    cost_summary,
    total_cost,
    total_demand,
)
from .oracle import (
    EquilibriumSolution,
    NewtonFailure,
    brute_force_optimum,
    kkt_penalty_solution,
    solve_equilibrium,
)
from .topology import LocalTopology, SpectralSummary, check_connected, laplacian, path_topology, spectrum

__version__ = "0.1.0"
