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
    assemble_assumption_report,
    build_s_matrix,
    settling_bound,
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
    solve_power,
    step,
)
from .grid_model import (
    AssumptionViolation,
    ConfigurationError,
    GeneratorSpec,
    KronLossModel,
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
from .topology import LocalTopology, spectrum

__version__ = "0.1.0"
