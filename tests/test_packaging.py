import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fxdispatch"
PERFBENCH = ROOT / "perfbench"
# distribution name -> top-level module, where they differ
MODULE_OF = {"pyyaml": "yaml"}


def imported_third_party():
    """Top-level modules the package imports that are neither stdlib nor its own."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - sys.stdlib_module_names - {"fxdispatch"}


def declared_modules():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower() for d in deps}
    return {MODULE_OF.get(name, name) for name in names}


def test_runtime_dependencies_are_exactly_the_imports():
    assert declared_modules() == imported_third_party()


def benchmark_attributes():
    """(module, dotted name) of every fxdispatch attribute the benchmark uses:
    its tracer's TARGETS, each fx.<module>.<name> in its sources, and
    DispatchSystem.dbar, which it reads off a system."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    used = {(module, attr) for module, attr, _, _ in spans.TARGETS}
    for path in PERFBENCH.glob("*.py"):
        used.update(m.groups() for m in re.finditer(r"\bfx\.(\w+)\.(\w+(?:\.\w+)*)", path.read_text()))
    return used | {("dynamics", "DispatchSystem.dbar")}


def test_benchmark_attributes_exist():
    # a rename in the package fails here, not first in the benchmark
    used = benchmark_attributes()
    assert {("dynamics", "step"), ("dynamics", "make_state"), ("dynamics", "solve_power"),
            ("dynamics", "_HAVE_NUMBA"), ("cli", "evaluate_gates"), ("dynamics", "run")} <= used
    missing = []
    for module, dotted in sorted(used):
        obj = importlib.import_module(f"fxdispatch.{module}")
        for name in dotted.split("."):
            if not hasattr(obj, name):
                missing.append(f"{module}.{dotted}")
                break
            obj = getattr(obj, name)
    assert not missing


# the parameter names of every callable fxdispatch exports, dataclass fields
# included; () for an exception that takes only a message. A new settable
# value edits this table in the same diff.
PUBLIC_PARAMETERS = {
    "AlgorithmParams": ("k1", "k2", "mu", "nu", "dt", "t_end", "fp_tol", "fp_max_iter", "settle_tol",
                        "settle_window"),
    "AssumptionReport": ("rho", "b1", "bN", "a2_value", "connected_ok", "a1_per_generator", "remark2_ok", "sigma",
                         "delta"),
    "AssumptionViolation": (),
    "ConfigurationError": (),
    "CostSummary": ("sigma", "delta"),
    "DispatchSystem": ("gens", "loss", "top"),
    "DisturbanceSpec": ("enabled", "amplitude", "seed", "kind"),
    "EquilibriumSolution": ("P_star", "mu_star", "cost_star", "loss_star", "constraint_residual",
                            "consensus_residual", "iterations"),
    "GeneratorSpec": ("a", "b", "c", "p0", "d0"),
    "KronLossModel": ("B", "B0", "B00"),
    "LocalTopology": ("n", "edges"),
    "NewtonFailure": ("msg", "best"),
    "RunConfig": ("generators", "loss", "topology", "params", "disturbance", "output", "z0"),
    "RunResult": ("trajectory", "terminal", "settle_time", "c_star", "fail_step", "steps", "switch_time",
                  "implicit_newton_iters", "power_solve_iters", "rejected_steps"),
    "SMatrix": ("S", "tau"),
    "SettlingBound": ("alpha", "beta", "mu", "nu"),
    "SimulationState": ("t", "z", "P", "lam", "H", "cost", "loss"),
    "SpectralSummary": ("eigenvalues",),
    "StepFailure": (),
    "assemble_assumption_report": ("model", "gens", "top"),
    "brute_force_optimum": ("gens", "model", "d_total", "grid_step"),
    "build_s_matrix": ("model", "summary"),
    "check_a1": ("model", "dbar"),
    "check_a2": ("model", "summary"),
    "check_connected": ("top",),
    "cost_summary": ("gens",),
    "kkt_penalty_solution": ("gens", "model", "d_total"),
    "laplacian": ("top",),
    "load_config": ("path",),
    "path_topology": ("n",),
    "power_mean_check": ("zeta", "m"),
    "run": ("system", "params", "disturbance", "z0", "c_star", "stride"),
    "save_config": ("config", "path"),
    "settling_bound": ("params", "rho", "tau1", "phi2", "n"),
    "sig_pow": ("x", "m"),
    "solve_equilibrium": ("gens", "model", "d_total"),
    "solve_power": ("z", "system", "prev_P", "fp_tol", "fp_max_iter"),
    "spectrum": ("top",),
    "step": ("state", "system", "params"),
    "total_cost": ("gens", "P"),
    "total_demand": ("gens",),
    "verify_lemma3_bounds": ("model", "gens", "P"),
}


def exported_names():
    """The names fxdispatch/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def parameter_names(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # a builtin constructor, such as an exception's
        return ()


def test_public_parameters():
    fx = importlib.import_module("fxdispatch")
    assert {name: parameter_names(getattr(fx, name)) for name in exported_names()} == PUBLIC_PARAMETERS
