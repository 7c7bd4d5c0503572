import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from tests.conftest import benchmark_workloads

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


def names_used_from_dynamics(path):
    """The names a package module takes from fxdispatch.dynamics: those it
    imports from .dynamics, and the attributes it reads off the module where
    it imports the module itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, as_module = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "dynamics":
                names.update(alias.name for alias in node.names)
            elif node.module is None:
                as_module |= any(alias.name == "dynamics" and alias.asname is None for alias in node.names)
    if as_module:
        names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id == "dynamics")
    return names


def test_modules_take_only_public_names_from_dynamics():
    # the integrator module lends out no private helper; shared input checks
    # live in grid_model, which every module can import without a cycle
    used = {path.name: names_used_from_dynamics(path)
            for path in PACKAGE.glob("*.py") if path.name != "dynamics.py"}
    assert {"AlgorithmParams", "StepFailure", "run"} <= set().union(*used.values())
    private = {name: sorted(n for n in names if n.startswith("_")) for name, names in used.items()}
    assert {name: names for name, names in private.items() if names} == {}


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


def test_benchmark_workloads_pass_once(tmp_path):
    # the benchmark also reads attributes off the values it gets back (gates.report.rho,
    # gates.tau1, the report's verdicts), which the name scan above cannot see
    importlib.import_module("fxdispatch.cli")  # the workloads call fx.cli.main
    fx = importlib.import_module("fxdispatch")
    workloads = benchmark_workloads()
    assert set(workloads.WORKLOADS) == {"reference_run", "scenario_sweep", "large_fleet"}
    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        attempted, failures = workload(fx, 1, work).run_pass()
        assert attempted > 0 and failures == [], name


# the parameter names of every callable fxdispatch exports, dataclass fields
# included; () for an exception that takes only a message. A new settable
# value edits this table in the same diff.
PUBLIC_PARAMETERS = {
    "AlgorithmParams": ("k1", "k2", "mu", "nu", "dt", "t_end", "fp_tol", "fp_max_iter", "settle_tol",
                        "settle_window"),
    "AssumptionReport": ("rho", "b1", "bN", "sigma", "delta", "a1_per_generator", "remark2_ok"),
    "AssumptionViolation": (),
    "ConfigurationError": (),
    "DispatchSystem": ("gens", "loss", "top"),
    "DisturbanceSpec": ("enabled", "amplitude", "seed", "kind"),
    "EquilibriumSolution": ("P_star", "mu_star", "cost_star", "loss_star", "constraint_residual",
                            "consensus_residual", "iterations"),
    "GeneratorSpec": ("a", "b", "c", "p0", "d0"),
    "KronLossModel": ("B", "B0", "B00"),
    "LocalTopology": ("n", "edges"),
    "NewtonFailure": ("msg", "best"),
    "RunConfig": ("generators", "loss", "topology", "params", "disturbance", "output", "z0"),
    "RunResult": ("trajectory", "settle_time", "min_power", "fail_step", "steps",
                  "switch_time", "implicit_newton_iters", "power_solve_iters", "rejected_steps",
                  "chord_factors"),
    "SettlingBound": ("alpha", "beta", "mu", "nu"),
    "SimulationState": ("t", "z", "P", "cost", "loss", "residual"),
    "StepFailure": (),
    "assemble_assumption_report": ("model", "gens", "top"),
    "brute_force_optimum": ("gens", "model", "d_total", "grid_step"),
    "build_s_matrix": ("model", "sigma", "delta"),
    "kkt_penalty_solution": ("gens", "model", "d_total"),
    "load_config": ("path",),
    "run": ("system", "params", "disturbance", "z0", "c_star", "stride"),
    "save_config": ("config", "path"),
    "settling_bound": ("params", "rho", "tau1", "phi2", "n"),
    "solve_equilibrium": ("gens", "model", "d_total"),
    "solve_power": ("z", "system", "prev_P", "fp_tol", "fp_max_iter"),
    "spectrum": ("top",),
    "step": ("state", "system", "params"),
    "total_cost": ("gens", "P"),
    "total_demand": ("gens",),
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


def test_every_entry_taking_a_fleet_and_a_loss_model_refuses_a_size_mismatch(ref_gens, ref_model, ref_top):
    # every exported callable with a gens and a model or loss parameter, called
    # with keywords from one table: a later one that skips grid_model._check_sizes
    # fails here without a case of its own
    fx = importlib.import_module("fxdispatch")
    values = {"gens": ref_gens[:2], "model": ref_model, "loss": ref_model, "top": ref_top,
              "d_total": 100.0, "grid_step": 1.0}
    entries = [name for name, params in PUBLIC_PARAMETERS.items()
               if "gens" in params and {"model", "loss"} & set(params)]
    assert {"DispatchSystem", "assemble_assumption_report", "solve_equilibrium", "kkt_penalty_solution",
            "brute_force_optimum"} <= set(entries)
    for name in entries:
        with pytest.raises(ValueError, match=r"^2 generators but loss matrix is 4x4$"):
            getattr(fx, name)(**{param: values[param] for param in PUBLIC_PARAMETERS[name]})


#: the directories outside src/ whose code counts as a caller
CALLER_DIRS = ("demos", "tools", "perfbench")


def test_every_exported_function_has_a_caller_outside_the_tests():
    # a function fxdispatch exports is named, as a word, in one of its other
    # modules or under CALLER_DIRS; a class is exempt, as the type those
    # functions take or return
    fx = importlib.import_module("fxdispatch")
    modules = {path: path.read_text() for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    elsewhere = [path.read_text() for folder in CALLER_DIRS for path in (ROOT / folder).rglob("*.py")]
    uncalled = []
    for name in exported_names():
        obj = getattr(fx, name)
        if inspect.isfunction(obj):
            home = Path(inspect.getsourcefile(obj)).resolve()
            texts = [text for path, text in modules.items() if path != home] + elsewhere
            if not any(re.search(rf"\b{name}\b", text) for text in texts):
                uncalled.append(name)
    assert uncalled == []


# the parameter names of every public function fxdispatch.cli defines, which
# the package does not export; a new settable value edits this table too
CLI_PARAMETERS = {
    "cmd_bound": ("config",),
    "cmd_check": ("config",),
    "cmd_oracle": ("config",),
    "cmd_run": ("config", "out_dir", "force"),
    "evaluate_gates": ("config",),
    "main": ("argv",),
}


def test_cli_parameters():
    cli = importlib.import_module("fxdispatch.cli")
    functions = {name: obj for name, obj in vars(cli).items()
                 if inspect.isfunction(obj) and obj.__module__ == cli.__name__ and not name.startswith("_")}
    assert {name: parameter_names(obj) for name, obj in functions.items()} == CLI_PARAMETERS
