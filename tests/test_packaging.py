import ast
import importlib
import importlib.util
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
