import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fxdispatch"
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
