"""The package's import layers: errors, tolerances < oracles < certify <
trace < the method modules < cli. A module imports only from the layers
below its own; the method modules may import each other. Function-level
imports count too; `__init__` imports everything and is exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "accelib"
METHODS = ("composite", "extrapolation", "momentum", "poly_methods", "prox_outer", "restart")
LAYER = {"errors": 0, "tolerances": 1, "oracles": 2, "certify": 3, "trace": 4,
         **dict.fromkeys(METHODS, 5), "cli": 6}


def package_imports(path):
    """(line, module) of every import of a sibling module in the file at `path`,
    relative (`from .trace import drive`, `from . import certify`) or absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["accelib" if node.level else None, node.module]))
            names = [base, *(f"{base}.{a.name}" for a in node.names)]
        else:
            continue
        parts = [name.split(".") for name in names]
        for module in {p[1] for p in parts if p[0] == "accelib" and len(p) > 1} & set(LAYER):
            yield node.lineno, module


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == set(LAYER)


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_run_down_the_layers(module):
    own = LAYER[module]
    upward = [(line, name) for line, name in package_imports(PACKAGE / f"{module}.py")
              if not (LAYER[name] < own or LAYER[name] == own == 5 and name != module)]
    assert not upward, f"{module} imports from its own layer or above: {upward}"


def test_function_level_imports_are_seen():
    # momentum imports composite inside a function (allowed: both are method modules)
    assert "composite" in {name for _, name in package_imports(PACKAGE / "momentum.py")}
