"""The package's import layers and its one budget error, read from the source."""

import ast
import importlib
from pathlib import Path

import pytest

import sierpinski

SRC = Path(sierpinski.__file__).resolve().parent

# the package modules each layer may import; cli and __init__ sit on top
ALLOWED = {"arith": set(), "_cover_kernels": set()}
ALLOWED["covering"] = {"arith", "_cover_kernels"}
ALLOWED["cyclotomic"] = {"arith"}
ALLOWED["construct"] = {"arith", "_cover_kernels", "covering", "cyclotomic"}
ALLOWED["search"] = ALLOWED["construct"] | {"construct"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(module: str) -> set[str]:
    """The package modules that src/sierpinski/<module>.py imports anywhere in its code."""
    found = set()
    for node in ast.walk(_tree(SRC / f"{module}.py")):
        if isinstance(node, ast.Import):
            targets = [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "sierpinski" if node.level else ""
            target = ".".join(part for part in (base, node.module) if part)
            targets = [(target, tuple(alias.name for alias in node.names))]
        else:
            continue
        for target, names in targets:
            parts = target.split(".")
            if parts[0] != "sierpinski":
                continue
            found |= {parts[1]} if len(parts) > 1 else set(names)
    return found


def test_every_layer_is_listed():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__", "cli"} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_stay_below(module):
    assert package_imports(module) <= ALLOWED[module]


def test_budget_exceeded_is_defined_once_in_arith():
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef) and node.name == "BudgetExceeded"
    ]
    assert defined == ["arith.py"]
    # sierpinski.construct is the function; the module is imported by name
    covering = importlib.import_module("sierpinski.covering")
    construct = importlib.import_module("sierpinski.construct")
    assert covering.BudgetExceeded is sierpinski.BudgetExceeded is sierpinski.arith.BudgetExceeded
    assert construct.FactorBudgetExceeded is sierpinski.FactorBudgetExceeded
    assert issubclass(sierpinski.FactorBudgetExceeded, sierpinski.BudgetExceeded)


def _package_modules():
    return [path.stem for path in sorted(SRC.glob("*.py"))]


def test_private_imports_are_construct_factoring_stages():
    # `from . import _cover_kernels` names a module, not a private name of one
    private = {
        (module, alias.name)
        for module in _package_modules()
        for node in ast.walk(_tree(SRC / f"{module}.py"))
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("sierpinski"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {("construct", "_trial_division"), ("construct", "_factor_rest")}


def _reads_environment(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
        return node.attr in ("environ", "getenv")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


@pytest.mark.parametrize("module", _package_modules())
def test_no_environment_reads(module):
    assert not any(_reads_environment(node) for node in ast.walk(_tree(SRC / f"{module}.py")))
