"""The package's import layers, its one budget error and its exports, read from the source."""

import ast
import importlib
import re
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
    # `from . import _cover_kernels` names a module, not a private name of one;
    # search loads arith's GMP kernel before it forks its elimination workers
    private = {
        (module, alias.name)
        for module in _package_modules()
        for node in ast.walk(_tree(SRC / f"{module}.py"))
        if isinstance(node, ast.ImportFrom) and node.module and (node.level or node.module.startswith("sierpinski"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {("construct", "_trial_division"), ("construct", "_factor_rest"), ("search", "_load_powm")}


def _reads_environment(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
        return node.attr in ("environ", "getenv")
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in ("environ", "getenv") for alias in node.names)
    return False


@pytest.mark.parametrize("module", _package_modules())
def test_no_environment_reads(module):
    assert not any(_reads_environment(node) for node in ast.walk(_tree(SRC / f"{module}.py")))


@pytest.mark.parametrize("module", [m for m in _package_modules() if m != "covering"])
def test_only_covering_reads_classes(module):
    # CoveringSystem.classes builds a checked ResidueClass per class; callers read residues and moduli
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "classes"
        for node in ast.walk(_tree(SRC / f"{module}.py"))
    )


class _References(ast.NodeVisitor):
    """Names and attributes read anywhere but inside the def or class of the same name."""

    def __init__(self):
        self.names, self.enclosing = set(), []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def test_every_export_has_a_user():
    # a public name serves the package only when code other than its own
    # body, the benchmark, the tools, the acceptance tests or the README uses it
    root = SRC.parents[1]
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "bench").glob("*.py"), *(root / "tools").glob("*.py"), root / "tests" / "test_acceptance.py"]
    refs = _References()
    for path in files:
        refs.visit(_tree(path))
    readme = (root / "README.md").read_text(encoding="utf-8")
    exported = {
        alias.asname or alias.name
        for node in _tree(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = {name for name in exported - refs.names if not re.search(rf"\b{name}\b", readme)}
    assert not unused, sorted(unused)


class _Calls(ast.NodeVisitor):
    """(module, innermost enclosing function) of each call of a name in one module."""

    def __init__(self, module: str, names):
        self.module, self.names, self.enclosing, self.found = module, set(names), [module], set()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in self.names:
            self.found.add((self.module, self.enclosing[-1]))
        self.generic_visit(node)


def calls_of(*names) -> set[tuple[str, str]]:
    found = set()
    for module in _package_modules():
        visitor = _Calls(module, names)
        visitor.visit(_tree(SRC / f"{module}.py"))
        found |= visitor.found
    return found


def test_one_certificate_builder():
    # construct and search_min both build their certificate through certify
    assert calls_of("SierpinskiCertificate") == {("construct", "certify")}


def test_congruence_references_have_no_callers_on_the_cell_path():
    # construct and search_min read classes from class_table; the congruence
    # list and the incremental CRT are the per-cell reference and the crt command
    assert calls_of("build_congruences", "crt_solve") == {("search", "crt_solve_for"), ("cli", "_cmd_crt")}
