"""What the package exports, and what the benchmark harness and the test
oracles bind to, checked by name.

``perfbench/tracer.py`` wraps functions by module and name, and
``perfbench/workloads.py`` imports from the package. A renamed or moved name
would otherwise surface only when the traced benchmark pass runs.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import quncert

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# The stacked kernels and search paths of the program; an oracle that called
# one would check the program against itself.
KERNELS = {
    "branch_spectra",
    "branch_matrix",
    "branch_entropies",
    "entropies",
    "basis_projectors",
    "concurrences",
    "_complementarities",
    "_reports",
    "_search",
    "classical_correlation",
    "classical_correlations",
    "evaluate_bounds",
    "evaluate_bounds_many",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _wrapped():
    """The (module, names, layer) triples of the tracer's WRAPPED, read without importing it."""
    for node in _tree(PERFBENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no WRAPPED")


def _quncert_imports(path: Path):
    """(module, name) of each name a file imports from the package."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "quncert":
            for alias in node.names:
                yield node.module, alias.name


def test_tracer_wraps_only_package_functions():
    wrapped = _wrapped()
    assert wrapped
    for module_name, names, _ in wrapped:
        module = importlib.import_module(f"quncert.{module_name}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"quncert.{module_name}.{name}"


def test_benchmark_imports_resolve():
    # so that ``from quncert import scenarios`` finds the submodule as an attribute
    for info in pkgutil.iter_modules(quncert.__path__):
        importlib.import_module(f"quncert.{info.name}")
    imports = [pair for file in ("workloads.py", "test_perfbench.py") for pair in _quncert_imports(PERFBENCH / file)]
    assert imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"


def test_oracles_do_not_call_the_kernels():
    tree = _tree(Path(__file__).with_name("oracles.py"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert not names & KERNELS, sorted(names & KERNELS)


def test_all_names_resolve():
    missing = [name for name in quncert.__all__ if not hasattr(quncert, name)]
    assert not missing
    exec("from quncert import *", {})
