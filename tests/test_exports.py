import ast
from pathlib import Path

import bosonbin

SOURCES = Path(__file__).resolve().parents[1] / "src" / "bosonbin"
# the MPB rule (bin sums, heaviest bin, runner-up) has one home, binning.py
REDUCTIONS = {"reduceat", "argmax"}
# each module imports only modules listed before it
LAYERS = ("io", "rng", "fock", "linalg", "distribution", "binning", "sampling", "problems", "experiments", "cli")


def test_all_lists_each_export_once_in_order():
    names = bosonbin.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(bosonbin, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bosonbin import *", namespace)
    assert set(bosonbin.__all__) <= set(namespace)


def _is_reduction(node: ast.AST) -> bool:
    if not isinstance(node, ast.Attribute):
        return False
    if node.attr in REDUCTIONS:
        return True
    return node.attr == "partition" and isinstance(node.value, ast.Name) and node.value.id == "np"


def test_only_binning_reduces_bins():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _is_reduction(node):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found and all(line.startswith("binning.py:") for line in found), found


def _relative_imports(tree: ast.AST):
    """Modules a module of this package imports; it imports them relatively."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else [alias.name for alias in node.names]


def test_each_module_imports_only_the_modules_before_it():
    assert {path.stem for path in SOURCES.glob("*.py")} == {*LAYERS, "__init__"}
    found = []
    for i, name in enumerate(LAYERS):
        path = SOURCES / f"{name}.py"
        for module in _relative_imports(ast.parse(path.read_text(), filename=str(path))):
            if module.split(".")[0] not in LAYERS[:i]:
                found.append(f"{name} imports {module}")
    assert not found, found
