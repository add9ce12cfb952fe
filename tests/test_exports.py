import ast
from pathlib import Path

import pytest

import bosonbin
from bosonbin import rng as rng_policy
from bosonbin.binning import make_partition
from bosonbin.distribution import full_distribution
from bosonbin.fock import space_size
from bosonbin.linalg import haar_unitary, identity_unitary
from bosonbin.problems import joint_success_probability
from bosonbin.sampling import chernoff_sample_size, draw_outcomes

SOURCES = Path(__file__).resolve().parents[1] / "src" / "bosonbin"
# the MPB rule (bin sums, heaviest bin, runner-up) has one home, binning.py
REDUCTIONS = {"reduceat", "argmax"}
# the one type rule (rng._fits and the checks built on it) and its helpers
TYPE_RULE = {"_fits", "_kind", "_check", "_check_int", "_check_fields"}
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


def _is_bool_check(node: ast.AST) -> bool:
    """isinstance(..., bool) or isinstance(..., (..., bool, ...))."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return False
    return any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[-1]))


def test_only_rng_holds_the_type_rule():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _is_bool_check(node) or isinstance(node, ast.FunctionDef) and node.name in TYPE_RULE:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node).splitlines()[0]}")
    assert found and all(line.startswith("rng.py:") for line in found), found


def _integer_arguments():
    dist = full_distribution(identity_unitary(3), (1, 1, 0))
    return {
        "runs": lambda v: draw_outcomes(dist, v, rng_policy.generator(1)),
        "seed_count": lambda v: joint_success_probability(0.5, v),
        "space_size": lambda v: make_partition(v, 2),
        "num_bins": lambda v: make_partition(10, v),
        "chernoff num_bins": lambda v: chernoff_sample_size(v, 0.1, 0.0, 0.05, 0.0),
        "modes": lambda v: space_size(v, 2),
        "photons": lambda v: space_size(3, v),
        "haar modes": lambda v: haar_unitary(v, rng_policy.generator(1)),
        "seed": rng_policy.generator,
        "count": lambda v: rng_policy.split(1, v),
    }


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("argument", sorted(_integer_arguments()))
def test_integer_arguments_refuse_floats_and_bools(argument, value):
    # 2.5 used to draw 2 outcomes and True 1, and a True seed count was 1
    with pytest.raises(ValueError, match=f"^{argument.split()[-1]} must be an integer >= "):
        _integer_arguments()[argument](value)
