import ast
from pathlib import Path

import bosonbin

SOURCES = Path(__file__).resolve().parents[1] / "src" / "bosonbin"
# the MPB rule (bin sums, heaviest bin, runner-up) has one home, binning.py
REDUCTIONS = {"reduceat", "argmax"}


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
