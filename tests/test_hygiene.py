"""Static hygiene of the package source, read with the standard library's
``ast``: every imported name is used, and every private module-level
function or class is referenced somewhere beyond its own definition."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "strongpack"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string annotations under ``node``."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.arg):
            anns = [sub.annotation]
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            anns = [sub.returns]
        elif isinstance(sub, ast.AnnAssign):
            anns = [sub.annotation]
        else:
            continue
        for ann in filter(None, anns):
            for leaf in ast.walk(ann):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    found |= _loaded_names(ast.parse(leaf.value, mode="eval"))
    return found


def _loaded_names(node: ast.AST) -> set[str]:
    """Plain names read under ``node``, string annotations included."""
    names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    return names | _annotation_names(node)


def _referenced(node: ast.AST) -> set[str]:
    """Plain names and attribute names read under ``node``."""
    attrs = {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
    return _loaded_names(node) | attrs


@pytest.mark.parametrize("module", CHECKED)
def test_every_import_is_used(module):
    tree = TREES[module]
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    assert sorted(bound - _loaded_names(tree)) == []


@pytest.mark.parametrize("module", CHECKED)
def test_every_private_definition_is_referenced(module):
    uses = [(stmt, _referenced(stmt)) for tree in TREES.values() for stmt in tree.body]
    unused = [
        stmt.name for stmt in TREES[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for other, names in uses if other is not stmt)]
    assert unused == []
