"""Static hygiene of the package source, read with the standard library's
``ast``: every imported name is used, every private module-level function
or class is referenced somewhere in the package beyond its own definition,
and every public one somewhere in the package, its tests or its benchmark
(the ``__init__`` re-export does not count); and no ``assert`` statement,
since ``python -O`` strips it, so a check must raise instead."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strongpack"
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")
CALLERS = [ast.parse(p.read_text(), filename=str(p))
           for d in (ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]


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


# a name the package re-exports under an alias is used under either name
ALIASES = {(node.module, a.name): a.asname for node in TREES["__init__.py"].body
           if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}


@functools.cache
def _uses(with_callers: bool) -> list[tuple[ast.stmt, set[str]]]:
    """Every top-level statement of the package (and of the tests and the
    benchmark when ``with_callers``) with the names it references."""
    trees = list(TREES.values()) + (CALLERS if with_callers else [])
    return [(stmt, _referenced(stmt)) for tree in trees for stmt in tree.body]


def _unused(module: str, public: bool) -> list[str]:
    """The public (or private) module-level functions and classes of
    ``module`` that no other top-level statement references, in the
    package and, for public ones, in the tests and the benchmark too."""
    return [
        stmt.name for stmt in TREES[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") != public and not stmt.name.startswith("__")
        and not any({stmt.name, ALIASES.get((module[:-3], stmt.name))} & names
                    for other, names in _uses(public) if other is not stmt)]


@pytest.mark.parametrize("module", CHECKED)
def test_every_private_definition_is_referenced(module):
    assert _unused(module, public=False) == []


@pytest.mark.parametrize("module", CHECKED)
def test_every_public_definition_is_referenced(module):
    assert _unused(module, public=True) == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_assert_statement(module):
    lines = [node.lineno for node in ast.walk(TREES[module]) if isinstance(node, ast.Assert)]
    assert lines == []
