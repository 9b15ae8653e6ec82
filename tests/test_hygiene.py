"""Static hygiene of the package source, read with the standard library's
``ast``: every imported name is used (or re-exported as ``x as x``);
``verify`` imports only ``digraph`` and ``errors``, and ``exact`` no
constructive module; every private module-level function or class is
referenced somewhere in the package beyond its own definition, and every
public one somewhere in the package or through ``strongpack`` in its
tests or its benchmark (the ``__init__`` export table does not count);
no ``assert`` statement, since ``python -O`` strips it, so a check must
raise instead; one function that splits text into lines; one function
that calls the kernel directly, and ``exact`` imports it only where its
driver searches; one place outside ``digraph`` pairs a forward and a
backward closure; and no package module imports ``cli``.  Modules of the
``commands`` subpackage are keyed by their path, ``commands/pack.py``."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "strongpack"
TREES = {p.relative_to(SRC).as_posix(): ast.parse(p.read_text(), filename=str(p))
         for p in sorted(SRC.rglob("*.py"))}
CHECKED = sorted(name for name in TREES if name != "__init__.py")
CALLERS = [ast.parse(p.read_text(), filename=str(p))
           for d in (ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
MODULES = {name[:-3] for name in TREES} - {"__init__"}
# the package's export table: exported name -> (defining module, name there)
EXPORTS = {name: (where.partition(".")[0], where.partition(".")[2] or name)
           for name, where in ast.literal_eval(next(
               stmt.value for stmt in TREES["__init__.py"].body
               if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "_EXPORTS")).items()}


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
    """``from m import x as x`` is an explicit re-export and exempt."""
    tree = TREES[module]
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.asname != a.name}
    assert sorted(bound - _loaded_names(tree)) == []


def _module_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports at module level."""
    found = set()
    for stmt in TREES[module].body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            found |= {stmt.module} if stmt.module else {a.name for a in stmt.names}
    return found


def test_verify_and_exact_import_no_construction():
    """``verify`` needs only ``digraph`` and ``errors``, and ``exact`` loads
    no constructive module, so the solvers and the ``verify`` subcommand
    never compile the constructions."""
    assert _module_imports("verify.py") == {"digraph", "errors"}
    assert not _module_imports("exact.py") & {"packing", "composition", "hamilton"}


def _caller_refs(tree: ast.Module) -> set[tuple[str, str]]:
    """The (module, name) pairs a test or benchmark file reaches through
    ``strongpack``: ``from strongpack[.module] import X``, and ``alias.X``
    where the alias is the package (resolved through the export table) or
    one of its modules.  A bare name that no import binds to the package
    does not count, however it is spelled."""
    homes = {"strongpack": ""}  # local name -> module; "" is the package
    refs = set()

    def resolve(home, name):
        return EXPORTS.get(name, (home, name)) if home == "" else (home, name)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "strongpack":
                    homes[a.asname or "strongpack"] = a.name.partition(".")[2] if a.asname else ""
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "strongpack":
            home = node.module.partition(".")[2]
            for a in node.names:
                if home == "" and a.name in MODULES:
                    homes[a.asname or a.name] = a.name
                else:
                    refs.add(resolve(home, a.name))

    def home_of(node):
        if isinstance(node, ast.Name):
            return homes.get(node.id)
        if isinstance(node, ast.Attribute) and node.attr in MODULES \
                and home_of(node.value) == "":
            return node.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (home := home_of(node.value)) is not None:
            refs.add(resolve(home, node.attr))
    return refs


CALLER_REFS = set().union(*map(_caller_refs, CALLERS))


@functools.cache
def _uses() -> list[tuple[ast.stmt, set[str]]]:
    """Every top-level statement of the package with the names it references."""
    return [(stmt, _referenced(stmt)) for tree in TREES.values() for stmt in tree.body]


def _unused(module: str, public: bool) -> list[str]:
    """The public (or private) module-level functions and classes of
    ``module`` that no other top-level statement of the package references
    and, for public ones, that the tests and the benchmark do not reach
    through ``strongpack`` either."""
    return [
        stmt.name for stmt in TREES[module].body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") != public and not stmt.name.startswith("__")
        and not (public and (module[:-3], stmt.name) in CALLER_REFS)
        and not any(stmt.name in names for other, names in _uses() if other is not stmt)]


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


def test_one_row_scanner():
    """Only ``digraph._rows`` splits text into lines, so every text format
    shares its rule for which lines are data and which line an error names."""
    callers = [f"{module[:-3]}.{fn.name}" for module, tree in TREES.items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "splitlines"]
    assert callers == ["digraph._rows"]


def _is_kernel_ref(node: ast.AST) -> bool:
    """``node`` reads ``_kernel.<name>``."""
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernel"


def _imports_of(module: str, tree: ast.AST) -> set[str]:
    """The dotted names of the modules and objects that the import
    statements under ``tree`` bind, relative imports resolved against
    ``module``'s path under the package."""
    package = ["strongpack", *module.split("/")[:-1]]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            prefix = ".".join(base + ([node.module] if node.module else []))
            found |= {prefix} | {f"{prefix}.{a.name}" for a in node.names}
    return found


def test_one_kernel_caller():
    """Only ``packing._c3_core_parts`` calls ``_kernel`` directly.  ``exact``
    imports and reads ``_kernel`` only inside ``_pack_upward``, so every
    search it makes runs after the driver's bound and greedy and before its
    one verify, and an answer they certify never loads the kernel."""
    callers = [f"{module[:-3]}.{fn.name}" for module, tree in TREES.items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and _is_kernel_ref(node.func)]
    assert callers == ["packing._c3_core_parts"]
    driver = next(fn for fn in TREES["exact.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_pack_upward")
    inside = set(map(id, ast.walk(driver)))
    refs = [node for node in ast.walk(TREES["exact.py"]) if _is_kernel_ref(node)]
    assert refs and all(id(ref) in inside for ref in refs)
    assert "strongpack._kernel" not in _imports_of("exact.py", ast.Module(
        [fn for fn in TREES["exact.py"].body if fn is not driver], []))
    assert "strongpack._kernel" in _imports_of("exact.py", driver)


def test_verify_only_in_the_driver():
    """``exact`` imports ``verify`` only inside ``_pack_upward``, where the
    one verify of every returned packing runs, so a cut, which builds no
    packing, never compiles the verifier."""
    driver = next(fn for fn in TREES["exact.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_pack_upward")
    assert "strongpack.verify" not in _imports_of("exact.py", ast.Module(
        [fn for fn in TREES["exact.py"].body if fn is not driver], []))
    assert "strongpack.verify" in _imports_of("exact.py", driver)


def test_no_module_imports_cli():
    """Under ``python -m strongpack.cli`` the module runs as ``__main__``, so
    a package module that imported ``strongpack.cli`` would compile it a
    second time.  Only ``__main__`` (``python -m strongpack``) imports it."""
    importers = [module for module, tree in TREES.items()
                 if "strongpack.cli" in _imports_of(module, tree)]
    assert importers == ["__main__.py"]


def test_one_forward_backward_pair():
    """No function outside ``digraph`` calls ``reachable`` more than once, so
    a strong component is built from a forward and a backward closure only
    in ``digraph.strong_component``."""
    def calls(fn):
        return sum(isinstance(node, ast.Call) and "reachable" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(fn))

    pairs = [f"{module[:-3]}.{fn.name}" for module, tree in TREES.items()
             if module != "digraph.py" for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and calls(fn) > 1]
    assert pairs == []
