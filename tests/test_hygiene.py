"""Static hygiene of the package source, read with the standard library's
``ast``: every imported name is used (or re-exported as ``x as x``);
``verify`` imports only ``_core`` and ``errors``, ``exact`` no
constructive module, and neither of them nor ``flows`` imports
``digraph``; every private module-level function or class is
referenced somewhere in the package beyond its own definition, and every
public one somewhere in the package or through ``strongpack`` in its
tests or its benchmark (the ``__init__`` export table does not count);
no ``assert`` statement, since ``python -O`` strips it, so a check must
raise instead; one function that decides which lines are data; one function
that calls the kernel directly, and ``exact`` imports it only where its
driver searches, right after the one size guard; one certify order in
that driver for every mode, its one greedy call, in no branch on the
mode, ahead of its one terminal scan, with no ``stop``, ``part1`` or
``_single_part`` name left in ``exact``; one shortest-path search,
``flows._path``, for the flows and the greedy; one place outside
``_core`` pairs a forward and a backward closure; one spine
construction, one composition dispatcher, one id map and one place that
builds a packing in ``packing``, and every part, also those ``pack``
renders, passes its one self-check; only ``analyze`` asks whether a
digraph is quasi-transitive; no package module imports ``cli``; and what lets
``cli.entry`` skip interpreter teardown holds: every ``open`` is a ``with``
item, only ``entry`` calls ``os._exit`` or ``gc.disable``, and no module
imports ``threading``; only the argparse builder calls ``add_argument``, and
each subcommand's options table names each option once; in ``commands``
only ``_write_out`` calls ``print`` or touches ``sys.stdout``.  Modules of
the ``commands`` subpackage are keyed by their path, ``commands/pack.py``."""

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
EXPORTS = {name: (module, name) for name, module in ast.literal_eval(next(
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
    """``verify`` needs only ``_core`` and ``errors``, and ``exact`` loads
    no constructive module, so the solvers and the ``verify`` subcommand
    never compile the constructions."""
    assert _module_imports("verify.py") == {"_core", "errors"}
    assert not _module_imports("exact.py") & {"packing", "composition", "hamilton"}


@pytest.mark.parametrize("module", ["exact.py", "flows.py", "verify.py"])
def test_solvers_and_verifier_import_no_digraph(module):
    """The solvers, the flows and the verifier import the digraph core, not
    ``digraph``, anywhere in the module, so none of them compiles the
    class predicates, the standard digraphs or the writer."""
    imported = _imports_of(module, TREES[module])
    assert "strongpack._core" in imported
    assert not [name for name in imported if name.split(".")[:2] == ["strongpack", "digraph"]]


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
    """Only ``_core._fields`` decides which lines are data, so every text
    format shares that rule: ``_rows`` asks it for every format's header and
    rows, and ``_core._digraph`` for each line its tight loop cannot take.
    No other function names the comment mark."""
    def functions(found):
        return {f"{module[:-3]}.{fn.name}" for module, tree in TREES.items()
                for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn) if found(node)}

    assert functions(lambda node: isinstance(node, ast.Name) and node.id == "_fields") == {
        "_core._rows", "_core._digraph"}
    assert functions(lambda node: isinstance(node, ast.Constant) and node.value == "#") == {
        "_core._fields"}


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


def test_one_size_guard():
    """``SolverLimits.check`` is the one size guard: it holds the package's
    only ``raise SizeLimitError`` and has one caller, ``_pack_upward``,
    whose first step where a search must run checks the limits and then
    imports the kernel.  ``_kernel`` imports nothing from ``errors``, and
    no command, ``survey`` included, calls a ``check``: a survey row is
    skipped when ``exact_lambda`` refuses it."""
    def named(node, name):
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    raises = [(module, node) for module, tree in TREES.items() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and named(getattr(node.exc, "func", node.exc),
                                                       "SizeLimitError")]
    limits = next(cls for cls in TREES["exact.py"].body
                  if isinstance(cls, ast.ClassDef) and cls.name == "SolverLimits")
    check = next(fn for fn in limits.body if isinstance(fn, ast.FunctionDef) and fn.name == "check")
    assert len(raises) == 1 and raises[0][1] in list(ast.walk(check))
    calls = [(module, node) for module, tree in TREES.items()
             if module == "exact.py" or module.startswith("commands/")
             for node in ast.walk(tree) if isinstance(node, ast.Call) and named(node.func, "check")]
    driver = next(fn for fn in TREES["exact.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_pack_upward")
    search = [node.body[:2] for node in ast.walk(driver) if isinstance(node, ast.If)
              and any(isinstance(stmt, ast.ImportFrom) for stmt in node.body)]
    assert len(calls) == 1 and len(search) == 1
    guard, kernel_import = search[0]
    assert guard.value is calls[0][1]
    assert [a.name for a in kernel_import.names] == ["_kernel"]
    assert not [name for name in _imports_of("_kernel.py", TREES["_kernel.py"])
                if name.startswith("strongpack.errors")]


def test_one_composition_dispatcher():
    """``packing._pack`` is the one composition packer: it holds the
    package's only ``raise InfeasibleError``, its only call of
    ``is_in_exceptional`` and its only ``n0 == 1`` test, and every public
    composition packer and ``pack`` call it, ``pack`` for both of its
    inputs; ``pack --composition`` leaves the outer class to it, so
    ``commands/pack.py`` asks no ``is_symmetric``."""
    def named(node, name):
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    tree = TREES["packing.py"]
    dispatcher = next(fn for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_pack")
    inside = set(map(id, ast.walk(dispatcher)))
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and named(getattr(node.exc, "func", node.exc), "InfeasibleError")]
    checks = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and named(node.func, "is_in_exceptional")]
    n0_one = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
              and named(node.left, "n0") and isinstance(node.ops[0], ast.Eq)
              and getattr(node.comparators[0], "value", None) == 1]
    for found in (raises, checks, n0_one):
        assert len(found) == 1 and id(found[0]) in inside
    assert sorted(_callers_in("packing.py", "_pack")) == [
        "pack_quasi_transitive", "pack_semicomplete_composition", "pack_symmetric_composition"]
    assert _callers_in("packing.py", "_checked") == ["_pack"]
    command = TREES["commands/pack.py"]
    streams = [node for node in ast.walk(command)
               if isinstance(node, ast.Call) and named(node.func, "_pack")]
    assert len(streams) == 2 and all(
        [(kw.arg, kw.value.value) for kw in call.keywords if kw.arg == "stream"]
        == [("stream", True)] for call in streams)
    assert not [node for node in ast.walk(command)
                if isinstance(node, ast.Call) and named(node.func, "is_symmetric")]


def test_one_certify_order():
    """``exact`` has one certify order for every mode: ``_greedy_parts`` is
    called once, inside ``_pack_upward``, under no test of ``internal`` and
    with the mode and the cap, and ahead of the driver's one
    ``_terminal_scan`` call, so capped and uncapped calls of lambda, kappa
    and sad run the greedy, the bound and the search in the same order.  No
    second size-1 rule (``_single_part``, ``part1``) and no ``stop`` name
    is left in the module.  The driver has one exit: its one ``return``
    comes after its one ``verify_packing`` call and hands back the object
    that call checked, a name bound once, so no answer, capped, uncapped
    or 0, leaves unverified."""
    tree = TREES["exact.py"]
    driver = next(fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_pack_upward")

    def calls(node, name):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == name]

    assert _callers_in("exact.py", "_greedy_parts") == ["_pack_upward"]
    (greedy,), (scan,) = calls(driver, "_greedy_parts"), calls(driver, "_terminal_scan")
    assert (greedy.lineno, greedy.col_offset) < (scan.lineno, scan.col_offset)
    assert [getattr(arg, "id", None) for arg in greedy.args[2:]] == ["internal", "cap"]
    mode_tests = [node for node in ast.walk(driver) if isinstance(node, (ast.If, ast.IfExp))
                  and "internal" in {getattr(name, "id", None) for name in ast.walk(node.test)}]
    assert not [node for node in mode_tests if greedy in ast.walk(node)]
    assert not [node for node in ast.walk(tree) if {"stop", "part1", "_single_part"} & {
        getattr(node, "id", None), getattr(node, "arg", None), getattr(node, "name", None)}]
    (answer,) = [node for node in ast.walk(driver) if isinstance(node, ast.Return)]
    (check,) = calls(driver, "verify_packing")
    assert check.lineno < answer.lineno
    (checked,), (_, returned) = check.args, answer.value.elts
    assert isinstance(checked, ast.Name) and isinstance(returned, ast.Name)
    assert checked.id == returned.id
    assert len([node for node in ast.walk(driver) if isinstance(node, ast.Name)
                and node.id == checked.id and isinstance(node.ctx, ast.Store)]) == 1


def test_one_path_search():
    """``flows._path`` is the package's one shortest-path search, called by
    the flow and the greedy alone.  A search steps a frontier: it calls
    ``_core._step`` or peels the lowest bit itself (``x & -x``).  In
    ``exact`` and ``flows`` only ``_path`` does either, and outside
    ``_core`` only ``digraph.strong_components``, whose closures give masks
    and no path, calls ``_step``.  No ``_shortest_path`` is defined, and
    ``flows`` holds no ``parent`` list: each augmenting path is ``_path``'s
    walk back through its layers."""
    functions = [(module[:-3], fn) for module, tree in TREES.items()
                 for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]

    def calls(fn, name):
        return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                   for node in ast.walk(fn))

    def peels(fn):
        return any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                   and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)
                   for node in ast.walk(fn))

    assert [f"{module}.{fn.name}" for module, fn in functions if module in ("exact", "flows")
            and (calls(fn, "_step") or peels(fn))] == ["flows._path"]
    assert [f"{module}.{fn.name}" for module, fn in functions
            if module != "_core" and calls(fn, "_step")] == ["digraph.strong_components"]
    assert sorted(f"{module}.{fn.name}" for module, fn in functions if calls(fn, "_path")) == [
        "exact._greedy_parts", "flows._max_flow"]
    assert not [fn for _, fn in functions if fn.name == "_shortest_path"]
    assert not [node for node in ast.walk(TREES["flows.py"])
                if "parent" in (getattr(node, "id", None), getattr(node, "arg", None))]


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


def test_nothing_needs_teardown():
    """``cli.entry`` ends a process with ``os._exit``, which runs no
    finalizer and flushes no file, after turning the cyclic collector off.
    That loses nothing while every file the package opens is closed by its
    ``with``, no other code ends the process or touches the collector, and
    no thread is left running."""
    withs = {id(item.context_expr) for tree in TREES.values()
             for node in ast.walk(tree) if isinstance(node, ast.With)
             for item in node.items}
    opens = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "open" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert opens and all(id(node) in withs for node in opens)
    entry = next(fn for fn in TREES["cli.py"].body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "entry")
    inside = set(map(id, ast.walk(entry)))
    ends = [node for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_exit", "disable")]
    assert sorted(node.attr for node in ends) == ["_exit", "disable"]
    assert all(id(node) in inside for node in ends)
    for module, tree in TREES.items():
        imported = _imports_of(module, tree)
        assert not imported & {"os._exit", "gc.disable", "threading", "_thread"}, module


def test_one_forward_backward_pair():
    """No function outside ``_core`` calls ``reachable`` more than once, so
    a strong component is built from a forward and a backward closure only
    in ``_core.strong_component``."""
    def calls(fn):
        return sum(isinstance(node, ast.Call) and "reachable" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(fn))

    pairs = [f"{module[:-3]}.{fn.name}" for module, tree in TREES.items()
             if module != "_core.py" for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) and calls(fn) > 1]
    assert pairs == []


def _callers_in(module: str, name: str) -> list[str]:
    """The functions of ``module`` that call ``name`` directly."""
    return [fn.name for fn in ast.walk(TREES[module]) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name]


def test_one_spine_construction():
    """Within ``packing`` only ``_spine_parts`` decomposes a cycle blow-up,
    so every packer only chooses its cycles and the construction derives
    every join.  Every part, from every packer and from ``pack``, passes
    ``_checked``: only ``_pack`` builds a ``Packing``, in its one return,
    whose parts are read from the stream ``_checked`` makes; and ``pack``
    writes only what ``_pack`` gave it."""
    def named(node, name):
        return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

    assert _callers_in("packing.py", "decompose_cycle_blowup") == ["_spine_parts"]
    assert _callers_in("packing.py", "Packing") == ["_pack"]
    dispatcher = next(fn for fn in TREES["packing.py"].body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_pack")
    body = list(ast.walk(dispatcher))
    (checked,) = [node for node in body if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Call) and named(node.value.func, "_checked")]
    (returned,) = [node for node in body if isinstance(node, ast.Return)]
    assert named(checked.targets[0], "parts") and named(returned.value.func, "Packing")
    assert checked.lineno < returned.lineno and "parts" in {
        node.id for node in ast.walk(returned.value.args[-1]) if isinstance(node, ast.Name)}
    command = TREES["commands/pack.py"]
    (write,) = [node for node in ast.walk(command)
                if isinstance(node, ast.Call) and named(node.func, "write_packing")]
    assigned = [node for node in ast.walk(command) if isinstance(node, ast.Assign)
                and named(node.targets[0], "packing")]
    assert [arg.id for arg in write.args] == ["packing"] and len(assigned) == 2
    assert all(named(node.value.func, "_pack") for node in assigned)


def test_one_id_map():
    """Within ``packing`` only ``_pack`` reads ``original_ids`` or calls
    ``offsets()``: it decides once which host id each layer vertex gets, and
    every builder reads ids from the layer lists it is handed.  ``pack``
    reads neither: it leaves the ids of both of its inputs to ``_pack``."""
    tree = TREES["packing.py"]
    dispatcher = next(fn for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "_pack")
    inside = set(map(id, ast.walk(dispatcher)))
    reads = [node for node in ast.walk(tree)
             if getattr(node, "attr", None) in ("original_ids", "offsets")]
    assert reads and all(id(node) in inside for node in reads)
    assert not [node for node in ast.walk(TREES["commands/pack.py"])
                if getattr(node, "attr", None) in ("original_ids", "offsets")]


def test_only_analyze_asks_quasi_transitivity():
    """``pack --graph`` recognises a composition by its co-components alone,
    so ``is_quasi_transitive`` gates no packer: only ``analyze`` calls it,
    to print the flag."""
    callers = [module for module, tree in TREES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call) and "is_quasi_transitive" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert callers == ["commands/analyze.py"]


def test_options_declared_once():
    """Only ``usage.build_parser`` calls ``add_argument``, reading each
    subcommand's ``OPTIONS``, and no table names a flag or positional twice
    (a dict display would keep only the last of two rows)."""
    builder = next(fn for fn in TREES["usage.py"].body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "build_parser")
    inside = set(map(id, ast.walk(builder)))
    calls = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"]
    assert calls and all(id(node) in inside for node in calls)
    tables = {module: next(stmt.value for stmt in TREES[module].body
                           if isinstance(stmt, ast.Assign)
                           and getattr(stmt.targets[0], "id", None) == "OPTIONS")
              for module in TREES
              if module.startswith("commands/") and module != "commands/__init__.py"}
    assert len(tables) == 8
    for module, table in tables.items():
        names = [ast.literal_eval(key) for key in table.keys]
        assert len(names) == len(set(names)), module


def test_one_stdout_writer():
    """In ``commands`` only ``_write_out`` calls ``print`` or touches
    ``sys.stdout``, so one function decides what a stdout closed at start
    means: a refusal with exit 2, not a line lost with exit 0.  No module
    prints: ``cli.main`` writes every refusal to stderr itself."""
    writer = next(fn for fn in TREES["commands/__init__.py"].body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_write_out")
    inside = set(map(id, ast.walk(writer)))
    touches = [node for module, tree in TREES.items() if module.startswith("commands/")
               for node in ast.walk(tree)
               if getattr(node, "id", None) in ("print", "stdout", "__stdout__")
               or getattr(node, "attr", None) in ("stdout", "__stdout__")
               or isinstance(node, ast.alias) and node.name in ("stdout", "__stdout__")]
    assert touches and all(id(node) in inside for node in touches)
    printers = {module for module, tree in TREES.items() for node in ast.walk(tree)
                if getattr(node, "id", None) == "print"}
    assert printers == set()
