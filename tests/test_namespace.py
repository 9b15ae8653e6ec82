"""The package namespace: ``import strongpack`` loads no submodule, and each
exported name loads its module on first use and is the object that module
defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongpack as sp

# the public names of the package: those its eager __init__ exported, but
# the test oracles, now in tests/oracles.py
PUBLIC = [
    "BipartiteGraph", "BlowupDecomposition", "CompositionSpec", "CutCertificate", "Digraph",
    "EXCEPTIONAL_COMPOSITIONS", "ExceptionalVerdict", "GraphFormatError", "Hypergraph",
    "InfeasibleError", "Packing", "PreconditionError", "ReductionOutput", "SizeLimitError",
    "SolverLimits", "StrongpackError", "UnsupportedCaseError", "Verdict", "biorientation",
    "canonical_decomposition_strong_qt", "complete_bipartite_digraph", "compose",
    "cover_packing_gadget_arc", "cover_packing_gadget_internal", "decompose_cycle_blowup",
    "directed_cycle", "directed_path", "empty_digraph", "exact_kappa", "exact_lambda",
    "hamilton_semicomplete", "has_strong_arc_decomposition", "hypergraph_gadget",
    "is_eulerian", "is_in_exceptional", "is_quasi_transitive", "is_semicomplete",
    "is_strong", "is_symmetric", "kernel_backend", "linkage_gadget", "min_strong_cut",
    "pack_bipartite", "pack_quasi_transitive", "pack_semicomplete_composition",
    "pack_symmetric_composition", "read_bipartite", "read_composition", "read_digraph",
    "read_hypergraph", "read_packing", "relabel", "steiner_cut_undirected",
    "strong_components", "terminal_semi_degree", "verify_packing", "write_composition",
    "write_digraph", "write_hypergraph", "write_packing",
]


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout."""
    src = str(Path(sp.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return run.stdout


@pytest.mark.parametrize("name", sorted(sp._EXPORTS))
def test_exported_name_is_its_modules_object(name):
    module, _, attr = sp._EXPORTS[name].partition(".")
    home = importlib.import_module(f"strongpack.{module}")
    assert getattr(sp, name) is getattr(home, attr or name)


def test_public_names_are_unchanged():
    assert len(PUBLIC) == 60
    assert sorted(sp.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(sp))


def test_kernel_backend_alias():
    assert sp.kernel_backend() == "pure"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sp.no_such_name
    # a name a module defines but the package does not export
    assert not hasattr(sp, "search_arc_disjoint")


def test_bare_import_loads_no_submodule_and_resolves_them_on_use():
    out = fresh("import sys\n"
                "import strongpack\n"
                "print(sorted(m for m in sys.modules if m.startswith('strongpack')))\n"
                "print(strongpack.packing.MODE_ARC)\n"
                "print('strongpack.packing' in sys.modules, 'strongpack.exact' in sys.modules)\n")
    assert out.splitlines() == ["['strongpack']", "arc", "True False"]


def test_star_import_gives_the_public_names():
    out = fresh("from strongpack import *\n"
                "print(sorted(n for n in dir() if not n.startswith('_')))\n")
    assert out == f"{PUBLIC}\n"
