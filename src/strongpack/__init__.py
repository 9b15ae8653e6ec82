"""strongpack: packing arc-disjoint strongly connected subgraphs.

Digraph classes and compositions, constructive packings with a verifier,
exact solvers for small instances, and hardness-gadget generators.
All public functions are pure and safe to call concurrently.

The names below load their module on first use (PEP 562), so importing
the package, or one of its modules, loads only what that use needs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "kernel_backend": "_kernel",
    "CompositionSpec": "composition",
    "canonical_decomposition_strong_qt": "composition",
    "compose": "composition",
    "read_composition": "composition",
    "relabel": "composition",
    "write_composition": "composition",
    "Digraph": "digraph",
    "biorientation": "digraph",
    "complete_bipartite_digraph": "digraph",
    "directed_cycle": "digraph",
    "directed_path": "digraph",
    "empty_digraph": "digraph",
    "is_eulerian": "digraph",
    "is_quasi_transitive": "digraph",
    "is_semicomplete": "digraph",
    "is_strong": "digraph",
    "is_symmetric": "digraph",
    "read_digraph": "digraph",
    "strong_components": "digraph",
    "write_digraph": "digraph",
    "GraphFormatError": "errors",
    "InfeasibleError": "errors",
    "PreconditionError": "errors",
    "SizeLimitError": "errors",
    "StrongpackError": "errors",
    "UnsupportedCaseError": "errors",
    "CutCertificate": "exact",
    "SolverLimits": "exact",
    "exact_kappa": "exact",
    "exact_lambda": "exact",
    "has_strong_arc_decomposition": "exact",
    "min_strong_cut": "exact",
    "steiner_cut_undirected": "exact",
    "terminal_semi_degree": "exact",
    "BlowupDecomposition": "hamilton",
    "decompose_cycle_blowup": "hamilton",
    "hamilton_semicomplete": "hamilton",
    "EXCEPTIONAL_COMPOSITIONS": "packing",
    "ExceptionalVerdict": "packing",
    "is_in_exceptional": "packing",
    "pack_bipartite": "packing",
    "pack_quasi_transitive": "packing",
    "pack_semicomplete_composition": "packing",
    "pack_symmetric_composition": "packing",
    "BipartiteGraph": "reductions",
    "Hypergraph": "reductions",
    "ReductionOutput": "reductions",
    "cover_packing_gadget_arc": "reductions",
    "cover_packing_gadget_internal": "reductions",
    "hypergraph_gadget": "reductions",
    "linkage_gadget": "reductions",
    "read_bipartite": "reductions",
    "read_hypergraph": "reductions",
    "write_hypergraph": "reductions",
    "Packing": "verify",
    "Verdict": "verify",
    "read_packing": "verify",
    "verify_packing": "verify",
    "write_packing": "verify",
}

_SUBMODULES = frozenset({"_kernel", "cli", "commands", "composition", "digraph", "errors", "exact",
                         "flows", "generators", "hamilton", "packing", "reductions", "verify"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
