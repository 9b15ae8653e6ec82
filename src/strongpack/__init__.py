"""strongpack: packing arc-disjoint strongly connected subgraphs.

Digraph classes and compositions, constructive packings with a verifier,
exhaustive oracles for small instances, and hardness-gadget generators.
All public functions are pure and safe to call concurrently.
"""

from ._kernel import backend as kernel_backend
from .composition import (CompositionSpec, canonical_decomposition_strong_qt,
                          compose, lexicographic_product, read_composition,
                          relabel, write_composition)
from .digraph import (Digraph, TerminalSet, biorientation,
                      complete_bipartite_digraph, directed_cycle, directed_path,
                      empty_digraph, is_eulerian, is_quasi_transitive,
                      is_semicomplete, is_strong, is_symmetric, min_semi_degree,
                      read_digraph, strong_components, write_digraph)
from .errors import (GraphFormatError, InfeasibleError, PreconditionError,
                     SizeLimitError, StrongpackError, UnsupportedCaseError)
from .exact import (CutCertificate, CutRelationReport, SolverLimits,
                    check_cut_relation, exact_kappa, exact_lambda,
                    has_strong_arc_decomposition, kappa_k, lambda_k,
                    max_disjoint_paths_undirected, min_strong_cut,
                    min_strong_cut_exhaustive, steiner_cut_undirected,
                    terminal_semi_degree)
from .hamilton import (BlowupDecomposition, HamCycle, decompose_cycle_blowup,
                       hamilton_semicomplete)
from .packing import (EXCEPTIONAL_COMPOSITIONS, ExceptionalVerdict, Packing,
                      Verdict, is_in_exceptional, pack_bipartite,
                      pack_quasi_transitive, pack_semicomplete_composition,
                      pack_symmetric_composition, read_packing, verify_packing,
                      write_packing)
from .reductions import (BipartiteGraph, Hypergraph, ReductionOutput,
                         cover_packing_gadget_arc, cover_packing_gadget_internal,
                         cover_packing_number, has_disjoint_paths,
                         hypergraph_gadget, is_two_colorable, linkage_gadget,
                         read_bipartite, read_hypergraph, write_bipartite,
                         write_hypergraph)

__version__ = "0.1.0"
