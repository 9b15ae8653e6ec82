"""Exhaustive ground-truth solvers for small instances.

These compute the arc-disjoint and internally disjoint packing numbers, the
existence of a strong arc decomposition, and the two cut quantities.  Every
returned packing is re-verified before it leaves this module.  Instances
above the configured limits are refused rather than attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from . import _kernel
from .digraph import Arc, Digraph, as_terminals, bits, is_strong, \
    is_symmetric, mask_of, reachable, underlying_connected
from .errors import PreconditionError, SizeLimitError, StrongpackError
from .flows import max_vertex_disjoint_paths, min_arc_cut, \
    vertex_capacitated_connectivity
from .packing import MODE_ARC, MODE_INTERNAL, Packing, verify_packing


@dataclass(frozen=True)
class SolverLimits:
    """Upper bounds on instances the exhaustive solvers will accept."""

    max_vertices: int = 10
    max_arcs: int = 26

    def check(self, d: Digraph) -> None:
        if d.n > self.max_vertices:
            raise SizeLimitError(
                f"{d.n} vertices exceeds limit {self.max_vertices}; "
                f"raise the limit explicitly to proceed")
        if d.m > self.max_arcs:
            raise SizeLimitError(
                f"{d.m} arcs exceeds limit {self.max_arcs}; "
                f"raise the limit explicitly to proceed")


DEFAULT_LIMITS = SolverLimits()


@dataclass(frozen=True)
class CutCertificate:
    """An arc set whose removal leaves the witness terminals in different
    strong components."""

    arcs: frozenset[Arc]
    witness: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.arcs)


def _component(d: Digraph, v: int) -> int:
    """Mask of the strong component of ``d`` holding ``v``."""
    return reachable(d.out, v) & reachable(d.in_masks(), v)


def _single_part(d: Digraph, ts: frozenset[int]):
    """The unique maximal part for packing size 1: all arcs inside the
    strong component holding the terminals, or None."""
    comp = _component(d, min(ts))
    if mask_of(ts) & ~comp:
        return None
    return frozenset((u, v) for u in bits(comp) for v in bits(d.out[u] & comp))


def _min_terminal_cut(d: Digraph, ts: frozenset[int]):
    """(size, cut, (u, v)): the minimum u->v arc cut over ordered terminal
    pairs, the first strict minimum in ascending pair order.  A cut of
    size 0 ends the scan."""
    best = None
    for u, v in permutations(sorted(ts), 2):
        size, cut = min_arc_cut(d, u, v)
        if best is None or size < best[0]:
            best = (size, cut, (u, v))
            if size == 0:
                break
    return best


def _internal_flow_bound(d: Digraph, ts: frozenset[int]) -> int:
    """The terminal pairs' connectivity through non-terminal vertices of
    capacity one.  It never exceeds the pair's arc flow, so it is at least
    as tight as the arc flow bound."""
    return min(vertex_capacitated_connectivity(d, u, v, ts)
               for u, v in permutations(sorted(ts), 2))


def _pack_upward(d: Digraph, terminals, limits: SolverLimits, mode: str,
                 search, bound_of):
    """Optimal packing by upward search: size 1 is the terminals' strong
    component, then ``search`` runs at sizes 2, 3, ... up to
    ``bound_of(d, ts)``; the first size it refutes proves the optimum."""
    limits.check(d)
    ts = as_terminals(d, terminals)
    part1 = _single_part(d, ts)
    if part1 is None:
        return 0, Packing(d, ts, mode, ())
    best_parts: tuple[frozenset[Arc], ...] = (part1,)
    arcs = sorted(d.arcs)
    s_mask = mask_of(ts)
    bound = bound_of(d, ts)
    ell = 2
    while ell <= bound:
        found = search(d.n, arcs, s_mask, ell)
        if found is None:
            break
        best_parts = tuple(frozenset(arcs[i] for i in part) for part in found)
        ell += 1
    packing = Packing(d, ts, mode, best_parts)
    if not verify_packing(packing):
        raise StrongpackError("solver produced an invalid packing")
    return len(best_parts), packing


def exact_lambda(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of pairwise arc-disjoint strong subgraphs containing
    all terminals, with an optimal packing.

    Candidate sizes run upward from 1; each size is certified by a found
    packing, and the search at a failing size proves the optimum.  Sizes
    above the terminal-pair max-flow bound cannot occur and are skipped.
    """
    return _pack_upward(d, terminals, limits, MODE_ARC,
                        _kernel.search_arc_disjoint,
                        lambda d, ts: _min_terminal_cut(d, ts)[0])


def exact_kappa(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of arc-disjoint strong subgraphs containing all
    terminals whose pairwise vertex intersections are exactly the
    terminal set, with an optimal packing."""
    return _pack_upward(d, terminals, limits, MODE_INTERNAL,
                        _kernel.search_internally_disjoint, _internal_flow_bound)


def has_strong_arc_decomposition(d: Digraph, limits: SolverLimits = DEFAULT_LIMITS):
    """Whether the arc set splits into two disjoint spanning strong sets.

    Returns (flag, witness).  The witness is a pair of arc sets that
    partition the arcs, each spanning and strong.
    """
    limits.check(d)
    if d.n <= 1:
        return True, (frozenset(), frozenset())
    arcs = sorted(d.arcs)
    full = (1 << d.n) - 1
    found = _kernel.search_arc_disjoint(d.n, arcs, full, 2)
    if found is None:
        return False, None
    first = set(arcs[i] for i in found[0])
    second = frozenset(arcs[i] for i in found[1])
    first |= d.arcs - first - second  # fold unused arcs into one side
    return True, (frozenset(first), second)


def is_strong_cut(d: Digraph, ts: frozenset[int], cut) -> bool:
    """Definitional check: after removing ``cut`` at least two strong
    components contain terminals.  Pairs in ``cut`` that are not arcs of
    ``d`` are ignored."""
    out = list(d.out)
    for u, v in cut:
        if d.has_arc(u, v):
            out[u] &= ~(1 << v)
    return bool(mask_of(ts) & ~_component(Digraph.from_masks(d.n, out), min(ts)))


def min_strong_cut(d: Digraph, terminals) -> CutCertificate:
    """A minimum arc set whose removal leaves terminals in at least two
    strong components.

    Computed as the minimum over ordered terminal pairs (u, v) of the
    minimum u->v arc cut: breaking every u->v path forces u and v into
    different strong components, and any such cut must break some ordered
    pair.  Pairs are scanned in ascending order, so output is
    deterministic.
    """
    if not is_strong(d):
        raise PreconditionError("cut is defined for strong digraphs only")
    ts = as_terminals(d, terminals)
    _, cut, witness = _min_terminal_cut(d, ts)
    cert = CutCertificate(cut, witness)
    if not is_strong_cut(d, ts, cert.arcs):
        raise StrongpackError("flow cut fails the definitional check")
    return cert


def min_strong_cut_exhaustive(d: Digraph, terminals,
                              limits: SolverLimits = DEFAULT_LIMITS) -> int:
    """Smallest cut size by direct enumeration of arc subsets in increasing
    size; the independent cross-check for ``min_strong_cut``."""
    limits.check(d)
    if not is_strong(d):
        raise PreconditionError("cut is defined for strong digraphs only")
    ts = as_terminals(d, terminals)
    arcs = sorted(d.arcs)
    for k in range(1, d.m + 1):
        for subset in combinations(arcs, k):
            if is_strong_cut(d, ts, subset):
                return k
    raise StrongpackError("no cut found, which cannot happen on a strong host")


def steiner_cut_undirected(d: Digraph, terminals) -> int:
    """Minimum number of underlying edges whose removal separates the
    terminals into at least two components (symmetric hosts only).

    Each removed edge corresponds to an antiparallel arc pair; the value is
    the minimum over terminal pairs of the undirected min cut, which on a
    symmetric digraph equals the directed arc flow.
    """
    if not is_symmetric(d):
        raise PreconditionError("host must be symmetric")
    if not underlying_connected(d):
        raise PreconditionError("underlying graph must be connected")
    ts = as_terminals(d, terminals)
    return min(min_arc_cut(d, u, v)[0] for u, v in combinations(sorted(ts), 2))


@dataclass(frozen=True)
class CutRelationReport:
    c1: int
    c2: int
    holds: bool


def check_cut_relation(d: Digraph, terminals) -> CutRelationReport:
    """Both cut sizes on a strong symmetric host, and whether the directed
    cut is at most twice the undirected one (doubling an undirected cut
    always yields a directed cut)."""
    c1 = steiner_cut_undirected(d, terminals)
    c2 = min_strong_cut(d, terminals).size
    return CutRelationReport(c1, c2, c2 <= 2 * c1)


def terminal_semi_degree(d: Digraph, terminals) -> int:
    """min over terminals of min(out-degree, in-degree); every part of an
    arc-disjoint packing consumes one arc in each direction at each
    terminal, so this bounds the packing number."""
    ts = as_terminals(d, terminals)
    return min(min(d.out_degree(v), d.in_degree(v)) for v in sorted(ts))


def lambda_k(d: Digraph, k: int, limits: SolverLimits = DEFAULT_LIMITS) -> int:
    """min over all k-subsets of the arc-disjoint packing number.  Small
    hosts only; this loops over every subset."""
    if not (2 <= k <= d.n):
        raise PreconditionError("need 2 <= k <= n")
    return min(exact_lambda(d, s, limits)[0]
               for s in combinations(range(d.n), k))


def kappa_k(d: Digraph, k: int, limits: SolverLimits = DEFAULT_LIMITS) -> int:
    """min over all k-subsets of the internally disjoint packing number."""
    if not (2 <= k <= d.n):
        raise PreconditionError("need 2 <= k <= n")
    return min(exact_kappa(d, s, limits)[0]
               for s in combinations(range(d.n), k))


def max_disjoint_paths_undirected(d: Digraph, u: int, v: int) -> int:
    """Independent oracle for two-terminal internal packing on symmetric
    hosts: the number of internally vertex-disjoint paths between u and v."""
    if not is_symmetric(d):
        raise PreconditionError("host must be symmetric")
    return max_vertex_disjoint_paths(d, u, v)
