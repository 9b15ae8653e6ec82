"""Brute-force oracles that only the tests call: independent cross-checks
of the exact solvers, of the digraph record and of the hardness gadgets'
source problems, plus the lexicographic product, the bipartite writer and
the degree and neighbourhood helpers that only tests use.  They are kept
beside the tests that use them so that no op of the package compiles
them."""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from strongpack.composition import CompositionSpec, compose
from strongpack.digraph import Digraph, as_terminals, bits, is_strong, is_symmetric
from strongpack.errors import PreconditionError, SizeLimitError, StrongpackError
from strongpack.exact import (DEFAULT_LIMITS, SolverLimits, exact_kappa, exact_lambda,
                              is_strong_cut, min_strong_cut, steiner_cut_undirected)
from strongpack.flows import vertex_capacitated_connectivity
from strongpack.reductions import BipartiteGraph, Hypergraph, _check_endpoints


def adjacency(d: Digraph) -> list[list[int]]:
    """Out-adjacency lists, each sorted ascending."""
    return [bits(x) for x in d.out]


def out_masks(d: Digraph) -> list[int]:
    """Out-neighborhoods as bitmasks (arbitrary-precision ints)."""
    return list(d.out)


def reverse(d: Digraph) -> Digraph:
    return Digraph.from_masks(d.n, d.in_masks())


def min_semi_degree(d: Digraph) -> int:
    """min over vertices of min(out-degree, in-degree)."""
    if d.n < 1:
        raise PreconditionError("min_semi_degree needs at least one vertex")
    return min(min(x.bit_count(), y.bit_count()) for x, y in zip(d.out, d.in_masks()))


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


class CutRelationReport(NamedTuple):
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
    hosts: the number of internally vertex-disjoint paths between u and v.
    Arcs keep capacity 1 too, so on a symmetric host this counts the
    internally disjoint undirected paths."""
    if not is_symmetric(d):
        raise PreconditionError("host must be symmetric")
    return vertex_capacitated_connectivity(d, u, v, frozenset({u, v}))


def lexicographic_product(g: Digraph, h: Digraph) -> Digraph:
    """Composition with every inner equal to ``h``.

    Vertex (u, u') of the product gets id u*|V(h)| + u'.
    """
    if g.n < 2:
        raise PreconditionError("left factor needs at least 2 vertices")
    return compose(CompositionSpec(g, (h,) * g.n))


def is_two_colorable(h: Hypergraph, limit: int = 20) -> bool:
    """Every hyperedge sees both colors under some 2-coloring; exhaustive."""
    if h.n > limit:
        raise SizeLimitError(f"{h.n} vertices exceeds limit {limit}")
    members = [tuple(e) for e in h.edges]
    for bits in range(1 << h.n):
        if all(any(bits >> v & 1 for v in e) and any(not (bits >> v & 1) for v in e)
               for e in members):
            return True
    return False


def has_disjoint_paths(d: Digraph, s1: int, t1: int, s2: int, t2: int,
                       limit: int = 12) -> bool:
    """Vertex-disjoint s1->t1 and s2->t2 paths, by path enumeration."""
    if d.n > limit:
        raise SizeLimitError(f"{d.n} vertices exceeds limit {limit}")
    _check_endpoints(d, (s1, t1, s2, t2))
    adj = [bits(x) for x in d.out]

    def paths(src, dst, banned):
        stack = [(src, {src})]
        while stack:
            v, used = stack.pop()
            if v == dst:
                yield used
                continue
            for w in adj[v]:
                if w not in used and w not in banned:
                    stack.append((w, used | {w}))

    for p1 in paths(s1, t1, {s2, t2}):
        for _ in paths(s2, t2, p1):
            return True
    return False


def cover_packing_number(g: BipartiteGraph, limit: int = 16) -> int:
    """Maximum number of pairwise disjoint subsets of the cover side that
    each dominate every element; exhaustive over labelings.

    With no elements every cover vertex is its own (vacuous) cover, so the
    answer is the cover side size.
    """
    if g.c > limit:
        raise SizeLimitError(f"{g.c} cover vertices exceeds limit {limit}")
    if g.b == 0:
        return g.c
    elem_nbrs = [neighbors_of_element(g, y) for y in range(g.b)]
    if any(not nb for nb in elem_nbrs):
        return 0
    best = 0
    for ell in range(1, g.c + 1):
        if not _packable(g, elem_nbrs, ell):
            break
        best = ell
    return best


def neighbors_of_element(g: BipartiteGraph, y: int) -> frozenset[int]:
    return frozenset(x for (x, yy) in g.edges if yy == y)


def _packable(g: BipartiteGraph, elem_nbrs, ell: int) -> bool:
    for labeling in product(range(ell + 1), repeat=g.c):
        groups = [set() for _ in range(ell + 1)]
        for u, lab in enumerate(labeling):
            groups[lab].add(u)
        if all(all(nb & groups[c] for nb in elem_nbrs) for c in range(1, ell + 1)):
            return True
    return False


def write_bipartite(g: BipartiteGraph) -> str:
    lines = [f"{g.c} {g.b} {len(g.edges)}"]
    lines.extend(f"{x} {y}" for x, y in sorted(g.edges))
    return "\n".join(lines) + "\n"
