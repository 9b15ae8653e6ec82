"""Brute-force oracles that only the tests call: independent cross-checks
of the exact solvers and of the digraph record, kept beside the tests that
use them so that no op of the package compiles them."""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from strongpack.digraph import Digraph, as_terminals, bits, is_strong, is_symmetric
from strongpack.errors import PreconditionError, StrongpackError
from strongpack.exact import (DEFAULT_LIMITS, SolverLimits, exact_kappa, exact_lambda,
                              is_strong_cut, min_strong_cut, steiner_cut_undirected)
from strongpack.flows import vertex_capacitated_connectivity


def adjacency(d: Digraph) -> list[list[int]]:
    """Out-adjacency lists, each sorted ascending."""
    return [bits(x) for x in d.out]


def out_masks(d: Digraph) -> list[int]:
    """Out-neighborhoods as bitmasks (arbitrary-precision ints)."""
    return list(d.out)


def reverse(d: Digraph) -> Digraph:
    return Digraph.from_masks(d.n, d.in_masks())


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
