"""Exhaustive ground-truth solvers for small instances.

One driver, ``_pack_upward`` (flow bound, greedy, kernel search, one verify),
gives the arc-disjoint and internally disjoint packing numbers and decides a
strong arc decomposition: lambda >= 2 with every vertex a terminal.  The
verifier is imported only inside it and the kernel only when a search runs,
so a certified answer never compiles the kernel and a cut compiles neither.
One terminal scan gives its bound and both cut quantities.  Instances
above the limits are refused.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .digraph import Arc, Digraph, _lowest, _step, as_terminals, bits, \
    is_strong, is_symmetric, mask_of, strong_component, underlying_connected
from .errors import PreconditionError, SizeLimitError, StrongpackError
from .flows import min_arc_cut, vertex_capacitated_connectivity


class SolverLimits(NamedTuple):
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


class CutCertificate(NamedTuple):
    """An arc set whose removal leaves the witness terminals in different
    strong components."""

    arcs: frozenset[Arc]
    witness: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.arcs)


def _single_part(d: Digraph, ts: frozenset[int]):
    """The unique maximal part for packing size 1: all arcs inside the
    strong component holding the terminals, or None."""
    comp = strong_component(d.out, d.in_masks(), min(ts))
    if mask_of(ts) & ~comp:
        return None
    return frozenset((u, v) for u in bits(comp) for v in bits(d.out[u] & comp))


def _terminal_scan(d: Digraph, ts: frozenset[int], internal: bool = False,
                   symmetric: bool = False, below: int = 0):
    """(value, pair, cut) of the first minimum flow over the pairs through
    the lowest terminal s: (s, v) for ascending v, then (v, s) unless
    ``symmetric``.  A flow is ``min_arc_cut``, or with ``internal``
    ``vertex_capacitated_connectivity`` (terminals uncapped, cut None).  A
    flow under ``below`` ends the scan at once.

    No minimum cut removes a terminal, so a minimum u->w cut leaves s on
    one side and also cuts every s->w or every u->s path: flow(u, w) >=
    min(flow(s, w), flow(u, s)), and flow(u, s) = flow(s, u) on a
    symmetric host.  Both pairs sort before (u, w), so the first minimum
    here is the first over all ordered pairs in ascending order."""
    s = min(ts)
    rest = sorted(ts - {s})
    pairs = [(s, v) for v in rest] + ([] if symmetric else [(v, s) for v in rest])
    best = None
    for u, w in pairs:
        if internal:
            value, cut = vertex_capacitated_connectivity(d, u, w, ts), None
        else:
            value, cut = min_arc_cut(d, u, w)
        if best is None or value < best[0]:
            best = value, (u, w), cut
            if value < below:  # no later flow can raise a minimum
                break
    return best


def _shortest_path(out: list[int], inn: list[int], a: int, b: int):
    """The arcs of a shortest a->b path, by layered BFS from a, walked back
    from b through the lowest-id in-neighbour in the previous layer; None
    if b is unreachable."""
    layers = [1 << a]
    seen = layers[0]
    while not layers[-1] >> b & 1:
        nxt = _step(out, layers[-1]) & ~seen
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    path = []
    for layer in reversed(layers[:-1]):
        u = _lowest(inn[b] & layer)
        path.append((u, b))
        b = u
    return path


def _greedy_parts(d: Digraph, ts: frozenset[int]) -> tuple[frozenset[Arc], ...]:
    """Arc-disjoint strong parts holding every terminal, found greedily.

    A part is the union of shortest paths between cyclically consecutive
    terminals in ascending order, each on the arcs earlier parts left: a
    closed walk through every terminal, hence strong.  Its paths may share
    arcs, so the part's arcs leave the host only once all of them are
    found.  Stops at the first missing path."""
    out, inn = list(d.out), d.in_masks()
    order = sorted(ts)
    parts = []
    while True:
        part = set()
        for a, b in zip(order, order[1:] + order[:1]):
            path = _shortest_path(out, inn, a, b)
            if path is None:
                return tuple(parts)
            part.update(path)
        for u, v in part:
            out[u] &= ~(1 << v)
            inn[v] &= ~(1 << u)
        parts.append(frozenset(part))


def _pack_upward(d: Digraph, terminals, limits: SolverLimits, internal=False,
                 stop=None):
    """Optimal arc-disjoint (``internal``: internally disjoint) packing by
    upward search: size 1 is the terminals' strong component, and the
    mode's terminal flow bound caps every size (every part holds a u->w
    path for each pair).  In arc mode with a bound of at least 2 the
    greedy's parts, when two or more, are the packing to beat; the mode's
    kernel search then runs at sizes greedy + 1, ... (else 2, 3, ...) up
    to the bound, and the first size it refutes proves the optimum.  A
    greedy that reaches the bound leaves nothing to search, so the kernel
    is imported, and its vertex limit refuses, only when a search must run.
    ``stop`` (arc mode, every vertex a terminal) caps the size: a greedy
    run first that reaches it skips the bound, a flow below it ends the
    bound, and part 1 of a packing of that size takes every arc the others
    leave; a size below it is returned with None, as nothing is built for
    it.  One verify covers every returned packing."""
    from .verify import MODE_ARC, MODE_INTERNAL, Packing, verify_packing

    limits.check(d)
    ts = as_terminals(d, terminals)
    mode = MODE_INTERNAL if internal else MODE_ARC
    part1 = _single_part(d, ts)
    if part1 is None:
        return 0, None if stop else Packing(d, ts, mode, ())
    parts = _greedy_parts(d, ts)[:stop] if stop else ()
    bound = stop if stop and len(parts) == stop else \
        _terminal_scan(d, ts, internal, below=stop or 0)[0]
    if stop:
        bound = min(bound, stop)
    elif not internal and bound >= 2:
        parts = _greedy_parts(d, ts)
    best_parts = parts if len(parts) >= 2 else (part1,)
    ell = len(best_parts) + 1
    if ell <= bound:
        from . import _kernel

        search = _kernel.search_internally_disjoint if internal \
            else _kernel.search_arc_disjoint
        arcs = sorted(d.arcs)
    while ell <= bound:
        found = search(d.n, arcs, mask_of(ts), ell)
        if found is None:
            break
        best_parts = tuple(frozenset(arcs[i] for i in part) for part in found)
        ell += 1
    if stop:
        if len(best_parts) < stop:
            return len(best_parts), None
        best_parts = (part1.difference(*best_parts[1:]), *best_parts[1:])
    packing = Packing(d, ts, mode, best_parts)
    if not verify_packing(packing):
        raise StrongpackError("solver produced an invalid packing")
    return len(best_parts), packing


def exact_lambda(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of pairwise arc-disjoint strong subgraphs containing
    all terminals, with an optimal packing.

    The minimum terminal arc cut bounds the value from above, and a greedy
    packing (``_greedy_parts``) from below; a greedy that meets the cut is
    returned with no search.  Otherwise candidate sizes run upward from
    greedy + 1 (from 2 when the greedy finds one part); each size is
    certified by a found packing, and the search at a failing size proves
    the optimum.
    """
    return _pack_upward(d, terminals, limits)


def exact_kappa(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of arc-disjoint strong subgraphs containing all
    terminals whose pairwise vertex intersections are exactly the
    terminal set, with an optimal packing.  The size bound gives every
    non-terminal vertex capacity one, so it is at most the arc flow bound."""
    return _pack_upward(d, terminals, limits, internal=True)


def has_strong_arc_decomposition(d: Digraph, limits: SolverLimits = DEFAULT_LIMITS):
    """Whether the arc set splits into two disjoint spanning strong sets:
    lambda >= 2 with every vertex a terminal, as unused arcs can join either
    part, so ``exact_lambda``'s bound, greedy and search answer it, stopped
    at 2.  Returns (flag, witness), the witness a verified pair of spanning
    strong arc sets that partition the arcs (two empty ones when n <= 1)."""
    if d.n <= 1:
        limits.check(d)
        return True, (frozenset(), frozenset())
    value, packing = _pack_upward(d, range(d.n), limits, stop=2)
    return (True, packing.parts) if value == 2 else (False, None)


def is_strong_cut(d: Digraph, ts: frozenset[int], cut) -> bool:
    """Definitional check: after removing ``cut`` at least two strong
    components contain terminals.  Pairs in ``cut`` that are not arcs of
    ``d`` are ignored."""
    out, inn = list(d.out), d.in_masks()
    for u, v in cut:
        if d.has_arc(u, v):
            out[u] &= ~(1 << v)
            inn[v] &= ~(1 << u)
    return bool(mask_of(ts) & ~strong_component(out, inn, min(ts)))


def min_strong_cut(d: Digraph, terminals) -> CutCertificate:
    """A minimum arc set whose removal leaves terminals in at least two
    strong components.

    Computed as the minimum over ordered terminal pairs (u, v) of the
    minimum u->v arc cut: breaking every u->v path forces u and v into
    different strong components, and any such cut must break some ordered
    pair.  The certificate is the cut of the first minimum pair in
    ascending order, found among the pairs through the lowest terminal
    (``_terminal_scan``).
    """
    if not is_strong(d):
        raise PreconditionError("cut is defined for strong digraphs only")
    ts = as_terminals(d, terminals)
    _, witness, arcs = _terminal_scan(d, ts)
    if not is_strong_cut(d, ts, arcs):
        raise StrongpackError("flow cut fails the definitional check")
    return CutCertificate(arcs, witness)


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
    symmetric digraph equals the directed arc flow.  The pairs through the
    lowest terminal give that minimum (``_terminal_scan``).
    """
    if not is_symmetric(d):
        raise PreconditionError("host must be symmetric")
    if not underlying_connected(d):
        raise PreconditionError("underlying graph must be connected")
    ts = as_terminals(d, terminals)
    return _terminal_scan(d, ts, symmetric=True)[0]


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
    hosts: the number of internally vertex-disjoint paths between u and v.
    Arcs keep capacity 1 too, so on a symmetric host this counts the
    internally disjoint undirected paths."""
    if not is_symmetric(d):
        raise PreconditionError("host must be symmetric")
    return vertex_capacitated_connectivity(d, u, v, frozenset({u, v}))
