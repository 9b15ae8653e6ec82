"""Exhaustive ground-truth solvers for small instances.

One driver, ``_pack_upward`` (the greedy, the flow bound, the kernel search
and one verify, in that order in every mode), gives the arc-disjoint and
internally disjoint packing numbers, capped or not, and decides a strong arc
decomposition: lambda capped at 2 with every vertex a terminal.  Every
answer leaves it through the verify, with a packing of that many parts.  The
verifier is imported only inside it and the kernel only when a search runs,
so a certified answer never compiles the kernel and a cut compiles neither.
One terminal scan gives its bound and both cut quantities.  The size
limits guard only the search: a host above them is refused when, and only
when, a search must run on it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from ._core import Arc, Digraph, as_terminals, is_strong, is_symmetric, mask_of, \
    strong_component, underlying_connected
from .errors import PreconditionError, SizeLimitError, StrongpackError
from .flows import _path, min_arc_cut, vertex_capacitated_connectivity


class SolverLimits(NamedTuple):
    """Upper bounds on the hosts the kernel search will run on."""

    max_vertices: int = 10
    max_arcs: int = 26

    def check(self, d: Digraph) -> None:
        for size, limit, what in ((d.n, self.max_vertices, "vertices"),
                                  (d.m, self.max_arcs, "arcs")):
            if size > limit:
                raise SizeLimitError(f"{size} {what} exceeds limit {limit}; "
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


@lru_cache(maxsize=1)
def _terminal_scan(d: Digraph, ts: frozenset[int], internal: bool, below: int):
    """(value, pair, cut) of the first minimum flow over the pairs through
    the lowest terminal s: (s, v) for ascending v, then (v, s) unless the
    host is symmetric.  A flow is ``min_arc_cut``, or with ``internal``
    ``vertex_capacitated_connectivity`` (terminals uncapped, cut None).  A
    flow under ``below`` ends the scan at once.

    No minimum cut removes a terminal, so a minimum u->w cut leaves s on
    one side and also cuts every s->w or every u->s path: flow(u, w) >=
    min(flow(s, w), flow(u, s)).  Both pairs sort before (u, w), so the
    first minimum here is the first over all ordered pairs in ascending
    order.  On a symmetric host each v->s path reversed is an s->v path,
    with the same arcs and inner vertices reversed, so flow(v, s) =
    flow(s, v) with arc and with vertex capacities: no (v, s) can beat its
    twin (s, v), scanned first, and the pairs (s, v) alone give the same
    minimum, pair and cut.

    The last scan is kept, so the driver's bound and both cuts of one
    (host, terminals) run one scan; every caller passes all four arguments
    by position, the one form the cache keys on."""
    s = min(ts)
    rest = sorted(ts - {s})
    pairs = [(s, v) for v in rest]
    if not is_symmetric(d):
        pairs += [(v, s) for v in rest]
    best = None
    for u, w in pairs:
        if internal:
            value, cut = vertex_capacitated_connectivity(d, u, w, ts), None
        else:
            value, cut = min_arc_cut(d, u, w)
        if best is None or value < best[0]:
            best = value, (u, w), cut
            if value < below:  # below=2 only where every flow is >= 1
                break
    return best


def _greedy_parts(d: Digraph, ts: frozenset[int], internal=False,
                  most=None) -> tuple[frozenset[Arc], ...]:
    """Arc-disjoint strong parts holding every terminal, found greedily;
    with ``internal`` they meet only at terminals.  A part is the union of
    shortest paths between cyclically consecutive terminals in ascending
    order, each on the arcs earlier parts left: a closed walk through every
    terminal, hence strong.  Each path is the flows' ``_path``, handed the
    in-masks, which lose the arcs the out-masks lose.  Its paths may share
    arcs, so its arcs (with ``internal``, every arc at its non-terminal
    vertices) leave the host only once all of them are found.  Stops at the
    first missing path, or after ``most`` parts."""
    out, inn = list(d.out), d.in_masks()
    order = sorted(ts)
    parts = []
    while len(parts) != most:
        part = set()
        for a, b in zip(order, order[1:] + order[:1]):
            path = _path(out, a, b, inn)[0]
            if path is None:
                return tuple(parts)
            part.update(path)
        for u, v in part:
            out[u] &= ~(1 << v)
            inn[v] &= ~(1 << u)
        if internal:  # no later path enters or leaves these vertices
            inner = mask_of({u for u, _ in part} - ts)
            out, inn = [row & ~inner for row in out], [row & ~inner for row in inn]
        parts.append(frozenset(part))
    return tuple(parts)


def _pack_upward(d: Digraph, terminals, limits: SolverLimits, internal=False,
                 cap=None):
    """Optimal arc-disjoint (``internal``: internally disjoint) packing by
    upward search; with ``cap``, one of size min(optimum, cap).  Every mode
    runs one order.  The mode's greedy, stopped at the cap, gives the
    packing to beat, and it answers with no flow when it reaches the cap or
    finds no part: it stopped at a terminal pair with no path, whose flow
    is 0.  Else the mode's terminal flow bound, cut to the cap, caps every
    size (every part holds a u->w path for each pair); the kernel search
    runs at sizes greedy + 1, ... up to it, checking the limits and
    importing the kernel first, and the first size it refutes proves the
    optimum.  At the cap with every vertex a terminal, part 1 takes every
    arc the others leave, so the parts partition the arcs.  There is one
    exit: every answer, capped or not, is (value, packing) with the packing
    of ``value`` parts that has passed the one verify."""
    from .verify import MODE_ARC, MODE_INTERNAL, Packing, verify_packing

    ts = as_terminals(d, terminals)
    best = _greedy_parts(d, ts, internal, cap)
    bound = len(best) if len(best) in (0, cap) else min(  # no flow exceeds m
        _terminal_scan(d, ts, internal, 2 if cap else 0)[0], cap or d.m)
    ell = len(best) + 1
    if ell <= bound:
        limits.check(d)
        from . import _kernel

        search = _kernel.search_internally_disjoint if internal \
            else _kernel.search_arc_disjoint
        arcs = sorted(d.arcs)
    while ell <= bound:
        found = search(d.n, arcs, mask_of(ts), ell)
        if found is None:
            break
        best = tuple(frozenset(arcs[i] for i in part) for part in found)
        ell += 1
    if len(best) == cap and len(ts) == d.n:
        best = (d.arcs.difference(*best[1:]), *best[1:])
    packing = Packing(d, ts, MODE_INTERNAL if internal else MODE_ARC, best)
    if not verify_packing(packing):
        raise StrongpackError("solver produced an invalid packing")
    return len(best), packing


def exact_lambda(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of pairwise arc-disjoint strong subgraphs containing
    all terminals, with an optimal packing.

    A greedy packing (``_greedy_parts``) bounds the value from below, then
    the minimum terminal arc cut from above; a greedy that meets the cut is
    returned with no search.  Otherwise candidate sizes run upward from
    greedy + 1; each size is certified by a found packing, and the search
    at a failing size proves the optimum.
    """
    return _pack_upward(d, terminals, limits)


def exact_kappa(d: Digraph, terminals, limits: SolverLimits = DEFAULT_LIMITS):
    """Maximum number of arc-disjoint strong subgraphs holding all terminals
    whose pairwise vertex intersections are exactly the terminal set, with
    an optimal packing, found as by ``exact_lambda``.  The size bound gives
    every non-terminal vertex capacity one, so it is at most lambda's."""
    return _pack_upward(d, terminals, limits, internal=True)


def has_strong_arc_decomposition(d: Digraph, limits: SolverLimits = DEFAULT_LIMITS):
    """Whether the arc set splits into two disjoint spanning strong sets:
    lambda >= 2 with every vertex a terminal, as unused arcs can join either
    part, so ``exact_lambda``'s greedy, bound and search answer it, capped
    at 2.  Returns (flag, witness), the witness the driver's verified pair
    of spanning strong arc sets that partition the arcs (n == 1: two empty
    sets, never verified; n == 0 is refused: no terminal list names it)."""
    if d.n <= 1:
        if not d.n:
            raise PreconditionError("strong arc decomposition needs at least one vertex")
        return True, (frozenset(), frozenset())
    value, packing = _pack_upward(d, range(d.n), limits, cap=2)
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
    _, witness, arcs = _terminal_scan(d, ts, False, 0)
    if not is_strong_cut(d, ts, arcs):
        raise StrongpackError("flow cut fails the definitional check")
    return CutCertificate(arcs, witness)


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
    return _terminal_scan(d, ts, False, 0)[0]


def terminal_semi_degree(d: Digraph, terminals) -> int:
    """min over terminals of min(out-degree, in-degree); every part of an
    arc-disjoint packing consumes one arc in each direction at each
    terminal, so this bounds the packing number."""
    ts = as_terminals(d, terminals)
    return min(min(d.out_degree(v), d.in_degree(v)) for v in sorted(ts))
