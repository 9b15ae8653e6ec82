"""Unit-capacity max flow on out-neighbourhood bitmasks.

A flow is itself an arc set, kept as two mask lists: bit v of ``flow[u]``
and bit u of ``back[v]`` are set while the arc u -> v carries flow.  The
residual arcs of u are then ``(out[u] & ~flow[u]) | back[u]``.  These
routines give the exact solvers their cut bounds and an independent
route to cut sizes and disjoint-path counts.
"""

from __future__ import annotations

from typing import Sequence

from .digraph import Digraph, bits
from .errors import PreconditionError, StrongpackError


def _max_flow(out: Sequence[int], s: int, t: int) -> tuple[int, int]:
    """Maximum s->t flow on the arcs of ``out``, each of capacity 1, by
    shortest augmenting paths.  Returns the value and the mask of the
    vertices s reaches in the final residual graph: the source side of a
    minimum cut, the same for every maximum flow."""
    if s == t:
        raise PreconditionError("source equals sink")
    n = len(out)
    flow, back = [0] * n, [0] * n
    value = 0
    while True:
        parent = [0] * n
        seen = frontier = 1 << s
        while frontier and not seen >> t & 1:
            layer, frontier = frontier, 0
            while layer:  # peel the lowest bit each time: masks are small
                u = (layer & -layer).bit_length() - 1
                layer &= layer - 1
                new = ((out[u] & ~flow[u]) | back[u]) & ~seen
                seen, frontier = seen | new, frontier | new
                while new:
                    parent[(new & -new).bit_length() - 1] = u
                    new &= new - 1
        if not seen >> t & 1:
            return value, seen
        v = t
        while v != s:
            u = parent[v]
            if back[u] >> v & 1:  # cancel the flow on v -> u first
                flow[v] ^= 1 << u
                back[u] ^= 1 << v
            else:
                flow[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        value += 1


def min_arc_cut(d: Digraph, s: int, t: int):
    """Minimum set of arcs whose removal kills every s->t path.

    Returns (size, frozenset of arcs).  The cut returned is the canonical
    source-side cut of the maximum flow, so the result is deterministic.
    """
    value, side = _max_flow(d.out, s, t)
    cut = frozenset((u, v) for u in bits(side) for v in bits(d.out[u] & ~side))
    if len(cut) != value:
        raise StrongpackError(f"cut of {len(cut)} arcs for a flow of {value}")
    return value, cut


def vertex_capacitated_connectivity(d: Digraph, s: int, t: int,
                                    uncapped: frozenset[int]) -> int:
    """Max s->t flow where arcs have capacity 1 and every vertex outside
    ``uncapped`` also has capacity 1.  Such a vertex v is split: arcs enter
    node v, leave node n + v, and one arc joins the two.  An uncapped vertex
    stays the single node v."""
    n = d.n
    exit_of = [v if v in uncapped else n + v for v in range(n)]
    out = [0] * (2 * n)
    for v, x in enumerate(d.out):
        out[v] = 1 << exit_of[v]  # overwritten next when v is uncapped
        out[exit_of[v]] = x
    return _max_flow(out, exit_of[s], t)[0]

