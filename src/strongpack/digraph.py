"""The class predicates, the standard digraphs and the writer, over the core
in ``_core``: each of its names is re-exported here as the same object."""

from __future__ import annotations

from itertools import compress
from typing import Iterable

from ._core import (_BIT_OF_CHAR, Arc as Arc, Digraph as Digraph, Row as Row,
                    _header as _header, _lowest as _lowest, _rows as _rows, _step as _step,
                    as_terminals as as_terminals, bits as bits, is_strong as is_strong,
                    is_symmetric as is_symmetric, mask_of as mask_of, reachable as reachable,
                    read_digraph as read_digraph, strong_component as strong_component,
                    underlying_connected as underlying_connected)
from .errors import PreconditionError


def induced(d: Digraph, keep: list[int]) -> Digraph:
    """The subdigraph induced by the distinct ids ``keep``, in any order,
    with keep[i] renamed i."""
    pos = {v: i for i, v in enumerate(keep)}
    within = mask_of(keep)
    return Digraph.from_masks(
        len(keep), [mask_of(pos[v] for v in bits(d.out[u] & within)) for u in keep])


def strong_components(d: Digraph) -> list[frozenset[int]]:
    """Strongly connected components, sorted by their smallest vertex.  The
    lowest unplaced vertex v shares one with exactly the vertices it reaches
    both ways.  Both closures grow a layer at a time inside the unplaced
    vertices until one is complete (so a long path stays linear); the
    component is the part of that one which reaches v the other way."""
    inn = d.in_masks()
    comps = []
    left = (1 << d.n) - 1
    while left:
        fwd = bwd = f = b = left & -left
        while f and b:
            f, b = _step(d.out, f) & left & ~fwd, _step(inn, b) & left & ~bwd
            fwd, bwd = fwd | f, bwd | b
        masks, within = (d.out, bwd) if f else (inn, fwd)
        low = _lowest(left)
        comp = reachable(masks, low, within)
        comps.append(frozenset(low + v for v in bits(comp >> low)))
        left &= ~comp
    return comps


def is_semicomplete(d: Digraph) -> bool:
    """True iff every unordered vertex pair carries at least one arc."""
    full = (1 << d.n) - 1
    return all(x | y | 1 << u == full
               for u, (x, y) in enumerate(zip(d.out, d.in_masks())))


def is_eulerian(d: Digraph) -> bool:
    """Balanced in/out degree at every vertex and connected underlying graph."""
    if not underlying_connected(d):
        return False
    return all(x.bit_count() == y.bit_count() for x, y in zip(d.out, d.in_masks()))


def is_quasi_transitive(d: Digraph) -> bool:
    """True iff every 2-arc path x->y->z forces an arc between x and z:
    for every arc x->y, out[y] lies inside out[x] | in[x] | {x}."""
    inn = d.in_masks()
    for x, ox in enumerate(d.out):
        allowed = ox | inn[x] | 1 << x
        for y in bits(ox):
            if d.out[y] & ~allowed:
                return False
    return True


def directed_cycle(t: int) -> Digraph:
    if t < 2:
        raise PreconditionError("directed cycle needs at least 2 vertices")
    return Digraph.from_masks(t, (1 << (i + 1) % t for i in range(t)))


def directed_path(t: int) -> Digraph:
    return Digraph.from_masks(t, (1 << i + 1 if i + 1 < t else 0 for i in range(t)))


def empty_digraph(n: int) -> Digraph:
    return Digraph(n)


def biorientation(n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
    """Symmetric digraph obtained by replacing each edge with both arcs."""
    return Digraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def complete_bipartite_digraph(a: int, b: int) -> Digraph:
    """All arcs both ways between side {0..a-1} and side {a..a+b-1}."""
    if a < 1 or b < 1:
        raise PreconditionError("both sides must be nonempty")
    side_a = (1 << a) - 1
    side_b = ((1 << b) - 1) << a
    return Digraph.from_masks(a + b, [side_b] * a + [side_a] * b)


def write_digraph(d: Digraph) -> str:
    """The text format: the header, then one string per tail holding its arc lines."""
    heads = [f"{v}\n" for v in range(d.n)]
    rows = [f"{d.n} {d.m}\n"]
    for u, x in enumerate(d.out):
        flags = bin(x)[:1:-1].encode().translate(_BIT_OF_CHAR)  # byte v is bit v, as in ``bits``
        rows.append(f"{u} ".join(["", *compress(heads, flags)]))
    return "".join(rows)
