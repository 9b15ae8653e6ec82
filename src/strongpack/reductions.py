"""Hardness-gadget generators and the text formats of their source
instances.

Each generator turns an instance of a classically hard problem into a
digraph, a terminal set and a target packing size, such that the source
instance is positive exactly when the packing number reaches the target.
The brute-force oracles for the source problems, which turn those
equivalences into executable tests, live in ``tests/oracles.py``.

Each generator sizes its table of vertex roles before any loop over the
vertices, so a count no list can hold (a huge header, ``--ell`` or ``--k``)
fails there at once with ``MemoryError`` or ``OverflowError``, which the
CLI refuses with exit 4, and no loop first grows a set until memory runs
out.
"""

from __future__ import annotations

from typing import NamedTuple

from .digraph import Arc, Digraph, _header, _rows, biorientation, is_eulerian
from .errors import GraphFormatError, PreconditionError


class Hypergraph(NamedTuple("Hypergraph", [("n", int),
                                            ("edges", tuple[frozenset[int], ...])])):
    """Vertices 0..n-1 and a list of nonempty hyperedges."""

    __slots__ = ()

    def __new__(cls, n: int, edges):
        edges = tuple(frozenset(e) for e in edges)
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        if any(not e for e in edges):
            raise PreconditionError("hyperedges must be nonempty")
        if any(v < 0 or v >= n for e in edges for v in e):
            raise PreconditionError("hyperedge member out of range")
        return super().__new__(cls, n, edges)


class BipartiteGraph(NamedTuple("BipartiteGraph", [("c", int), ("b", int),
                                                    ("edges", frozenset[tuple[int, int]])])):
    """Two-sided graph: cover side of size c, element side of size b,
    edges as (cover_index, element_index) pairs."""

    __slots__ = ()

    def __new__(cls, c: int, b: int, edges):
        edges = frozenset((int(x), int(y)) for x, y in edges)
        if c < 0 or b < 0:
            raise PreconditionError("side sizes must be nonnegative")
        if any(not (0 <= x < c and 0 <= y < b) for x, y in edges):
            raise PreconditionError("edge endpoint out of range")
        return super().__new__(cls, c, b, edges)


class ReductionOutput(NamedTuple):
    """A generated instance plus a role label for every vertex."""

    digraph: Digraph
    terminals: frozenset[int]
    ell: int
    provenance: dict[int, str]


# -- hypergraph 2-coloring gadget ------------------------------------------------

def hypergraph_gadget(h: Hypergraph, ell: int) -> ReductionOutput:
    """Symmetric digraph whose internally disjoint packing number reaches
    ``ell`` exactly when the hypergraph is 2-colorable.

    Vertices: the hypergraph's vertices, one vertex per hyperedge, ell-2
    hub vertices, and a root.  Edge vertices pair with their members, hubs
    pair with the root and every edge vertex, and the root pairs with
    every hypergraph vertex; all adjacencies are symmetric.  Terminals are
    the edge vertices plus the root.
    """
    if ell < 2:
        raise PreconditionError("need ell >= 2")
    if not h.edges:
        raise PreconditionError("need at least one hyperedge")
    e = len(h.edges)
    root = h.n + e + (ell - 2)
    roles = [""] * (root + 1)
    roles[root] = "root"

    pairs: set[tuple[int, int]] = set()
    for x in range(h.n):
        roles[x] = f"source:{x}"
        pairs.add((root, x))
    for k, edge in enumerate(h.edges):
        roles[h.n + k] = f"edge:{k}"
        pairs.update((x, h.n + k) for x in edge)
    for k in range(ell - 2):
        hub = h.n + e + k
        roles[hub] = f"hub:{k}"
        pairs.add((root, hub))
        pairs.update((hub, h.n + j) for j in range(e))

    d = biorientation(root + 1, pairs)
    terminals = frozenset(range(h.n, h.n + e)) | {root}
    return ReductionOutput(d, terminals, ell, dict(enumerate(roles)))


# -- disjoint-paths gadget -------------------------------------------------------

def _check_endpoints(d: Digraph, ends: tuple[int, ...]) -> None:
    """Refuse path endpoints that are not vertices of ``d`` or repeat."""
    for v in ends:
        if not 0 <= v < d.n:
            raise PreconditionError(f"path endpoint {v} is not a vertex of the input")
    if len(set(ends)) != len(ends):
        raise PreconditionError("the four path endpoints must be distinct")


def linkage_gadget(d: Digraph, s1: int, t1: int, s2: int, t2: int,
                   k: int, ell: int) -> ReductionOutput:
    """Eulerian digraph whose internally disjoint packing number reaches
    ``ell`` exactly when the input has vertex-disjoint s1->t1 and s2->t2
    paths.

    Adds hubs x and y wired to the four path endpoints through relays r1
    and r2, then ell-2 subdivided 2-cycles between x and y, then k-2 extra
    terminals each tied to x by ell subdivided 2-cycles.  Terminals are x,
    y and the extra terminals; the output is Eulerian whenever the input
    is.
    """
    if k < 2 or ell < 2:
        raise PreconditionError("need k >= 2 and ell >= 2")
    _check_endpoints(d, (s1, t1, s2, t2))
    if not is_eulerian(d):
        raise PreconditionError("input digraph is not Eulerian")

    n = d.n
    x, y, r1, r2 = n, n + 1, n + 2, n + 3
    roles = [""] * (n + 4 + 2 * (ell - 2) + (k - 2) * (2 * ell + 1))
    roles[n:n + 4] = "x", "y", "r1", "r2"
    arcs: set[Arc] = set(d.arcs)
    arcs.update([(t1, x), (x, s1), (t2, y), (y, s2), (x, s2), (s2, x),
                 (y, t1), (t1, y), (s1, r1), (r1, t2), (s2, r2), (r2, t1)])
    for v in range(n):
        roles[v] = f"source:{v}"

    nxt = n + 4
    for i in range(ell - 2):
        z, zp = nxt, nxt + 1
        nxt += 2
        arcs.update([(x, z), (z, y), (y, zp), (zp, x)])
        roles[z], roles[zp] = f"z:{i}", f"z':{i}"

    extra_terminals = []
    for i in range(k - 2):
        xi = nxt
        nxt += 1
        roles[xi] = f"x_{i}"
        extra_terminals.append(xi)
        for j in range(ell):
            a, b = nxt, nxt + 1
            nxt += 2
            arcs.update([(x, a), (a, xi), (xi, b), (b, x)])
            roles[a], roles[b] = f"x_{i}[{j}]", f"x'_{i}[{j}]"

    out = Digraph(nxt, arcs)
    if not is_eulerian(out):
        raise PreconditionError("construction lost the Eulerian property")
    terminals = frozenset({x, y, *extra_terminals})
    return ReductionOutput(out, terminals, ell, dict(enumerate(roles)))


# -- set-cover-packing gadgets ----------------------------------------------------

def cover_packing_gadget_internal(g: BipartiteGraph) -> ReductionOutput:
    """Symmetric digraph whose internally disjoint packing number equals
    the maximum number of pairwise disjoint covers.

    Vertices: the cover side, the element side, and a hub adjacent to the
    whole cover side; cover-element adjacency mirrors the input.  The
    terminals (hub plus elements) form an independent set.
    """
    if g.b < 1:
        raise PreconditionError("element side must be nonempty")
    hub = g.c + g.b
    roles = [""] * (hub + 1)
    roles[hub] = "hub"
    pairs = {(x, g.c + y) for (x, y) in g.edges}
    for x in range(g.c):
        roles[x] = f"cover:{x}"
        pairs.add((hub, x))
    for y in range(g.b):
        roles[g.c + y] = f"element:{y}"
    d = biorientation(hub + 1, pairs)
    terminals = frozenset(range(g.c, g.c + g.b)) | {hub}
    return ReductionOutput(d, terminals, 0, dict(enumerate(roles)))


def cover_packing_gadget_arc(g: BipartiteGraph) -> ReductionOutput:
    """Digraph whose arc-disjoint packing number equals the maximum number
    of pairwise disjoint covers.

    Every cover vertex u splits into u- -> u+; element and hub arcs enter
    at u- and leave from u+, so each cover vertex funnels all its traffic
    through one throttling arc.
    """
    if g.b < 1:
        raise PreconditionError("element side must be nonempty")
    # ids: elements 0..b-1, then u- = b + 2u and u+ = u- + 1, then the hub
    hub = g.b + 2 * g.c
    roles = [""] * (hub + 1)
    roles[hub] = "hub"
    for y in range(g.b):
        roles[y] = f"element:{y}"
    arcs: set[Arc] = set()
    for u in range(g.c):
        minus = g.b + 2 * u
        roles[minus], roles[minus + 1] = f"cover-:{u}", f"cover+:{u}"
        arcs.update([(minus, minus + 1), (hub, minus), (minus + 1, hub)])
    for u, y in g.edges:
        arcs.update([(y, g.b + 2 * u), (g.b + 2 * u + 1, y)])
    d = Digraph(hub + 1, arcs)
    terminals = frozenset(range(g.b)) | {hub}
    return ReductionOutput(d, terminals, 0, dict(enumerate(roles)))


# -- text formats -----------------------------------------------------------------
#
# Hypergraph: line 1 "n e", then e lines of space-separated vertex ids.
# Bipartite: line 1 "c b e", then e lines "cover_index element_index".

def write_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in sorted(e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    rows = _rows(text.splitlines())
    head_line, head_fields = _header(rows, "hypergraph")
    try:
        n, e = map(int, head_fields)
    except ValueError:
        raise GraphFormatError("expected header 'n e'", head_line)
    edges = []
    for lineno, fields in rows:
        try:
            edges.append(frozenset(map(int, fields)))
        except ValueError:
            raise GraphFormatError("edge lines must hold integers", lineno)
    if len(edges) != e:
        raise GraphFormatError(f"header promises {e} edges, found {len(edges)}")
    return Hypergraph(n, edges)


def read_bipartite(text: str) -> BipartiteGraph:
    rows = _rows(text.splitlines())
    head_line, head_fields = _header(rows, "bipartite")
    try:
        c, b, e = map(int, head_fields)
    except ValueError:
        raise GraphFormatError("expected header 'c b e'", head_line)
    edges = []
    for lineno, fields in rows:
        if len(fields) != 2:
            raise GraphFormatError("expected edge line 'c_idx b_idx'", lineno)
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise GraphFormatError("edge fields must be integers", lineno)
    if len(edges) != e:
        raise GraphFormatError(f"header promises {e} edges, found {len(edges)}")
    return BipartiteGraph(c, b, edges)
