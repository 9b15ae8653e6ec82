"""Hardness-gadget generators with brute-force oracles for their source
problems.

Each generator turns an instance of a classically hard problem into a
digraph, a terminal set and a target packing size, such that the source
instance is positive exactly when the packing number reaches the target.
The oracles solve the source problems exhaustively at desk scale, which
turns those equivalences into executable tests.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .digraph import Arc, Digraph, _header, biorientation, is_eulerian
from .errors import GraphFormatError, PreconditionError, SizeLimitError


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

    def neighbors_of_element(self, y: int) -> frozenset[int]:
        return frozenset(x for (x, yy) in self.edges if yy == y)


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
    edge_id = {k: h.n + k for k in range(e)}
    hub_id = {k: h.n + e + k for k in range(ell - 2)}
    root = h.n + e + (ell - 2)

    pairs: set[tuple[int, int]] = set()
    for k, edge in enumerate(h.edges):
        for x in edge:
            pairs.add((x, edge_id[k]))
    for k in range(ell - 2):
        pairs.add((root, hub_id[k]))
        for j in range(e):
            pairs.add((hub_id[k], edge_id[j]))
    for x in range(h.n):
        pairs.add((root, x))

    d = biorientation(root + 1, pairs)
    provenance = {x: f"source:{x}" for x in range(h.n)}
    provenance.update({edge_id[k]: f"edge:{k}" for k in range(e)})
    provenance.update({hub_id[k]: f"hub:{k}" for k in range(ell - 2)})
    provenance[root] = "root"
    terminals = frozenset(edge_id.values()) | {root}
    return ReductionOutput(d, terminals, ell, provenance)


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
    arcs: set[Arc] = set(d.arcs)
    arcs.update([(t1, x), (x, s1), (t2, y), (y, s2), (x, s2), (s2, x),
                 (y, t1), (t1, y), (s1, r1), (r1, t2), (s2, r2), (r2, t1)])
    provenance = {v: f"source:{v}" for v in range(n)}
    provenance.update({x: "x", y: "y", r1: "r1", r2: "r2"})

    nxt = n + 4
    for i in range(ell - 2):
        z, zp = nxt, nxt + 1
        nxt += 2
        arcs.update([(x, z), (z, y), (y, zp), (zp, x)])
        provenance[z] = f"z:{i}"
        provenance[zp] = f"z':{i}"

    extra_terminals = []
    for i in range(k - 2):
        xi = nxt
        nxt += 1
        provenance[xi] = f"x_{i}"
        extra_terminals.append(xi)
        for j in range(ell):
            a, b = nxt, nxt + 1
            nxt += 2
            arcs.update([(x, a), (a, xi), (xi, b), (b, x)])
            provenance[a] = f"x_{i}[{j}]"
            provenance[b] = f"x'_{i}[{j}]"

    out = Digraph(nxt, arcs)
    if not is_eulerian(out):
        raise PreconditionError("construction lost the Eulerian property")
    terminals = frozenset({x, y, *extra_terminals})
    return ReductionOutput(out, terminals, ell, provenance)


def has_disjoint_paths(d: Digraph, s1: int, t1: int, s2: int, t2: int,
                       limit: int = 12) -> bool:
    """Vertex-disjoint s1->t1 and s2->t2 paths, by path enumeration."""
    if d.n > limit:
        raise SizeLimitError(f"{d.n} vertices exceeds limit {limit}")
    _check_endpoints(d, (s1, t1, s2, t2))
    adj = d.adjacency()

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
    pairs = {(x, g.c + y) for (x, y) in g.edges}
    pairs |= {(hub, x) for x in range(g.c)}
    d = biorientation(hub + 1, pairs)
    provenance = {x: f"cover:{x}" for x in range(g.c)}
    provenance.update({g.c + y: f"element:{y}" for y in range(g.b)})
    provenance[hub] = "hub"
    terminals = frozenset(range(g.c, g.c + g.b)) | {hub}
    return ReductionOutput(d, terminals, 0, provenance)


def cover_packing_gadget_arc(g: BipartiteGraph) -> ReductionOutput:
    """Digraph whose arc-disjoint packing number equals the maximum number
    of pairwise disjoint covers.

    Every cover vertex u splits into u- -> u+; element and hub arcs enter
    at u- and leave from u+, so each cover vertex funnels all its traffic
    through one throttling arc.
    """
    if g.b < 1:
        raise PreconditionError("element side must be nonempty")
    # ids: elements 0..b-1, then (u-, u+) pairs, then the hub
    minus = {u: g.b + 2 * u for u in range(g.c)}
    plus = {u: g.b + 2 * u + 1 for u in range(g.c)}
    hub = g.b + 2 * g.c
    arcs: set[Arc] = set()
    for u in range(g.c):
        arcs.add((minus[u], plus[u]))
        arcs.add((hub, minus[u]))
        arcs.add((plus[u], hub))
    for u, y in g.edges:
        arcs.add((y, minus[u]))
        arcs.add((plus[u], y))
    d = Digraph(hub + 1, arcs)
    provenance = {y: f"element:{y}" for y in range(g.b)}
    for u in range(g.c):
        provenance[minus[u]] = f"cover-:{u}"
        provenance[plus[u]] = f"cover+:{u}"
    provenance[hub] = "hub"
    terminals = frozenset(range(g.b)) | {hub}
    return ReductionOutput(d, terminals, 0, provenance)


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
    elem_nbrs = [g.neighbors_of_element(y) for y in range(g.b)]
    if any(not nb for nb in elem_nbrs):
        return 0
    best = 0
    for ell in range(1, g.c + 1):
        if not _packable(g, elem_nbrs, ell):
            break
        best = ell
    return best


def _packable(g: BipartiteGraph, elem_nbrs, ell: int) -> bool:
    for labeling in product(range(ell + 1), repeat=g.c):
        groups = [set() for _ in range(ell + 1)]
        for u, lab in enumerate(labeling):
            groups[lab].add(u)
        if all(all(nb & groups[c] for nb in elem_nbrs) for c in range(1, ell + 1)):
            return True
    return False


# -- text formats -----------------------------------------------------------------
#
# Hypergraph: line 1 "n e", then e lines of space-separated vertex ids.
# Bipartite: line 1 "c b e", then e lines "cover_index element_index".

def write_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in sorted(e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    rows, head_line, head_fields = _header(text, "hypergraph")
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


def write_bipartite(g: BipartiteGraph) -> str:
    lines = [f"{g.c} {g.b} {len(g.edges)}"]
    lines.extend(f"{x} {y}" for x, y in sorted(g.edges))
    return "\n".join(lines) + "\n"


def read_bipartite(text: str) -> BipartiteGraph:
    rows, head_line, head_fields = _header(text, "bipartite")
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
