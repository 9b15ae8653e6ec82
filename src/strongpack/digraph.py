"""Loop-free simple digraphs and the class predicates used as preconditions.

Vertices are dense integer ids 0..n-1.  A digraph is stored as ``n`` plus a
tuple of out-neighbourhood bitmasks: bit v of ``out[u]`` is set iff u -> v
is an arc.  Equality and hashing work on ``(n, out)``; the arc set, the
in-neighbourhoods and the adjacency lists are derived from the masks on
each use, never cached.

``Digraph(n, arcs)`` validates its input (no loops, ids in range) and is
the constructor for external data.  ``Digraph.from_masks(n, out)`` is the
trusted constructor for digraphs the package builds itself; it does not
check its input.  All functions here are pure.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError, PreconditionError

Arc = tuple[int, int]
Row = tuple[int, list[str]]  # (physical line number, fields) of a data line

_BIT_OF_CHAR = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> list[int]:
    """The positions of the set bits of a nonnegative int, ascending."""
    return list(compress(range(mask.bit_length()),
                         bin(mask)[:1:-1].encode().translate(_BIT_OF_CHAR)))


def _lowest(mask: int) -> int:
    """The position of the lowest set bit of a positive int."""
    return (mask & -mask).bit_length() - 1


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask with exactly the given bits set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _step(masks: Sequence[int], frontier: int) -> int:
    """Union of the masks of the frontier's vertices."""
    nxt = 0
    while frontier:  # frontiers are small: peel the lowest bit each time
        low = frontier & -frontier
        nxt |= masks[low.bit_length() - 1]
        frontier ^= low
    return nxt


def reachable(masks: Sequence[int], root: int, within: int = -1) -> int:
    """Mask of the vertices reachable from ``root`` along ``masks`` through
    the vertices of ``within`` only."""
    seen = frontier = 1 << root
    while frontier:
        frontier = _step(masks, frontier) & within & ~seen
        seen |= frontier
    return seen


def strong_component(out: Sequence[int], inn: Sequence[int], v: int,
                     within: int = -1) -> int:
    """Mask of the strong component holding ``v`` of the subgraph induced
    by ``within``: the vertices ``v`` reaches both along ``out`` and along
    the in-masks ``inn``."""
    return reachable(out, v, within) & reachable(inn, v, within)


class Digraph:
    """A simple directed graph on vertices 0..n-1 with no loops."""

    __slots__ = ("n", "out")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        out = [0] * n
        for u, v in arcs:
            u, v = int(u), int(v)
            if u == v:
                raise PreconditionError(f"loop arc ({u}, {u}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionError(f"arc ({u}, {v}) out of range for n={n}")
            out[u] |= 1 << v
        self._set(n, tuple(out))

    @classmethod
    def from_masks(cls, n: int, out: Iterable[int]) -> "Digraph":
        """Trusted constructor: ``out`` holds n out-neighbourhood masks over
        bits 0..n-1 with bit u of ``out[u]`` clear.  Not validated."""
        d = object.__new__(cls)
        d._set(n, tuple(out))
        return d

    def _set(self, n: int, out: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "out", out)

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    def __reduce__(self):
        return Digraph.from_masks, (self.n, self.out)

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, self.out))

    @property
    def arcs(self) -> frozenset[Arc]:
        """The arc set, built from the masks on each use."""
        return frozenset([(u, v) for u, x in enumerate(self.out) for v in bits(x)])

    @property
    def m(self) -> int:
        return sum(x.bit_count() for x in self.out)

    def has_arc(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.out[u] >> v & 1)

    def out_degree(self, u: int) -> int:
        return self.out[u].bit_count()

    def in_degree(self, v: int) -> int:
        return sum(x >> v & 1 for x in self.out)

    def reverse(self) -> "Digraph":
        return Digraph.from_masks(self.n, self.in_masks())

    def adjacency(self) -> list[list[int]]:
        """Out-adjacency lists, each sorted ascending."""
        return [bits(x) for x in self.out]

    def out_masks(self) -> list[int]:
        """Out-neighborhoods as bitmasks (arbitrary-precision ints)."""
        return list(self.out)

    def in_masks(self) -> list[int]:
        """In-neighborhoods as bitmasks: the out-masks read as the rows of
        a bit matrix and transposed, one string column at a time."""
        rows = [format(x, f"0{self.n}b")[::-1] for x in reversed(self.out)]
        return [int("".join(col), 2) for col in zip(*rows)]

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m})"


def as_terminals(d: Digraph, terminals) -> frozenset[int]:
    """Normalize and validate a terminal collection against a host digraph."""
    ts = frozenset(int(v) for v in terminals)
    if len(ts) < 2:
        raise PreconditionError("terminal set needs at least 2 vertices")
    if any(not (0 <= v < d.n) for v in ts):
        raise PreconditionError(f"terminal out of range for n={d.n}")
    return ts


def induced(d: Digraph, keep: list[int]) -> Digraph:
    """The subdigraph induced by the ascending ids ``keep``, with keep[i]
    renamed i."""
    pos = {v: i for i, v in enumerate(keep)}
    within = mask_of(keep)
    return Digraph.from_masks(
        len(keep), [mask_of(pos[v] for v in bits(d.out[u] & within)) for u in keep])


def strong_components(d: Digraph) -> list[frozenset[int]]:
    """Strongly connected components, sorted by their smallest vertex.

    The lowest vertex v not yet placed shares a component with exactly the
    vertices it reaches both forwards and backwards.  Both closures grow a
    layer at a time inside the unplaced vertices until one is complete (so
    a long path stays linear); the component is the part of that one
    which reaches v the other way.
    """
    inn = d.in_masks()
    comps = []
    left = (1 << d.n) - 1
    while left:
        fwd = bwd = f = b = left & -left
        while f and b:
            f, b = _step(d.out, f) & left & ~fwd, _step(inn, b) & left & ~bwd
            fwd, bwd = fwd | f, bwd | b
        v = (left & -left).bit_length() - 1
        comp = reachable(d.out, v, bwd) if f else reachable(inn, v, fwd)
        comps.append(frozenset(bits(comp)))
        left &= ~comp
    return comps


def is_strong(d: Digraph) -> bool:
    """True iff every vertex reaches every other (single vertex counts):
    vertex 0 reaches everything forwards and backwards."""
    if d.n < 1:
        raise PreconditionError("is_strong needs at least one vertex")
    return strong_component(d.out, d.in_masks(), 0) == (1 << d.n) - 1


def is_symmetric(d: Digraph) -> bool:
    """True iff the arc set is closed under reversal."""
    return tuple(d.in_masks()) == d.out


def is_semicomplete(d: Digraph) -> bool:
    """True iff every unordered vertex pair carries at least one arc."""
    full = (1 << d.n) - 1
    return all(x | y | 1 << u == full
               for u, (x, y) in enumerate(zip(d.out, d.in_masks())))


def underlying_connected(d: Digraph) -> bool:
    """Connectivity of the underlying undirected graph."""
    if d.n == 0:
        return True
    nbr = [x | y for x, y in zip(d.out, d.in_masks())]
    return reachable(nbr, 0) == (1 << d.n) - 1


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


def min_semi_degree(d: Digraph) -> int:
    """min over vertices of min(out-degree, in-degree)."""
    if d.n < 1:
        raise PreconditionError("min_semi_degree needs at least one vertex")
    return min(min(x.bit_count(), y.bit_count()) for x, y in zip(d.out, d.in_masks()))


# -- convenience constructors ------------------------------------------------

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
    arcs = []
    for u, v in edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(n, arcs)


def complete_bipartite_digraph(a: int, b: int) -> Digraph:
    """All arcs both ways between side {0..a-1} and side {a..a+b-1}."""
    if a < 1 or b < 1:
        raise PreconditionError("both sides must be nonempty")
    side_a = (1 << a) - 1
    side_b = ((1 << b) - 1) << a
    return Digraph.from_masks(a + b, [side_b] * a + [side_a] * b)


# -- text formats --------------------------------------------------------------
#
# Every format is read through ``_rows``.  Digraph: first line "n m", then m
# lines "u v" (0-based).  The writer is canonical (arcs sorted), so reading
# what was written and writing it again reproduces the bytes exactly.

def _rows(text: str) -> Iterator[Row]:
    """(1-based physical line number, fields) of every line that is not
    blank and whose first field does not start with '#'."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and fields[0][0] != "#":
            yield lineno, fields


def _header(text: str, kind: str) -> tuple[Iterator[Row], int, list[str]]:
    """(the rows after the first, its line number, its fields) of ``text``."""
    rows = _rows(text)
    for lineno, fields in rows:
        return rows, lineno, fields
    raise GraphFormatError(f"empty {kind} file")


def write_digraph(d: Digraph) -> str:
    names = [str(v) for v in range(d.n)]
    lines = [f"{d.n} {d.m}"]
    for u, x in enumerate(d.out):
        head = names[u] + " "
        lines.extend([head + names[v] for v in bits(x)])
    return "\n".join(lines) + "\n"


def read_digraph(text: str) -> Digraph:
    """Parse the text format; ``_digraph`` gives the order of its errors."""
    return _digraph(_rows(text))


def _digraph(rows: Iterable[Row]) -> Digraph:
    """The digraph on ``rows``.  Every row is checked for syntax first (with
    its line number); then the arc count, the vertex count and the first
    loop or out-of-range arc are reported, in that order.  ``ids`` keeps
    each field's int, so a field is parsed only the first time it is seen."""
    n, m = 0, None  # m stays None until the header row is read
    out: list[int] = []
    count = 0
    bad_arc = None
    ids: dict[str, int] = {}
    for lineno, fields in rows:
        if m is None:
            if len(fields) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError("header fields must be integers", lineno)
            out = [0] * max(n, 0)
            continue
        if len(fields) != 2:
            raise GraphFormatError("expected arc line 'u v'", lineno)
        a, b = fields
        try:
            u, v = ids[a], ids[b]
        except KeyError:
            try:
                ids[a], ids[b] = u, v = int(a), int(b)
            except ValueError:
                raise GraphFormatError("arc endpoints must be integers", lineno)
        count += 1
        if u != v and 0 <= u < n and 0 <= v < n:
            out[u] |= 1 << v
        elif bad_arc is None:
            bad_arc = (u, v)
    if m is None:
        raise GraphFormatError("empty digraph file")
    if count != m:
        raise GraphFormatError(f"header promises {m} arcs, found {count}")
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    if bad_arc is not None:
        u, v = bad_arc
        if u == v:
            raise GraphFormatError(f"loop arc ({u}, {u}) not allowed")
        raise GraphFormatError(f"arc ({u}, {v}) out of range for n={n}")
    return Digraph.from_masks(n, out)
