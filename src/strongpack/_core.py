"""The digraph core that the exact solvers, the flows and the verifier run;
``digraph`` re-exports it and adds the class predicates, the standard
digraphs and the writer.  A digraph on the ids 0..n-1 is ``n`` plus a tuple
of out-neighbourhood bitmasks (bit v of ``out[u]`` is set iff u -> v is an
arc), compared and hashed as ``(n, out)``; the arc set is built on each use,
the in-masks on the first and then kept.  ``Digraph(n, arcs)`` validates
external data (no loops, ids in range); ``Digraph.from_masks(n, out)``, for
digraphs the package builds, does not.  All functions here are pure."""

from __future__ import annotations

from itertools import compress
from operator import length_hint
from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError, PreconditionError

Arc = tuple[int, int]
Row = tuple[int, list[str]]  # (physical line number, fields) of a data line

_BIT_OF_CHAR = bytes.maketrans(b"01", b"\x00\x01")
_SLICE = 1 << 16  # characters of text whose lines ``_digraph`` holds at once


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


def _transpose(n: int, out: Sequence[int]) -> list[int]:
    """The in-masks of ``out``: with 32m >= n^2 its masks, read as bit-matrix
    rows, are transposed one string column at a time, else each arc sets a bit."""
    if 32 * sum(map(int.bit_count, out)) >= n * n:
        rows = [format(x, f"0{n}b")[::-1] for x in reversed(out)]
        return [int("".join(col), 2) for col in zip(*rows)]
    inn = [0] * n
    for u, x in enumerate(out):
        for v in bits(x):
            inn[v] |= 1 << u
    return inn


class Digraph:
    """A simple directed graph on vertices 0..n-1 with no loops."""

    __slots__ = ("n", "out", "_inn")

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
        object.__setattr__(self, "_inn", None)

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

    def in_masks(self) -> list[int]:
        """In-neighbourhood masks, kept from the first call; a fresh list each time."""
        if self._inn is None:
            object.__setattr__(self, "_inn", _transpose(self.n, self.out))
        return list(self._inn)

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


def is_strong(d: Digraph) -> bool:
    """True iff every vertex reaches every other (single vertex counts):
    vertex 0 reaches everything forwards and backwards."""
    if d.n < 1:
        raise PreconditionError("is_strong needs at least one vertex")
    return strong_component(d.out, d.in_masks(), 0) == (1 << d.n) - 1


def is_symmetric(d: Digraph) -> bool:
    """True iff the arc set is closed under reversal."""
    return tuple(d.in_masks()) == d.out


def underlying_connected(d: Digraph) -> bool:
    """Connectivity of the underlying undirected graph."""
    if d.n == 0:
        return True
    nbr = [x | y for x, y in zip(d.out, d.in_masks())]
    return reachable(nbr, 0) == (1 << d.n) - 1


# -- text formats, whose data lines ``_fields`` picks.  Digraph: "n m", then m lines "u v".

def _fields(line: str) -> list[str]:
    """The fields of a data line; [] for a blank line or a '#' comment."""
    return fields if (fields := line.split()) and fields[0][0] != "#" else []


def _rows(lines: Iterable[str], start: int = 1) -> Iterator[Row]:
    """(physical line number, fields) of every data line, the first line ``start``."""
    for lineno, fields in enumerate(map(_fields, lines), start):
        if fields:
            yield lineno, fields


def _header(rows: Iterator[Row], kind: str) -> Row:
    """The first of ``rows``, taken from them: a file's header row."""
    for row in rows:
        return row
    raise GraphFormatError(f"empty {kind} file")


def read_digraph(text: str) -> Digraph:
    """Parse the text format."""
    return _digraph(text)


def _slices(text: str) -> Iterator[list[str]]:
    """The lines of ``text``, about ``_SLICE`` characters of them at a time: each
    slice ends just after a "\\n", where ``splitlines`` cuts too ("\\r\\n" ends in one)."""
    end = 0
    while end < len(text):
        begin, end = end, text.find("\n", end + _SLICE) + 1 or len(text)
        yield text[begin:end].splitlines()


def _digraph(text: str, start: int = 1) -> Digraph:
    """The digraph whose text is ``text``, the first line numbered ``start``,
    read one slice of lines at a time (``_slices``): ``out[tail[a]] |=
    head[b]`` reads each arc line whose two fields it has seen, each parsed
    and range-checked once; its except arm adds a new pair of ids and reads
    any other line by ``_fields``.  Every line is checked for syntax first
    (with its line number); then the arc count, the vertex count and the
    first loop or out-of-range arc are reported, in that order."""
    n, at, out, tail, head, skipped, bad = None, start, [], {}, {}, 0, False
    for lines in _slices(text):  # lines[0] is line ``at``
        rows = iter(lines)
        for first, fields in _rows(rows, at) if n is None else ():  # the header, if still unread
            try:
                n, m = map(int, fields)
            except ValueError:
                raise GraphFormatError("header fields must be integers" if len(fields) == 2
                                       else "expected header 'n m'", first)
            out = [0] * max(n, 0)
            break
        arcs = map(str.split, rows)
        while True:
            try:
                for a, b in arcs:
                    out[tail[a]] |= head[b]
                break
            except KeyError:  # two fields, one of them new
                pass
            except ValueError:  # another field count, so no pair of ids
                a = b = ""
            try:  # reached only by an exception: a new arc, if its two fields are ids
                u, v = int(a), int(b)
            except ValueError:  # no arc: a blank or comment line, else a syntax error
                i = len(lines) - 1 - length_hint(rows)  # the line last taken
                fields = _fields(lines[i])
                if fields:
                    raise GraphFormatError("arc endpoints must be integers" if len(fields) == 2
                                           else "expected arc line 'u v'", at + i)
                skipped += 1
                continue
            if 0 <= u < n and 0 <= v < n:  # a loop is found on the finished masks
                tail[a], head[b] = u, 1 << v
                out[u] |= 1 << v
            else:
                bad = True
        at += len(lines)
    if n is None:
        raise GraphFormatError("empty digraph file")
    count = at - 1 - first - skipped
    if count != m:
        raise GraphFormatError(f"header promises {m} arcs, found {count}")
    if n < 0 or bad or any(x >> u & 1 for u, x in enumerate(out)):
        try:  # ``Digraph`` words it: a negative n, else the first bad arc in file order
            Digraph(n, filter(None, map(_fields, text.splitlines()[first + 1 - start:])))
        except PreconditionError as exc:
            raise GraphFormatError(str(exc)) from None
    return Digraph.from_masks(n, out)
