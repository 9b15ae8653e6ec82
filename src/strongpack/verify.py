"""The packing record, its verifier and its text format.  It needs only the
digraph core ``_core``, so the exact solvers and ``verify`` load no construction.

A packing is a collection of arc sets over one host digraph.  Each part
must induce a strong subgraph containing every terminal; parts never share
an arc, and in "internal" mode the vertex sets of two parts meet exactly
in the terminal set.  A part is checked on successor and predecessor
lists: an iterative DFS from one arc's tail must flag the same vertices
both ways, as many as have out-arcs (every arc end, then), and each
terminal.  Each part ORs its arcs into one set of per-vertex masks, so two
parts share an arc exactly when the masks hold fewer arcs than the parts.
In text: "parts=<count> mode=<arc|internal>", then one line per part, its
arcs as "u>v" tokens, or "-" for an empty part.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Optional

from ._core import Arc, Digraph, _header, _rows, as_terminals
from .errors import GraphFormatError

MODE_ARC = "arc"
MODE_INTERNAL = "internal"


class Packing(NamedTuple):
    host: Digraph
    terminals: frozenset[int]
    mode: str
    parts: tuple[frozenset[Arc], ...]

    def part_vertices(self, i: int) -> frozenset[int]:
        return frozenset(v for arc in self.parts[i] for v in arc)


class Verdict(NamedTuple):
    """Outcome of verify_packing: ok, or the first violated clause."""

    ok: bool
    reason: Optional[str] = None
    parts: tuple[int, ...] = ()
    witness: object = None

    def __bool__(self):
        return self.ok


def _reached(adj: list[list[int]], root: int) -> bytearray:
    """Flags of the vertices an iterative DFS from ``root`` reaches along
    the lists ``adj``."""
    seen = bytearray(len(adj))
    seen[root] = 1
    stack = [root]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    return seen


def _check_part(host: Digraph, arcs: Collection[Arc], terminals, used: list[int]):
    """(stray arcs, strong) of one part, checked as the module says, with
    each host arc ORed into the out-masks ``used``; with no arcs, only the
    lone vertex of a 1-vertex host is strong."""
    n, host_out = host.n, host.out
    stray, succ, pred = [], [[] for _ in range(n)], [[] for _ in range(n)]
    for u, v in arcs:
        if 0 <= u < n and 0 <= v < n and host_out[u] >> v & 1:
            used[u] |= 1 << v
            succ[u].append(v)
            pred[v].append(u)
        else:
            stray.append((u, v))
    if stray or not arcs:
        return stray, n == 1 and all(t == 0 for t in terminals)
    root = next(iter(arcs))[0]
    fwd = _reached(succ, root)
    return stray, (fwd == _reached(pred, root) and fwd.count(1) == n - succ.count([])
                   and all(0 <= t < n and fwd[t] for t in terminals))


def verify_packing(p: Packing) -> Verdict:
    if p.mode not in (MODE_ARC, MODE_INTERNAL):
        return Verdict(False, "unknown mode", witness=p.mode)
    used = [0] * p.host.n  # every part's arcs
    for i, part in enumerate(p.parts):
        stray, strong = _check_part(p.host, part, p.terminals, used)
        if stray:
            return Verdict(False, "arc not in host", (i,), min(stray))
        if not strong:
            return Verdict(False, "part is not a terminal-covering strong subgraph", (i,))
    if sum(map(int.bit_count, used)) < sum(map(len, p.parts)):  # a shared arc; find its pair
        for i in range(len(p.parts)):
            for j in range(i + 1, len(p.parts)):
                shared = p.parts[i] & p.parts[j]
                if shared:
                    return Verdict(False, "arc-disjoint", (i, j), sorted(shared)[0])
    if p.mode == MODE_INTERNAL:  # each part's inner vertices once; a pair only if two meet
        inner = [p.part_vertices(i) - p.terminals for i in range(len(p.parts))]
        if sum(map(len, inner)) > len(frozenset().union(*inner)):
            owner: dict[int, int] = {}  # each inner vertex's first part
            pairs = [(owner.setdefault(v, j), j) for j, vs in enumerate(inner) for v in vs]
            i, j = min(pair for pair in pairs if pair[0] != pair[1])
            return Verdict(False, "internal disjointness", (i, j), min(inner[i] & inner[j]))
    return Verdict(True)


def write_packing(p: Packing) -> str:
    """The text of ``p``, its parts read once, in order, so they may be a stream."""
    names = {v: str(v) for v in range(p.host.n)}
    tails = {v: name + ">" for v, name in names.items()}
    lines = [""]  # the header counts the parts, so it is set last
    for part in p.parts:
        try:
            lines.append(" ".join([tails[u] + names[v] for u, v in sorted(part)]) or "-")
        except KeyError:  # an arc off the host is written as it stands
            lines.append(" ".join(f"{u}>{v}" for u, v in sorted(part)))
    lines[0] = f"parts={len(lines) - 1} mode={p.mode}"
    lines.append("")  # the text ends in a newline, with no second copy of it
    return "\n".join(lines)


def read_packing(text: str, host: Digraph, terminals) -> Packing:
    rows = _rows(text.splitlines())
    head_line, head_fields = _header(rows, "packing")
    head = dict(item.split("=", 1) for item in head_fields if "=" in item)
    try:
        count = int(head["parts"])
        mode = head["mode"]
    except (KeyError, ValueError):
        raise GraphFormatError("expected header 'parts=<count> mode=<arc|internal>'",
                               head_line)
    if mode not in (MODE_ARC, MODE_INTERNAL):
        raise GraphFormatError(f"unknown mode {mode!r}", head_line)
    ids: dict[str, int] = {}  # each distinct id parsed once, as by ``_core._digraph``
    parts = []
    for lineno, fields in rows:
        arcs = []
        for token in [] if fields == ["-"] else fields:
            try:
                a, b = token.split(">")
                try:
                    arcs.append((ids[a], ids[b]))
                except KeyError:
                    ids[a], ids[b] = arc = int(a), int(b)
                    arcs.append(arc)
            except ValueError:
                raise GraphFormatError(f"bad arc token {token!r}", lineno)
        parts.append(frozenset(arcs))
    if len(parts) != count:
        raise GraphFormatError(f"header promises {count} parts, found {len(parts)}")
    lone = host.n == 1 and {int(v) for v in terminals} == {0}  # a sad witness on K1
    ts = frozenset({0}) if lone else as_terminals(host, terminals)
    return Packing(host, ts, mode, tuple(parts))
