"""The packing record, its verifier and its text format.  It needs only
``digraph``, so the exact solvers and ``verify`` load no construction.

A packing is a collection of arc sets over one host digraph.  Each part
must induce a strong subgraph containing every terminal; parts never share
an arc, and in "internal" mode the vertex sets of two parts meet exactly
in the terminal set.  In text: "parts=<count> mode=<arc|internal>", then
one line per part, its arcs as "u>v" tokens, or "-" for an empty part.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .digraph import Arc, Digraph, _header, _lowest, as_terminals, mask_of, strong_component
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


def _part_masks(host: Digraph,
                arcs: frozenset[Arc]) -> tuple[list[int], list[int], list[Arc]]:
    """(out-masks, in-masks, stray arcs) of the subgraph spanned by the
    host arcs among ``arcs``; stray arcs are those not in the host."""
    n, host_out = host.n, host.out
    out, inn, stray = [0] * n, [0] * n, []
    for u, v in arcs:
        if 0 <= u < n and 0 <= v < n and host_out[u] >> v & 1:
            out[u] |= 1 << v
            inn[v] |= 1 << u
        else:
            stray.append((u, v))
    return out, inn, stray


def _strong_with(out: list[int], inn: list[int], required: int) -> bool:
    """The subgraph with these masks (its vertices are the arc ends) is
    strong and covers the vertex mask ``required``."""
    verts = 0
    for x, y in zip(out, inn):
        verts |= x | y
    if not verts or required & ~verts:
        return False
    return strong_component(out, inn, _lowest(verts)) == verts


def verify_packing(p: Packing) -> Verdict:
    if p.mode not in (MODE_ARC, MODE_INTERNAL):
        return Verdict(False, "unknown mode", witness=p.mode)
    required = mask_of(p.terminals)
    used = [0] * p.host.n
    overlap = False  # arcs shared between parts; located pair by pair below
    for i, part in enumerate(p.parts):
        out, inn, stray = _part_masks(p.host, part)
        if stray:
            return Verdict(False, "arc not in host", (i,), min(stray))
        if not _strong_with(out, inn, required):
            return Verdict(False, "part is not a terminal-covering strong subgraph", (i,))
        for u, x in enumerate(out):
            if used[u] & x:
                overlap = True
            used[u] |= x
    if overlap:
        for i in range(len(p.parts)):
            for j in range(i + 1, len(p.parts)):
                shared = p.parts[i] & p.parts[j]
                if shared:
                    return Verdict(False, "arc-disjoint", (i, j), sorted(shared)[0])
    if p.mode == MODE_INTERNAL:
        for i in range(len(p.parts)):
            vi = p.part_vertices(i)
            for j in range(i + 1, len(p.parts)):
                extra = (vi & p.part_vertices(j)) - p.terminals
                if extra:
                    return Verdict(False, "internal disjointness", (i, j), min(extra))
    return Verdict(True)


def write_packing(p: Packing) -> str:
    lines = [f"parts={len(p.parts)} mode={p.mode}"]
    for part in p.parts:
        lines.append(" ".join(f"{u}>{v}" for u, v in sorted(part)) or "-")
    return "\n".join(lines) + "\n"


def read_packing(text: str, host: Digraph, terminals) -> Packing:
    rows, head_line, head_fields = _header(text, "packing")
    head = dict(item.split("=", 1) for item in head_fields if "=" in item)
    try:
        count = int(head["parts"])
        mode = head["mode"]
    except (KeyError, ValueError):
        raise GraphFormatError("expected header 'parts=<count> mode=<arc|internal>'",
                               head_line)
    if mode not in (MODE_ARC, MODE_INTERNAL):
        raise GraphFormatError(f"unknown mode {mode!r}", head_line)
    parts = []
    for lineno, fields in rows:
        arcs = []
        for token in [] if fields == ["-"] else fields:
            try:
                u, v = token.split(">")
                arcs.append((int(u), int(v)))
            except ValueError:
                raise GraphFormatError(f"bad arc token {token!r}", lineno)
        parts.append(frozenset(arcs))
    if len(parts) != count:
        raise GraphFormatError(f"header promises {count} parts, found {len(parts)}")
    return Packing(host, as_terminals(host, terminals), mode, tuple(parts))
