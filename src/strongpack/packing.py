"""Constructive packings of arc-disjoint strongly connected subgraphs,
their verifier, and the detector for the three exceptional compositions.

A packing is a collection of arc sets over one host digraph.  Each part
must induce a strong subgraph containing every terminal; parts never share
an arc, and in "internal" mode the vertex sets of two parts meet exactly
in the terminal set.

Every constructive packer is one spine construction (``_spine_parts``):
the Hamiltonian cycles of a blown-up cycle of layers, with the other
vertices joined to every part.  The cycles come from the shift rows of
``decompose_cycle_blowup`` and are written straight into host ids, so no
blow-up digraph or vertex order is built.  A complete bipartite host is
packed as the 2-cycle composition.  Each packer self-checks its result once.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, NamedTuple, Optional

from .composition import CompositionSpec, canonical_decomposition_strong_qt, compose
from .digraph import (Arc, Digraph, _header, _lowest, as_terminals, directed_cycle,
                      directed_path, empty_digraph, induced, is_semicomplete,
                      is_strong, is_symmetric, mask_of, strong_component)
from .errors import (GraphFormatError, InfeasibleError, PreconditionError,
                     StrongpackError)
from .hamilton import BlowupDecomposition, decompose_cycle_blowup, hamilton_semicomplete

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


def _checked(p: Packing) -> Packing:
    verdict = verify_packing(p)
    if not verdict:
        raise StrongpackError(f"constructed packing failed self-check: "
                              f"{verdict.reason} parts={verdict.parts}")
    return p


# -- complete bipartite hosts --------------------------------------------------

def pack_bipartite(a: int, b: int, terminals: Iterable[int] | None = None) -> Packing:
    """``a`` arc-disjoint strong spanning subgraphs of the complete
    bipartite digraph with sides of size a <= b (terminals: every vertex by
    default): ``pack_symmetric_composition`` on the 2-cycle with independent
    layers of sizes a and b."""
    if not (1 <= a <= b):
        raise PreconditionError("need 1 <= a <= b")
    spec = CompositionSpec(directed_cycle(2), (empty_digraph(a), empty_digraph(b)))
    return pack_symmetric_composition(spec, range(a + b) if terminals is None else terminals)


# -- the exceptional compositions ----------------------------------------------

def _exceptional_members() -> tuple[tuple[str, Digraph], ...]:
    c3 = directed_cycle(3)
    k1, k2, k3 = empty_digraph(1), empty_digraph(2), empty_digraph(3)
    p2 = directed_path(2)
    return (
        ("triple-2", compose(CompositionSpec(c3, (k2, k2, k2)))),
        ("path-2-2", compose(CompositionSpec(c3, (p2, k2, k2)))),
        ("2-2-3", compose(CompositionSpec(c3, (k2, k2, k3)))),
    )


EXCEPTIONAL_COMPOSITIONS = _exceptional_members()


class ExceptionalVerdict(NamedTuple):
    """Whether a digraph is one of the three small compositions with no
    pair of arc-disjoint strong spanning subgraphs.  ``witness`` maps the
    input's vertices onto the named member."""

    member: bool
    name: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


def _degree_profile(d: Digraph):
    return sorted(zip(map(int.bit_count, d.out), map(int.bit_count, d.in_masks())))


def _isomorphism(d: Digraph, target: Digraph) -> Optional[tuple[int, ...]]:
    """Mapping of d's vertices onto target's, by permutation search with a
    degree-profile precheck.  Hosts here have at most 7 vertices."""
    if d.n != target.n or d.m != target.m:
        return None
    if _degree_profile(d) != _degree_profile(target):
        return None
    arcs, tgt = d.arcs, target.arcs
    for perm in permutations(range(d.n)):
        if all((perm[u], perm[v]) in tgt for (u, v) in arcs):
            return perm
    return None


def is_in_exceptional(d: Digraph) -> ExceptionalVerdict:
    for name, member in EXCEPTIONAL_COMPOSITIONS:
        mapping = _isomorphism(d, member)
        if mapping is not None:
            return ExceptionalVerdict(True, name, mapping)
    return ExceptionalVerdict(False)


# -- composition packings --------------------------------------------------------

def pack_symmetric_composition(spec: CompositionSpec, terminals) -> Packing:
    """n0 arc-disjoint strong spanning subgraphs of a composition whose
    outer digraph is strong and symmetric.

    Inner arcs are ignored.  Every symmetric outer pair spans a complete
    bipartite digraph across its two layers: the spine is the 2-cycle
    through its smaller layer (the lower index on a tie) and its larger
    one, blown up by the smaller layer's order, and every other vertex of
    the larger layer joins part s through vertex s of the smaller one.
    Part s collects the s-th piece from every pair.
    """
    outer = spec.outer
    if not is_symmetric(outer):
        raise PreconditionError("outer digraph is not symmetric")
    if not is_strong(outer):
        raise PreconditionError("outer digraph is not strong")
    host = compose(spec)
    ts = as_terminals(host, terminals)
    n0 = spec.n0
    offs = spec.offsets()

    parts: list[set[Arc]] = [set() for _ in range(n0)]
    decs: dict[int, BlowupDecomposition] = {}    # per smaller-layer order
    for p, q in sorted({(min(i, p), max(i, p)) for (i, p) in outer.arcs}):
        small, large = (q, p) if spec.inners[q].n < spec.inners[p].n else (p, q)
        a = spec.inners[small].n
        if a not in decs:
            decs[a] = decompose_cycle_blowup(2, a)
        for part, arcs in zip(parts, _spine_parts([small, large], decs[a], offs,
                                                  [(large, a, small, small)])):
            part |= arcs
    return _checked(Packing(host, ts, MODE_ARC, tuple(frozenset(p) for p in parts)))


def _spine_parts(order: list[int], dec: BlowupDecomposition, offs: list[int],
                 joins: list[tuple[int, int, int, int]]) -> list[set[Arc]]:
    """The spine construction, in host ids.  ``dec`` decomposes the cycle
    of layers ``order`` blown up by r = dec.r, on the first r vertices of
    each spine layer: part j is its Hamiltonian cycle j, read straight off
    the shift rows as the arcs from vertex x of each spine layer to vertex
    x + rows[i][j] (mod r) of the next.  ``_join`` then attaches ``joins``."""
    r = dec.r
    starts = [offs[layer] for layer in order]
    parts = []
    for j in range(r):
        arcs = set()
        for i, row in enumerate(dec.rows):
            a, b, s = starts[i], starts[(i + 1) % dec.t], row[j]
            arcs.update((a + x, b + (x + s) % r) for x in range(r))
        parts.append(arcs)
    _join(parts, offs, joins)
    return parts


def _join(parts: list[set[Arc]], offs: list[int],
          joins: list[tuple[int, int, int, int]]) -> None:
    """Each join (layer, first, a, b) adds every vertex of ``layer`` from
    index ``first`` onward to part j, through an arc from vertex j of
    layer a and an arc to vertex j of layer b."""
    for layer, first, a, b in joins:
        for v in range(offs[layer] + first, offs[layer + 1]):
            for j, arcs in enumerate(parts):
                arcs.add((offs[a] + j, v))
                arcs.add((v, offs[b] + j))


def pack_semicomplete_composition(spec: CompositionSpec, terminals) -> Packing:
    """n0 arc-disjoint strong spanning subgraphs of a composition whose
    outer digraph is strong semicomplete, refusing the three exceptional
    hosts.

    n0 = 1 takes the whole digraph.  Otherwise the parts grow from a spine:
    a directed cycle through the outer digraph whose blow-up by n0 has a
    shift decomposition into n0 Hamiltonian cycles (``decompose_cycle_blowup``
    on the first n0 vertices of every spine layer); cycle j is the core of
    part j.

    * If t is even or n0 != 2 (mod 4), the spine is a Hamiltonian cycle of
      the outer digraph.
    * Otherwise the smallest outer vertex x whose removal keeps the outer
      digraph strong is dropped, and the spine is a Hamiltonian cycle of
      the rest: an even cycle of t - 1 layers.  Every vertex of layer x
      joins part j through vertex j of its smallest-index in-neighbour layer
      and vertex j of its smallest-index out-neighbour layer.
    * Such an x exists unless t = 3 and the outer digraph is C3.  There, for
      n0 = 2, an exact search splits the core of the first min(|H_i|, 3)
      vertices of each layer (4 of the layer that has them when that core
      is the exceptional 2-2-3) into two strong spanning parts, so the
      search sees at most 8 vertices; the other vertices of each layer
      join as on a spine along the C3.  For n0 >= 6 that case raises
      UnsupportedCaseError.

    Every other vertex of a spine layer joins part j through vertex j of
    its predecessor and successor layers on the spine.
    """
    outer = spec.outer
    if not is_semicomplete(outer):
        raise PreconditionError("outer digraph is not semicomplete")
    if not is_strong(outer):
        raise PreconditionError("outer digraph is not strong")
    host = compose(spec)
    verdict = is_in_exceptional(host)
    if verdict.member:
        raise InfeasibleError(
            f"host is the exceptional composition '{verdict.name}' (vertex "
            f"mapping {verdict.witness}), which has no pair of arc-disjoint "
            f"strong spanning subgraphs")
    ts = as_terminals(host, terminals)
    parts = [host.arcs] if spec.n0 == 1 else _semicomplete_parts(spec)
    return _checked(Packing(host, ts, MODE_ARC, tuple(frozenset(p) for p in parts)))


def _semicomplete_parts(spec: CompositionSpec) -> list[set[Arc]]:
    """The n0 >= 2 parts of ``pack_semicomplete_composition`` in flat ids,
    unchecked; the outer digraph must be strong semicomplete and the host
    not exceptional."""
    outer, t, n0 = spec.outer, spec.t, spec.n0
    offs = spec.offsets()
    dropped = _droppable_layer(outer) if t % 2 and n0 % 4 == 2 else None
    spine = [i for i in range(t) if i != dropped]
    order = [spine[i] for i in hamilton_semicomplete(induced(outer, spine))]
    joins = [(layer, n0, order[pos - 1], order[(pos + 1) % len(order)])
             for pos, layer in enumerate(order)]
    if dropped is not None:
        joins.append((dropped, 0, _lowest(outer.in_masks()[dropped]),
                      _lowest(outer.out[dropped])))
    elif t % 2 and n0 == 2:
        # no layer can go, so t = 3 and the outer digraph is C3
        parts, core = _c3_core_parts(spec)
        _join(parts, offs, [(layer, core[layer], a, b) for layer, _, a, b in joins])
        return parts
    return _spine_parts(order, decompose_cycle_blowup(len(order), n0), offs, joins)


def _droppable_layer(outer: Digraph) -> Optional[int]:
    """The smallest outer vertex whose removal leaves a strong digraph, or
    None when there is none."""
    inn = outer.in_masks()
    full = (1 << outer.n) - 1
    for x in range(outer.n):
        rest = full & ~(1 << x)
        if strong_component(outer.out, inn, _lowest(rest), rest) == rest:
            return x
    return None


def _c3_core_parts(spec: CompositionSpec) -> tuple[list[set[Arc]], list[int]]:
    """Two arc-disjoint strong spanning subgraphs of the composition of the
    first min(|H_i|, 3) vertices of each layer, or 4 of the 3-layer when
    those are the exceptional 2-2-3 (sizes 2, 2, 3, no inner arc), found by
    exact search; returned in host ids with the core size of every layer."""
    from . import _kernel

    offs = spec.offsets()
    core = [min(h.n, 3) for h in spec.inners]
    if sorted(core) == [2, 2, 3] and not any(
            x & (1 << k) - 1 for h, k in zip(spec.inners, core) for x in h.out[:k]):
        core = [4 if k == 3 else k for k in core]
    sub = compose(CompositionSpec(
        spec.outer, [induced(h, list(range(k))) for h, k in zip(spec.inners, core)]))
    keep = [offs[i] + k for i, size in enumerate(core) for k in range(size)]
    arcs = sorted(sub.arcs)
    found = _kernel.search_arc_disjoint(sub.n, arcs, (1 << sub.n) - 1, 2)
    if found is None:
        raise StrongpackError("exact search found no strong arc "
                              "decomposition of a non-exceptional core")
    parts = [{(keep[u], keep[v]) for u, v in (arcs[i] for i in part)} for part in found]
    return parts, core


def pack_quasi_transitive(d: Digraph, terminals) -> Packing:
    """Packing for a strong quasi-transitive digraph through its canonical
    decomposition; the part count is that decomposition's n0."""
    verdict = is_in_exceptional(d)
    if verdict.member:
        raise InfeasibleError(
            f"digraph is the exceptional composition '{verdict.name}' "
            f"(vertex mapping {verdict.witness})")
    spec = canonical_decomposition_strong_qt(d)
    ts = as_terminals(d, terminals)
    back = spec.original_ids
    parts = [d.arcs] if spec.n0 == 1 else [
        {(back[u], back[v]) for u, v in part} for part in _semicomplete_parts(spec)]
    return _checked(Packing(d, ts, MODE_ARC, tuple(frozenset(p) for p in parts)))


# -- text format ---------------------------------------------------------------
#
# Line 1: "parts=<count> mode=<arc|internal>"; then one line per part with
# its arcs as "u>v" tokens separated by spaces, or "-" for an empty part.

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
