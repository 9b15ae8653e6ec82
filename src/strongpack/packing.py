"""Constructive packings of arc-disjoint strongly connected subgraphs,
their verifier, and the detector for the three exceptional compositions.

A packing is a collection of arc sets over one host digraph.  Each part
must induce a strong subgraph containing every terminal; parts never share
an arc, and in "internal" mode the vertex sets of two parts meet exactly
in the terminal set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Optional

from . import _kernel
from .composition import CompositionSpec, canonical_decomposition_strong_qt, compose
from .digraph import (Arc, Digraph, as_terminals, bits, complete_bipartite_digraph,
                      directed_cycle, directed_path, empty_digraph,
                      is_semicomplete, is_strong, is_symmetric, mask_of, reachable)
from .errors import (GraphFormatError, InfeasibleError, PreconditionError,
                     StrongpackError)
from .hamilton import decompose_cycle_blowup, hamilton_semicomplete

MODE_ARC = "arc"
MODE_INTERNAL = "internal"


@dataclass(frozen=True)
class Packing:
    host: Digraph
    terminals: frozenset[int]
    mode: str
    parts: tuple[frozenset[Arc], ...]

    def part_vertices(self, i: int) -> frozenset[int]:
        return frozenset(v for arc in self.parts[i] for v in arc)


@dataclass(frozen=True)
class Verdict:
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
    root = (verts & -verts).bit_length() - 1
    return reachable(out, root) == verts and reachable(inn, root) == verts


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
    bipartite digraph with sides of size a <= b.

    The balanced sub-digraph on the first a vertices of each side splits
    into a Hamiltonian cycles; part i additionally picks up both arcs
    between vertex i of the small side and every unmatched vertex of the
    large side.
    """
    if not (1 <= a <= b):
        raise PreconditionError("need 1 <= a <= b")
    host = complete_bipartite_digraph(a, b)
    dec = decompose_cycle_blowup(2, a)  # ids align: layer 0 -> 0..a-1, layer 1 -> a..2a-1
    parts = []
    for i, cyc in enumerate(dec.cycles):
        arcs = set(cyc.arcs())
        for z in range(2 * a, a + b):
            arcs.add((i, z))
            arcs.add((z, i))
        parts.append(frozenset(arcs))
    ts = frozenset(range(a + b)) if terminals is None else as_terminals(host, terminals)
    return _checked(Packing(host, ts, MODE_ARC, tuple(parts)))


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


@dataclass(frozen=True)
class ExceptionalVerdict:
    """Whether a digraph is one of the three small compositions with no
    pair of arc-disjoint strong spanning subgraphs.  ``witness`` maps the
    input's vertices onto the named member."""

    member: bool
    name: Optional[str] = None
    witness: Optional[tuple[int, ...]] = None


def _degree_profile(d: Digraph):
    outd = [0] * d.n
    ind = [0] * d.n
    for u, v in d.arcs:
        outd[u] += 1
        ind[v] += 1
    return sorted(zip(outd, ind))


def _isomorphism(d: Digraph, target: Digraph) -> Optional[tuple[int, ...]]:
    """Mapping of d's vertices onto target's, by permutation search with a
    degree-profile precheck.  Hosts here have at most 7 vertices."""
    if d.n != target.n or d.m != target.m:
        return None
    if _degree_profile(d) != _degree_profile(target):
        return None
    tgt = target.arcs
    for perm in permutations(range(d.n)):
        if all((perm[u], perm[v]) in tgt for (u, v) in d.arcs):
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
    bipartite digraph across its two layers; that digraph is packed as in
    ``pack_bipartite`` and part s collects the s-th piece from every pair.
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
    pairs = sorted({(min(i, p), max(i, p)) for (i, p) in outer.arcs})
    for p, q in pairs:
        np_, nq = spec.inners[p].n, spec.inners[q].n
        # smaller layer plays the small side; ties go to the lower index
        if nq < np_:
            small, large = q, p
        else:
            small, large = p, q
        a, b = spec.inners[small].n, spec.inners[large].n
        block = pack_bipartite(a, b)
        for s in range(n0):
            for u, v in block.parts[s]:
                parts[s].add((_bip_to_flat(u, a, offs, small, large),
                              _bip_to_flat(v, a, offs, small, large)))
    packing = Packing(host, ts, MODE_ARC, tuple(frozenset(p) for p in parts))
    return _checked(packing)


def _bip_to_flat(x: int, a: int, offs, small: int, large: int) -> int:
    if x < a:
        return offs[small] + x
    return offs[large] + (x - a)


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
    n0 = spec.n0

    if n0 == 1:
        return _checked(Packing(host, ts, MODE_ARC, (host.arcs,)))

    t = spec.t
    offs = spec.offsets()
    dropped = _droppable_layer(outer) if t % 2 and n0 % 4 == 2 else None
    if dropped is None and t % 2 and n0 == 2:
        # no layer can go, so t = 3 and the outer digraph is C3
        order = hamilton_semicomplete(outer).order
        parts, core = _c3_core_parts(spec, host)
    else:
        spine = [i for i in range(t) if i != dropped]
        order = [spine[i] for i in hamilton_semicomplete(_induced(outer, spine)).order]
        parts = _blowup_parts(order, n0, offs)
        core = [n0] * t

    # layer -> (layer feeding its other vertices, layer they feed)
    links = {layer: (order[pos - 1], order[(pos + 1) % len(order)])
             for pos, layer in enumerate(order)}
    if dropped is not None:
        links[dropped] = (_lowest(outer.in_masks()[dropped]), _lowest(outer.out[dropped]))
        core[dropped] = 0
    for layer, (a, b) in links.items():
        for v in range(offs[layer] + core[layer], offs[layer + 1]):
            for j, arcs in enumerate(parts):
                arcs.add((offs[a] + j, v))
                arcs.add((v, offs[b] + j))
    return _checked(Packing(host, ts, MODE_ARC, tuple(frozenset(p) for p in parts)))


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _induced(d: Digraph, keep: list[int]) -> Digraph:
    """The subdigraph induced by the ascending ids ``keep``, with keep[i]
    renamed i."""
    pos = {v: i for i, v in enumerate(keep)}
    within = mask_of(keep)
    return Digraph.from_masks(
        len(keep), [mask_of(pos[v] for v in bits(d.out[u] & within)) for u in keep])


def _droppable_layer(outer: Digraph) -> Optional[int]:
    """The smallest outer vertex whose removal leaves a strong digraph, or
    None when there is none."""
    inn = outer.in_masks()
    full = (1 << outer.n) - 1
    for x in range(outer.n):
        rest = full & ~(1 << x)
        root = _lowest(rest)
        if reachable(outer.out, root, rest) == rest == reachable(inn, root, rest):
            return x
    return None


def _blowup_parts(order: list[int], n0: int, offs: list[int]) -> list[set[Arc]]:
    """The Hamiltonian cycles of the spine's blow-up by n0, in host ids:
    blow-up vertex (i, k) is vertex k of the layer at spine position i."""
    parts = []
    for cyc in decompose_cycle_blowup(len(order), n0).cycles:
        arcs: set[Arc] = set()
        for x, y in cyc.arcs():
            xi, xk = divmod(x, n0)
            yi, yk = divmod(y, n0)
            arcs.add((offs[order[xi]] + xk, offs[order[yi]] + yk))
        parts.append(arcs)
    return parts


def _c3_core_parts(spec: CompositionSpec, host: Digraph) -> tuple[list[set[Arc]], list[int]]:
    """Two arc-disjoint strong spanning subgraphs of the host induced by
    the first min(|H_i|, 3) vertices of each layer, or 4 when those form
    an exceptional host, found by exact search; returned in host ids with
    the core size of every layer."""
    offs = spec.offsets()
    for cap in (3, 4):
        core = [min(h.n, cap) for h in spec.inners]
        keep = [offs[i] + k for i, size in enumerate(core) for k in range(size)]
        sub = _induced(host, keep)
        if not is_in_exceptional(sub).member:
            break
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
    flat_of = {orig: flat for flat, orig in enumerate(spec.original_ids)}
    inner = pack_semicomplete_composition(spec, frozenset(flat_of[v] for v in ts))
    back = spec.original_ids
    parts = tuple(
        frozenset((back[u], back[v]) for (u, v) in part) for part in inner.parts)
    return _checked(Packing(d, ts, MODE_ARC, parts))


# -- text format ---------------------------------------------------------------
#
# Line 1: "parts=<count> mode=<arc|internal>"; then one line per part with
# its arcs as "u>v" tokens separated by spaces.

def write_packing(p: Packing) -> str:
    lines = [f"parts={len(p.parts)} mode={p.mode}"]
    for part in p.parts:
        lines.append(" ".join(f"{u}>{v}" for u, v in sorted(part)))
    return "\n".join(lines) + "\n"


def read_packing(text: str, host: Digraph, terminals) -> Packing:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty packing file")
    head = dict(item.split("=", 1) for item in lines[0].split() if "=" in item)
    try:
        count = int(head["parts"])
        mode = head["mode"]
    except (KeyError, ValueError):
        raise GraphFormatError("expected header 'parts=<count> mode=<arc|internal>'", 1)
    if mode not in (MODE_ARC, MODE_INTERNAL):
        raise GraphFormatError(f"unknown mode {mode!r}", 1)
    if len(lines) - 1 != count:
        raise GraphFormatError(f"header promises {count} parts, found {len(lines) - 1}")
    parts = []
    for lineno, line in enumerate(lines[1:], start=2):
        arcs = []
        for token in line.split():
            try:
                u, v = token.split(">")
                arcs.append((int(u), int(v)))
            except ValueError:
                raise GraphFormatError(f"bad arc token {token!r}", lineno)
        parts.append(frozenset(arcs))
    return Packing(host, as_terminals(host, terminals), mode, tuple(parts))
