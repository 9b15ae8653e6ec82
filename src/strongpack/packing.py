"""Constructive packings of arc-disjoint strongly connected subgraphs and
the exceptional-composition detector; the record and verifier live in ``verify``.

Every constructive packer is one spine construction (``_spine_parts``):
the Hamiltonian cycles of blown-up cycles of layers, with the other
vertices joined to every part.  A packer only chooses the cycles; the
construction decomposes them, from the shift rows of
``decompose_cycle_blowup`` written straight into host ids (so no blow-up
digraph or vertex order is built), and derives every join, finishing
part j before it starts part j + 1.  The composition packers,
``pack_quasi_transitive`` included, and ``pack`` call one dispatcher,
``_pack``: the exceptional refusal, the n0 = 1 rule, the symmetric or
semicomplete choice and the one self-check, ``_checked``, of each part as
it passes.  It names each layer vertex once by its host id
(``spec.original_ids`` on a given host, else layer-major), so every part
is built in host ids with one int object per vertex.  A packer holds each
part once, frozen as it passes; ``pack`` holds one part at a time.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, NamedTuple, Optional

from .composition import CompositionSpec, canonical_decomposition_strong_qt, compose
from .digraph import (Arc, Digraph, _lowest, as_terminals, directed_cycle, directed_path,
                      empty_digraph, induced, is_semicomplete, is_strong, is_symmetric,
                      mask_of, strong_component)
from .errors import InfeasibleError, PreconditionError, StrongpackError
from .hamilton import BlowupDecomposition, decompose_cycle_blowup, hamilton_semicomplete
# perfbench reads the record, verifier and text format on this module, and its
# tracer wraps them here; "x as x" marks a name imported only for that.
from .verify import (MODE_ARC, MODE_INTERNAL as MODE_INTERNAL, Packing, _check_part,
                     verify_packing as verify_packing, read_packing as read_packing,
                     write_packing as write_packing)


def _checked(host: Digraph, ts: frozenset[int], parts: Iterable[set[Arc]]) -> Iterator[set[Arc]]:
    """``parts`` as they pass, each checked by ``verify._check_part`` into one
    shared set of out-masks; StrongpackError at the first that fails, or
    after the last if the masks hold fewer arcs than the parts (two share one)."""
    used, total = [0] * host.n, 0
    for i, arcs in enumerate(parts):
        stray, strong = _check_part(host, arcs, ts, used)
        if stray or not strong:
            why = "arc not in host" if stray else "part is not a terminal-covering strong subgraph"
            raise StrongpackError(f"constructed packing failed self-check: {why} parts={(i,)}")
        total += len(arcs)
        yield arcs
    if sum(map(int.bit_count, used)) < total:
        raise StrongpackError("constructed packing failed self-check: arc-disjoint")


# -- complete bipartite hosts --------------------------------------------------

def pack_bipartite(a: int, b: int, terminals: Iterable[int] | None = None) -> Packing:
    """min(a, b) arc-disjoint strong spanning subgraphs of the complete
    bipartite digraph with sides of sizes a, b >= 1 (terminals: every vertex
    by default): ``pack_symmetric_composition`` on the 2-cycle with
    independent layers of sizes a and b."""
    if a < 1 or b < 1:
        raise PreconditionError("both sides must be nonempty")
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
    bipartite digraph across its two layers, so each pair is one spine
    cycle: the 2-cycle through its smaller layer (the lower index on a tie)
    and its larger one, blown up by the smaller layer's order.  Part s
    collects colour s of every pair.  n0 = 1 takes the whole host.
    """
    return _pack(spec, terminals, True)


def _pack(spec: CompositionSpec, terminals, symmetric: Optional[bool] = None,
          host: Optional[Digraph] = None, stream: bool = False) -> Packing:
    """The composition packer behind the public ones and ``pack``, whose
    ``stream`` keeps the checked parts a stream, to be read once.
    ``symmetric`` picks the outer class, ``None`` meaning symmetric when
    the outer digraph is; ``host`` defaults to ``compose(spec)``, and a
    given host's layer vertices are named by ``spec.original_ids``
    (layer-major ids when it has none)."""
    outer = spec.outer
    if symmetric is None:
        symmetric = is_symmetric(outer)
    elif symmetric and not is_symmetric(outer):
        raise PreconditionError("outer digraph is not symmetric")
    if not symmetric and not is_semicomplete(outer):
        raise PreconditionError("outer digraph is not semicomplete")
    if not is_strong(outer):
        raise PreconditionError("outer digraph is not strong")
    ids, host = (None, compose(spec)) if host is None else (spec.original_ids, host)
    verdict = is_in_exceptional(host)
    if verdict.member:
        raise InfeasibleError(
            f"host is the exceptional composition '{verdict.name}' (vertex "
            f"mapping {verdict.witness}), which has no pair of arc-disjoint "
            f"strong spanning subgraphs")
    ts = as_terminals(host, terminals)
    if spec.n0 == 1:
        parts = [host.arcs]
    else:
        ids, offs = list(ids or range(spec.n)), spec.offsets()  # one int object per vertex
        layers = [ids[a:b] for a, b in zip(offs, offs[1:])]  # each layer's host ids, in order
        if symmetric:
            size = [h.n for h in spec.inners]
            orders = [sorted(arc, key=size.__getitem__) for arc in outer.arcs if arc[0] < arc[1]]
            parts = _spine_parts(spec, layers, [(o, size[o[0]]) for o in orders])
        else:
            parts = _semicomplete_parts(spec, layers, host)
    parts = _checked(host, ts, parts)
    return Packing(host, ts, MODE_ARC, parts if stream else tuple(map(frozenset, parts)))


def _spine_parts(spec: CompositionSpec, layers: list[list[int]],
                 cycles: list[tuple[list[int], int]]) -> Iterator[set[Arc]]:
    """The n0 parts of the spine construction, in the host ids of ``layers``.
    Each cycle (order, r) is the cycle of layers ``order`` blown up by r on
    the first r vertices of each of its layers, decomposed once per (length,
    r): part j gets its Hamiltonian cycle j, read straight off the shift
    rows as the arcs from vertex x of each layer to vertex x + rows[i][j]
    (mod r) of the next.  ``_join`` then attaches every other vertex: one of
    a cycle layer through vertex j of the layers before and after it on
    that cycle, and one of a layer on no cycle through vertex j of its
    lowest in- and out-neighbour layers on a cycle."""
    outer = spec.outer
    decs: dict[tuple[int, int], BlowupDecomposition] = {}
    steps, joins, on = [], [], 0
    for order, r in cycles:
        k = len(order)
        if (k, r) not in decs:
            decs[k, r] = decompose_cycle_blowup(k, r)
        heads = [layers[x][:r] for x in order]
        steps += zip(heads, heads[1:] + heads[:1], decs[k, r].rows)
        joins += [(x, r, order[i - 1], order[(i + 1) % k]) for i, x in enumerate(order)]
        on |= mask_of(order)
    inn = outer.in_masks()
    joins += [(x, 0, _lowest(inn[x] & on), _lowest(outer.out[x] & on))
              for x in range(spec.t) if not on >> x & 1]
    for j in range(spec.n0):
        arcs = {arc for a, b, row in steps for arc in zip(a, b[row[j]:] + b[:row[j]])}
        _join(arcs, j, layers, joins)
        yield arcs


def _join(arcs: set[Arc], j: int, layers: list[list[int]],
          joins: list[tuple[int, int, int, int]]) -> None:
    """Each join (layer, first, a, b) adds every vertex of ``layer`` from
    index ``first`` onward to part j, whose arcs are ``arcs``, through an
    arc from vertex j of layer a and an arc to vertex j of layer b."""
    for layer, first, a, b in joins:
        x, y = layers[a][j], layers[b][j]
        for v in layers[layer][first:]:
            arcs.add((x, v))
            arcs.add((v, y))


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
    return _pack(spec, terminals, False)


def _semicomplete_parts(spec: CompositionSpec, layers: list[list[int]],
                        host: Digraph) -> Iterator[set[Arc]]:
    """The n0 >= 2 parts of ``pack_semicomplete_composition`` in the host ids
    of ``layers``, unchecked and one at a time; the outer digraph must be
    strong semicomplete and the host not exceptional."""
    outer, t, n0 = spec.outer, spec.t, spec.n0
    dropped = _droppable_layer(outer) if t % 2 and n0 % 4 == 2 else None
    spine = [i for i in range(t) if i != dropped]
    order = [spine[i] for i in hamilton_semicomplete(induced(outer, spine))]
    if dropped is None and t % 2 and n0 == 2:
        # no layer can go, so t = 3 and the outer digraph is C3
        parts, core = _c3_core_parts(spec, layers, host)
        joins = [(x, core[x], order[i - 1], order[(i + 1) % 3]) for i, x in enumerate(order)]
        for j, arcs in enumerate(parts):
            _join(arcs, j, layers, joins)
            yield arcs
    else:
        yield from _spine_parts(spec, layers, [(order, n0)])


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


def _c3_core_parts(spec: CompositionSpec, layers: list[list[int]],
                   host: Digraph) -> tuple[list[set[Arc]], list[int]]:
    """Two arc-disjoint strong spanning subgraphs of the host induced on the
    first min(|H_i|, 3) vertices of each of ``layers`` (4 of the 3-layer when
    those are the exceptional 2-2-3: sizes 2, 2, 3, no inner arc), found by
    exact search; returned in host ids with the core size of every layer."""
    from . import _kernel

    core = [min(h.n, 3) for h in spec.inners]
    if sorted(core) == [2, 2, 3] and not any(
            x & (1 << k) - 1 for h, k in zip(spec.inners, core) for x in h.out[:k]):
        core = [4 if k == 3 else k for k in core]
    keep = [v for layer, k in zip(layers, core) for v in layer[:k]]
    sub = induced(host, keep)
    arcs = sorted(sub.arcs)
    found = _kernel.search_arc_disjoint(sub.n, arcs, (1 << sub.n) - 1, 2)
    if found is None:
        raise StrongpackError("exact search found no strong arc "
                              "decomposition of a non-exceptional core")
    parts = [{(keep[u], keep[v]) for u, v in (arcs[i] for i in part)} for part in found]
    return parts, core


def pack_quasi_transitive(d: Digraph, terminals) -> Packing:
    """Packing for a strong digraph whose co-components are modules, such as
    a strong quasi-transitive or a complete bipartite digraph, through the
    composition they form (``canonical_decomposition_strong_qt``); the part
    count is its n0.  It packs that composition the way ``pack
    --composition`` with strategy ``auto`` does, on the digraph's own ids."""
    return _pack(canonical_decomposition_strong_qt(d), terminals, host=d)
