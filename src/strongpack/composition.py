"""Digraph compositions: an outer digraph whose vertices are replaced by
inner digraphs, every outer arc becoming a complete set of cross arcs.

Flattened ids are layer-major: vertex j of inner i maps to offset_i + j
where offset_i is the total size of earlier inners.  The packing routines
rely on that convention.  ``canonical_decomposition_strong_qt`` finds the
composition inside a digraph, where its co-components form one.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Sequence

from ._core import _digraph, _header, _rows
from .digraph import Digraph, bits, induced, is_strong, mask_of, reachable, write_digraph
from .errors import GraphFormatError, PreconditionError


class CompositionSpec(NamedTuple("CompositionSpec", [
        ("outer", Digraph), ("inners", tuple[Digraph, ...]),
        ("original_ids", tuple[int, ...] | None)])):
    """An outer digraph on t >= 2 vertices plus one inner digraph per
    outer vertex.  ``original_ids`` optionally records which external
    vertex each flattened id stands for (used when a digraph was
    decomposed rather than built)."""

    __slots__ = ()

    def __new__(cls, outer: Digraph, inners: Sequence[Digraph],
                original_ids: Sequence[int] | None = None):
        inners = tuple(inners)
        if outer.n < 2:
            raise PreconditionError("outer digraph needs at least 2 vertices")
        if len(inners) != outer.n:
            raise PreconditionError("need one inner digraph per outer vertex")
        if any(h.n < 1 for h in inners):
            raise PreconditionError("inner digraphs must be nonempty")
        if original_ids is not None:
            original_ids = tuple(original_ids)
            if sorted(original_ids) != list(range(sum(h.n for h in inners))):
                raise PreconditionError("original_ids must be a permutation")
        return super().__new__(cls, outer, inners, original_ids)

    @property
    def t(self) -> int:
        return self.outer.n

    @property
    def n(self) -> int:
        return sum(h.n for h in self.inners)

    @property
    def n0(self) -> int:
        """Smallest inner order; the guaranteed packing size."""
        return min(h.n for h in self.inners)

    def offsets(self) -> list[int]:
        offs = [0]
        for h in self.inners:
            offs.append(offs[-1] + h.n)
        return offs


def compose(spec: CompositionSpec) -> Digraph:
    """Flatten the composition: inner arcs plus all cross arcs per outer arc.

    Built on masks: vertex j of layer i keeps its inner out-mask shifted to
    the layer's offset, plus the whole-layer masks of every out-neighbour
    of i in the outer digraph."""
    offs = spec.offsets()
    layer = [((1 << h.n) - 1) << offs[i] for i, h in enumerate(spec.inners)]
    out: list[int] = []
    for i, h in enumerate(spec.inners):
        cross = 0
        for p in bits(spec.outer.out[i]):
            cross |= layer[p]
        out.extend(x << offs[i] | cross for x in h.out)
    return Digraph.from_masks(offs[-1], out)


def canonical_decomposition_strong_qt(d: Digraph) -> CompositionSpec:
    """Express a strong digraph as the composition its co-components form:
    the inner parts are the connected components of the complement of the
    underlying undirected graph, and the outer digraph is their quotient.

    That is a composition exactly when every co-component is a module (a
    vertex set that every outside vertex sees the same way), as on every
    strong quasi-transitive digraph and every complete bipartite digraph:
    each vertex of a co-component P has the same out- and in-neighbours
    outside P.  PreconditionError names the reason when that fails or when
    there is a single co-component.  Any two co-components are joined, so
    the outer digraph is strong semicomplete.
    """
    if d.n < 2:
        raise PreconditionError("need at least 2 vertices")
    if not is_strong(d):
        raise PreconditionError("digraph is not strong")

    full = (1 << d.n) - 1
    inn = d.in_masks()
    # apart[v]: the vertices other than v not adjacent to v either way
    apart = [full & ~(x | y | 1 << v) for v, (x, y) in enumerate(zip(d.out, inn))]
    part_masks: list[int] = []
    left = full
    while left:
        part = reachable(apart, (left & -left).bit_length() - 1)
        part_masks.append(part)
        left &= ~part
    parts = [bits(pm) for pm in part_masks]

    t = len(parts)
    if t < 2:
        raise PreconditionError("digraph is not a composition: the complement "
                                "of its underlying graph is connected")
    if any(len({(d.out[v] & ~pm, inn[v] & ~pm) for v in part}) > 1
           for pm, part in zip(part_masks, parts)):
        raise PreconditionError("digraph is not a composition: a co-component "
                                "is not a module")
    # a module's outer arcs are those of any one of its vertices
    outer = Digraph.from_masks(t, [
        mask_of(p for p, other in enumerate(part_masks) if p != i and d.out[part[0]] & other)
        for i, part in enumerate(parts)])
    return CompositionSpec(outer, [induced(d, part) for part in parts],
                           tuple(v for part in parts for v in part))


def relabel(d: Digraph, mapping: Sequence[int]) -> Digraph:
    """New digraph with vertex i renamed mapping[i]; ``mapping`` must be a
    permutation of the vertex ids."""
    if sorted(mapping) != list(range(d.n)):
        raise PreconditionError("mapping must be a permutation of the vertices")
    out = [0] * d.n
    for u, x in enumerate(d.out):
        out[mapping[u]] = mask_of(mapping[v] for v in bits(x))
    return Digraph.from_masks(d.n, out)


# -- text format ---------------------------------------------------------------
#
# Line 1: t.  Then the outer digraph in the digraph text format, then each
# inner digraph, every block preceded by a line that holds only "---".

def write_composition(spec: CompositionSpec) -> str:
    blocks = [f"{spec.t}\n" + write_digraph(spec.outer)]
    for h in spec.inners:
        blocks.append("---\n" + write_digraph(h))
    return "".join(blocks)


def read_composition(text: str) -> CompositionSpec:
    """Parse the text format: ``_digraph`` reads each block between the
    separators as its own text, in file order, then the inner blocks are counted."""
    lines = text.splitlines(keepends=True)
    lineno, fields = _header(_rows(lines), "composition")
    try:
        [t] = map(int, fields)
    except ValueError:
        raise GraphFormatError("first line must be the outer order t", lineno)
    cuts = [i for i, line in enumerate(islice(lines, lineno, None), lineno)
            if line.strip() == "---"]  # the separators' line indices
    blocks = (("".join(lines[i + 1:j]), i + 2)
              for i, j in zip([lineno - 1, *cuts], [*cuts, len(lines)]))
    outer = _digraph(*next(blocks))
    if outer.n != t:
        raise GraphFormatError(f"outer digraph has {outer.n} vertices, expected {t}")
    found = len(cuts)
    inners = [_digraph(*block) for block in islice(blocks, min(found, t))]
    if found != t:
        raise GraphFormatError(f"expected {t} inner digraphs, found {found}")
    return CompositionSpec(outer, inners)
