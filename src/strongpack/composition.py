"""Digraph compositions: an outer digraph whose vertices are replaced by
inner digraphs, every outer arc becoming a complete set of cross arcs.

Flattened ids are layer-major: vertex j of inner i maps to offset_i + j
where offset_i is the total size of earlier inners.  The packing routines
rely on that convention.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .digraph import (Digraph, _digraph, _header, bits, induced, is_quasi_transitive,
                      is_semicomplete, is_strong, mask_of, reachable, write_digraph)
from .errors import GraphFormatError, PreconditionError, StrongpackError


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


def lexicographic_product(g: Digraph, h: Digraph) -> Digraph:
    """Composition with every inner equal to ``h``.

    Vertex (u, u') of the product gets id u*|V(h)| + u'.
    """
    if g.n < 2:
        raise PreconditionError("left factor needs at least 2 vertices")
    return compose(CompositionSpec(g, (h,) * g.n))


def canonical_decomposition_strong_qt(d: Digraph) -> CompositionSpec:
    """Express a strong quasi-transitive digraph as a composition with a
    strong semicomplete outer digraph whose inners are single vertices or
    non-strong.

    The inner parts are the connected components of the complement of the
    underlying undirected graph.  That identity is not assumed: the result
    is checked against every claimed property and against recomposition,
    and any mismatch raises.
    """
    if d.n < 2:
        raise PreconditionError("need at least 2 vertices")
    if not is_strong(d):
        raise PreconditionError("digraph is not strong")
    if not is_quasi_transitive(d):
        raise PreconditionError("digraph is not quasi-transitive")

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
        raise StrongpackError("decomposition produced a single part on a "
                              "strong digraph; input violates the structure")
    inners = [induced(d, bucket) for bucket in parts]
    outer_out = []
    for i, bucket in enumerate(parts):
        heads = 0
        for v in bucket:
            heads |= d.out[v]
        outer_out.append(mask_of(p for p, other in enumerate(part_masks)
                                 if p != i and heads & other))
    outer = Digraph.from_masks(t, outer_out)
    original_ids = tuple(v for bucket in parts for v in bucket)
    spec = CompositionSpec(outer, inners, original_ids)

    # operational checks replace the structural theorem
    if not is_semicomplete(outer) or not is_strong(outer):
        raise StrongpackError("outer quotient is not strong semicomplete")
    for h in inners:
        if h.n > 1 and is_strong(h):
            raise StrongpackError("an inner part is strong but not a vertex")
    relabeled = relabel(compose(spec), original_ids)
    if relabeled != d:
        raise StrongpackError("recomposition does not reproduce the input")
    return spec


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
    """Parse the text format.  The blocks are parsed in file order as the
    rows stream past; the inner blocks are counted after the first t."""
    rows, lineno, fields = _header(text, "composition")
    try:
        [t] = map(int, fields)
    except ValueError:
        raise GraphFormatError("first line must be the outer order t", lineno)
    separators = 0  # consumed so far, each by the block it ends

    def block():
        nonlocal separators
        for row in rows:
            if row[1] == ["---"]:
                separators += 1
                return
            yield row

    outer = _digraph(block())
    if outer.n != t:
        raise GraphFormatError(f"outer digraph has {outer.n} vertices, expected {t}")
    inners = []
    while len(inners) < min(separators, t):
        inners.append(_digraph(block()))
    found = separators + sum(row[1] == ["---"] for row in rows)
    if found != t:
        raise GraphFormatError(f"expected {t} inner digraphs, found {found}")
    return CompositionSpec(outer, inners)
