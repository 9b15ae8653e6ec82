"""Seeded random instance families for tests, the CLI and the survey.

Every generator takes a ``random.Random`` so identical seeds give identical
instances.  Outer digraphs of composition families are built strong by
construction and post-checked anyway, regenerating a bounded number of
times on failure.
"""

from __future__ import annotations

import random

from .digraph import Digraph, biorientation, complete_bipartite_digraph, is_strong
from .errors import PreconditionError, StrongpackError

_RETRIES = 64


def random_connected_graph(n: int, extra_edges: int, rng: random.Random):
    """Undirected edge set: a random spanning tree plus extra random edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return edges


def random_strong_symmetric(n: int, extra_edges: int, rng: random.Random) -> Digraph:
    d = biorientation(n, random_connected_graph(n, extra_edges, rng))
    if not is_strong(d):
        raise StrongpackError("symmetric connected digraph must be strong")
    return d


def random_strong_semicomplete(n: int, rng: random.Random,
                               two_cycle_prob: float = 0.2) -> Digraph:
    for _ in range(_RETRIES):
        arcs = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < two_cycle_prob:
                    arcs.append((u, v))
                    arcs.append((v, u))
                elif rng.random() < 0.5:
                    arcs.append((u, v))
                else:
                    arcs.append((v, u))
        d = Digraph(n, arcs)
        if is_strong(d):
            return d
    raise StrongpackError(f"no strong semicomplete digraph found in {_RETRIES} tries")


def random_inner(n: int, arc_prob: float, rng: random.Random) -> Digraph:
    arcs = [(u, v) for u in range(n) for v in range(n)
            if u != v and rng.random() < arc_prob]
    return Digraph(n, arcs)


def random_symmetric_composition(t: int, max_inner: int, rng: random.Random,
                                 extra_edges: int = 1,
                                 inner_arc_prob: float = 0.15) -> CompositionSpec:
    from .composition import CompositionSpec

    if max_inner < 1:
        raise PreconditionError("max_inner must be at least 1")
    outer = random_strong_symmetric(t, extra_edges, rng)
    inners = [random_inner(rng.randint(1, max_inner), inner_arc_prob, rng)
              for _ in range(t)]
    return CompositionSpec(outer, inners)


def random_semicomplete_composition(t: int, max_inner: int, rng: random.Random,
                                    min_inner: int = 1,
                                    inner_arc_prob: float = 0.15) -> CompositionSpec:
    from .composition import CompositionSpec

    if not 1 <= min_inner <= max_inner:
        raise PreconditionError("need 1 <= min_inner <= max_inner")
    outer = random_strong_semicomplete(t, rng)
    inners = [random_inner(rng.randint(min_inner, max_inner), inner_arc_prob, rng)
              for _ in range(t)]
    return CompositionSpec(outer, inners)


def random_hypergraph(n: int, e: int, rng: random.Random) -> Hypergraph:
    from .reductions import Hypergraph

    if n < 1:
        raise PreconditionError("hypergraph needs at least 1 vertex")
    edges = []
    for _ in range(e):
        size = rng.randint(1, n)
        edges.append(frozenset(rng.sample(range(n), size)))
    return Hypergraph(n, edges)


def random_eulerian(n: int, cycles: int, rng: random.Random) -> Digraph:
    """Union of random directed cycles over random vertex subsets; balanced
    by construction, regenerated until the underlying graph connects and
    no arc repeats."""
    from .digraph import is_eulerian

    if n < 3:
        raise PreconditionError("Eulerian instances need at least 3 vertices")
    if cycles < 1:
        raise PreconditionError("Eulerian instances need at least 1 cycle")
    for _ in range(_RETRIES):
        arcs: set[tuple[int, int]] = set()
        ok = True
        for _ in range(cycles):
            size = rng.randint(3, n)
            verts = rng.sample(range(n), size)
            for i in range(size):
                arc = (verts[i], verts[(i + 1) % size])
                if arc in arcs:
                    ok = False
                    break
                arcs.add(arc)
            if not ok:
                break
        if not ok:
            continue
        d = Digraph(n, arcs)
        if is_eulerian(d):
            return d
    raise StrongpackError(f"no Eulerian instance found in {_RETRIES} tries")


def random_bipartite_host(a: int, b: int) -> Digraph:
    return complete_bipartite_digraph(a, b)
