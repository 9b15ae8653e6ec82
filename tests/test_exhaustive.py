"""Heavier cross-validation: independent naive oracles and exhaustive
sweeps over all small instances of a class.

The naive packing oracle below shares no code with the solver kernel: it
enumerates every assignment of arcs to classes and tests each class with a
dictionary-based reachability check.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack import _kernel
from strongpack.exact import SolverLimits

from conftest import check_decomposes_host, check_hamiltonian_cycle
from oracles import max_disjoint_paths_undirected

WIDE = SolverLimits(max_vertices=10, max_arcs=48)


def _reachable(adj, start):
    seen = {start}
    todo = [start]
    while todo:
        u = todo.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _class_is_terminal_strong(arcs, terminals):
    verts = {v for arc in arcs for v in arc}
    if not terminals <= verts:
        return False
    adj = {}
    radj = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
        radj.setdefault(v, []).append(u)
    pivot = next(iter(verts))
    return (verts <= _reachable(adj, pivot)) and (verts <= _reachable(radj, pivot))


def naive_packing_number(d, terminals, internal):
    """Largest ell admitting an assignment of arcs to ell classes where
    every class spans the terminals strongly; pure enumeration."""
    terminals = frozenset(terminals)
    arcs = sorted(d.arcs)
    best = 0
    for ell in range(1, 4):
        found = False
        for labels in itertools.product(range(ell + 1), repeat=len(arcs)):
            classes = [set() for _ in range(ell)]
            for arc, lab in zip(arcs, labels):
                if lab:
                    classes[lab - 1].add(arc)
            if not all(_class_is_terminal_strong(c, terminals) for c in classes):
                continue
            if internal:
                vsets = [{v for arc in c for v in arc} for c in classes]
                if any((vsets[i] & vsets[j]) != terminals
                       for i in range(ell) for j in range(i + 1, ell)):
                    continue
            found = True
            break
        if not found:
            break
        best = ell
    return best


@composite
def two_part_hosts(draw):
    """A strong host on at most 7 arcs whose two terminals a, b carry two
    arc-disjoint strong parts, so lambda >= 2: the 2-cycle a <-> b and a
    closed walk a -> xs -> b -> ys -> a through every other vertex, plus
    extra arcs up to 7; returned relabelled, with its terminal set.  At
    most 7 arcs keeps the naive oracle fast, and rules out lambda = 3,
    which needs 10 arcs."""
    n = draw(st.integers(3, 5))
    a, b = 0, 1
    inner = draw(st.permutations(range(2, n)))
    cut = draw(st.integers(1, len(inner)))
    xs, ys = inner[:cut], inner[cut:] or [draw(st.sampled_from(inner))]
    arcs = {(a, b), (b, a)}
    for walk in ([a, *xs, b], [b, *ys, a]):
        arcs |= set(zip(walk, walk[1:]))
    assume(len(arcs) <= 7)
    spare = sorted({(u, v) for u in range(n) for v in range(n) if u != v} - arcs)
    room = min(len(spare), 7 - len(arcs))
    extra = draw(st.lists(st.sampled_from(spare), unique=True,
                          max_size=room)) if room > 0 else []
    label = draw(st.permutations(range(n)))
    d = sp.Digraph(n, [(label[u], label[v]) for u, v in arcs | set(extra)])
    return d, {label[a], label[b]}


@settings(max_examples=30, deadline=None)
@given(two_part_hosts())
def test_kernel_verdicts_match_naive_on_two_part_hosts(host):
    d, terminals = host
    assert sp.is_strong(d) and d.m <= 7
    best = naive_packing_number(d, terminals, internal=False)
    assert best >= 2
    arcs = sorted(d.arcs)
    s_mask = sum(1 << t for t in terminals)
    for ell in (2, 3):
        found = _kernel.search_arc_disjoint(d.n, arcs, s_mask, ell)
        assert (found is not None) == (best >= ell)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solvers_match_naive_enumeration(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(3, 6)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(pool)
        d = sp.Digraph(n, pool[:rng.randint(2, 8)])
        k = rng.randint(2, min(4, n))
        terminals = sorted(rng.sample(range(n), k))
        # with at most 8 arcs no packing can exceed 3 parts (one part may
        # use 2 arcs, later parts need 3 or more), so the naive cap is safe
        lam_naive = naive_packing_number(d, terminals, internal=False)
        kap_naive = naive_packing_number(d, terminals, internal=True)
        assert sp.exact_lambda(d, terminals)[0] == lam_naive, (d, terminals)
        assert sp.exact_kappa(d, terminals)[0] == kap_naive, (d, terminals)


def _semicomplete_digraphs(n):
    """Every semicomplete digraph on n labeled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for choice in itertools.product(range(3), repeat=len(pairs)):
        arcs = []
        for (u, v), c in zip(pairs, choice):
            if c == 0:
                arcs.append((u, v))
            elif c == 1:
                arcs.append((v, u))
            else:
                arcs.append((u, v))
                arcs.append((v, u))
        yield sp.Digraph(n, arcs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hamilton_on_every_strong_semicomplete(n):
    checked = 0
    for d in _semicomplete_digraphs(n):
        if not sp.is_strong(d):
            continue
        check_hamiltonian_cycle(d, sp.hamilton_semicomplete(d))
        checked += 1
    assert checked > 0


def test_hamilton_on_every_strong_semicomplete_5():
    checked = 0
    for d in _semicomplete_digraphs(5):
        if not sp.is_strong(d):
            continue
        check_hamiltonian_cycle(d, sp.hamilton_semicomplete(d))
        checked += 1
    assert checked > 30000  # most semicomplete digraphs on 5 vertices are strong


def test_canonical_decomposition_on_every_small_strong_qt():
    """All digraphs on 4 vertices: every strong quasi-transitive one must
    decompose, recompose (checked inside the call), and pack at least its
    smallest-layer count."""
    pool = [(u, v) for u in range(4) for v in range(4) if u != v]
    found = 0
    for bits in range(1 << len(pool)):
        arcs = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        d = sp.Digraph(4, arcs)
        if not (sp.is_strong(d) and sp.is_quasi_transitive(d)):
            continue
        spec = sp.canonical_decomposition_strong_qt(d)  # self-verifying
        found += 1
        if sp.is_in_exceptional(d).member:
            continue
        packing = sp.pack_quasi_transitive(d, [0, 1])
        assert len(packing.parts) == spec.n0
        assert sp.verify_packing(packing).ok
        assert spec.n0 <= sp.exact_lambda(d, [0, 1], WIDE)[0]
    assert found > 100


def test_blowup_shift_search_handles_larger_multiples_of_four():
    for t, r in [(3, 8), (5, 8), (7, 4)]:
        dec = sp.decompose_cycle_blowup(t, r)
        dec.check()
        check_decomposes_host(dec)


class TestFlowsAgainstNetworkx:
    nx = pytest.importorskip("networkx")

    def _random_digraph(self, rng):
        n = rng.randint(3, 8)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(pool)
        return sp.Digraph(n, pool[:rng.randint(2, 20)])

    def test_arc_connectivity_matches(self):
        import networkx as nx
        from strongpack.flows import min_arc_cut
        rng = random.Random(31)
        for _ in range(40):
            d = self._random_digraph(rng)
            g = nx.DiGraph()
            g.add_nodes_from(range(d.n))
            g.add_edges_from(d.arcs, capacity=1)
            u, v = rng.sample(range(d.n), 2)
            want = nx.maximum_flow_value(g, u, v)
            assert min_arc_cut(d, u, v)[0] == want

    def _antiparallel_digraph(self, rng):
        """A random digraph on at most 8 vertices in which some arcs come
        with their reverse."""
        n = rng.randint(3, 8)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = set(rng.sample(pool, rng.randint(2, min(len(pool), 20))))
        for u, v in rng.sample(sorted(arcs), rng.randint(1, len(arcs))):
            arcs.add((v, u))
        return sp.Digraph(n, arcs)

    def _big_case(self, rng):
        """(host, s, t): 60-300 vertices, half the arcs with their reverse,
        and n/4 arcs out of s and into t, so the flow is 25-64 and a search
        layer holds 37-85 vertices: the walk back from a path vertex scans
        far along its layer."""
        n = rng.randint(60, 300)
        s, t = rng.sample(range(n), 2)
        arcs = {(s, v) for v in rng.sample(range(n), n // 4)} \
            | {(v, t) for v in rng.sample(range(n), n // 4)} \
            | {tuple(rng.sample(range(n), 2)) for _ in range(2 * n)}
        arcs |= {(v, u) for u, v in rng.sample(sorted(arcs), len(arcs) // 2)}
        return sp.Digraph(n, {(u, v) for u, v in arcs if u != v}), s, t

    def test_min_arc_cut_is_the_source_side_cut(self):
        """The cut is exactly the arcs leaving what s reaches in the
        residual graph of a maximum flow; that set does not depend on
        which maximum flow networkx finds.  Small hosts, then eight big
        ones."""
        import networkx as nx
        from networkx.algorithms.flow import edmonds_karp
        from strongpack.flows import min_arc_cut
        rng, big = random.Random(33), random.Random(35)
        cases = [(d, *rng.sample(range(d.n), 2))
                 for d in (self._antiparallel_digraph(rng) for _ in range(60))]
        for d, s, t in cases + [self._big_case(big) for _ in range(8)]:
            g = nx.DiGraph()
            g.add_nodes_from(range(d.n))
            g.add_edges_from(d.arcs, capacity=1)
            r = edmonds_karp(g, s, t)
            residual = nx.DiGraph((u, v) for u, v, a in r.edges(data=True)
                                  if a["capacity"] - a["flow"] > 0)
            residual.add_nodes_from(range(d.n))
            side = nx.descendants(residual, s) | {s}
            want = frozenset((u, v) for u, v in d.arcs
                             if u in side and v not in side)
            assert min_arc_cut(d, s, t) == (r.graph["flow_value"], want), (d.arcs, s, t)

    def test_vertex_capacitated_connectivity_matches_split_graph(self):
        """Every vertex outside ``uncapped`` passes one unit of flow, the
        vertices in it any amount; checked on an explicitly split graph
        with at least three uncapped vertices."""
        import networkx as nx
        from strongpack.flows import vertex_capacitated_connectivity
        rng = random.Random(34)
        for _ in range(60):
            d = self._antiparallel_digraph(rng)
            s, t = rng.sample(range(d.n), 2)
            uncapped = frozenset(rng.sample(range(d.n), rng.randint(3, d.n)))
            g = nx.DiGraph()
            for v in range(d.n):
                if v in uncapped:
                    g.add_edge((v, "in"), (v, "out"))  # no capacity: unbounded
                else:
                    g.add_edge((v, "in"), (v, "out"), capacity=1)
            for u, v in d.arcs:
                g.add_edge((u, "out"), (v, "in"), capacity=1)
            want = nx.maximum_flow_value(g, (s, "out"), (t, "in"))
            got = vertex_capacitated_connectivity(d, s, t, uncapped)
            assert got == want, (d.arcs, s, t, uncapped)

    def test_vertex_disjoint_paths_match(self):
        import networkx as nx
        rng = random.Random(32)
        for _ in range(30):
            n = rng.randint(4, 8)
            edges = {(i, i + 1) for i in range(n - 1)}
            pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges |= set(rng.sample(pool, min(len(pool), rng.randint(0, 8))))
            d = sp.biorientation(n, edges)
            g = nx.Graph(edges)
            g.add_nodes_from(range(n))
            u, v = rng.sample(range(n), 2)
            want = nx.connectivity.local_node_connectivity(g, u, v)
            assert max_disjoint_paths_undirected(d, u, v) == want
