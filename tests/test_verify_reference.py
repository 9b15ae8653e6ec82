"""``verify_packing`` against a networkx reference on random valid and
corrupted packings, and guards on its memory and on ``write_packing``.

The reference states each clause of a valid packing directly: every arc of
a part is a host arc, every part is a strongly connected subgraph holding
every terminal, no two parts share an arc, and in internal mode two parts
share no vertex outside the terminal set.  It reports the first violated
clause the way ``Verdict`` does: reason, part indices and witness."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strongpack as sp
from strongpack import exact, generators as gen
from strongpack.verify import MODE_ARC, MODE_INTERNAL, Verdict

from conftest import traced_peak

pytestmark = pytest.mark.filterwarnings("ignore::hypothesis.errors.NonInteractiveExampleWarning")


def reference_verify(p):
    if p.mode not in (MODE_ARC, MODE_INTERNAL):
        return Verdict(False, "unknown mode", witness=p.mode)
    host_arcs = p.host.arcs
    for i, part in enumerate(p.parts):
        stray = [arc for arc in part if arc not in host_arcs]
        if stray:
            return Verdict(False, "arc not in host", (i,), min(stray))
        g = nx.DiGraph(part)
        if not part and p.host.n == 1:
            g.add_node(0)
        if (g.number_of_nodes() == 0 or not nx.is_strongly_connected(g)
                or not set(p.terminals) <= set(g.nodes)):
            return Verdict(False, "part is not a terminal-covering strong subgraph", (i,))
    for i, j in combinations(range(len(p.parts)), 2):
        shared = p.parts[i] & p.parts[j]
        if shared:
            return Verdict(False, "arc-disjoint", (i, j), min(shared))
    if p.mode == MODE_INTERNAL:
        for i, j in combinations(range(len(p.parts)), 2):
            extra = (p.part_vertices(i) & p.part_vertices(j)) - p.terminals
            if extra:
                return Verdict(False, "internal disjointness", (i, j), min(extra))
    return Verdict(True)


def _valid_packing(rng):
    """A verified packing: greedy parts on a small strong host, or a
    constructive packing of a small composition."""
    kind = rng.randrange(3)
    if kind == 0:
        d = gen.random_strong_symmetric(rng.randint(3, 8), rng.randint(0, 4), rng)
        ts = frozenset(rng.sample(range(d.n), rng.randint(2, min(4, d.n))))
        return sp.Packing(d, ts, MODE_ARC, exact._greedy_parts(d, ts))
    if kind == 1:
        spec = gen.random_composition(rng.randint(2, 4), 4, rng, symmetric=True)
        ts = rng.sample(range(spec.n), 2)
        return sp.pack_symmetric_composition(spec, ts)
    d = gen.random_strong_symmetric(rng.randint(3, 6), rng.randint(0, 3), rng)
    ts = rng.sample(range(d.n), 2)
    return exact.exact_kappa(d, ts)[1]


def _corrupt(p, rng):
    """``p`` with one drawn fault, or unchanged."""
    parts = [set(part) for part in p.parts]
    kind = rng.randrange(7)
    n = p.host.n
    if kind == 0 or not parts:
        return p
    i = rng.randrange(len(parts))
    if kind == 1:  # a stray arc, sometimes off the vertex range
        parts[i].add(rng.choice([(rng.randrange(n), rng.randrange(n)),
                                 (-1, rng.randrange(n)), (rng.randrange(n), n)]))
    elif kind == 2 and len(parts) > 1:  # an arc shared by two parts
        j = rng.choice([j for j in range(len(parts)) if j != i])
        if parts[i]:
            parts[j].add(rng.choice(sorted(parts[i])))
    elif kind == 3:  # a part that misses a terminal
        t = rng.choice(sorted(p.terminals))
        parts[i] = {arc for arc in parts[i] if t not in arc}
    elif kind == 4 and parts[i]:  # usually no longer strong
        parts[i].discard(rng.choice(sorted(parts[i])))
    elif kind == 5:  # an empty part
        parts.insert(i, set())
    elif kind == 6:  # the other mode
        mode = MODE_INTERNAL if p.mode == MODE_ARC else MODE_ARC
        return sp.Packing(p.host, p.terminals, mode, p.parts)
    return sp.Packing(p.host, p.terminals, p.mode, tuple(frozenset(part) for part in parts))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verdict_matches_the_reference(seed):
    rng = random.Random(seed)
    p = _corrupt(_valid_packing(rng), rng)
    assert sp.verify_packing(p) == reference_verify(p)


def test_valid_packings_verify():
    rng = random.Random(7)
    for _ in range(30):
        p = _valid_packing(rng)
        assert sp.verify_packing(p) == reference_verify(p) == Verdict(True)


C3 = sp.directed_cycle(3)
K1 = sp.empty_digraph(1)
C3_ARCS = frozenset({(0, 1), (1, 2), (2, 0)})


@pytest.mark.parametrize("p, reason", [
    (sp.Packing(K1, frozenset({0}), MODE_ARC, (frozenset(), frozenset())), None),
    (sp.Packing(K1, frozenset({0}), MODE_ARC, (frozenset({(0, 0)}),)), "arc not in host"),
    (sp.Packing(C3, frozenset({0, 1}), MODE_ARC, (frozenset(),)),
     "part is not a terminal-covering strong subgraph"),
    (sp.Packing(C3, frozenset({0, 5}), MODE_ARC, (C3_ARCS,)),
     "part is not a terminal-covering strong subgraph"),
    (sp.Packing(C3, frozenset({-1, 0}), MODE_ARC, (C3_ARCS,)),
     "part is not a terminal-covering strong subgraph"),
    (sp.Packing(C3, frozenset({0, 5}), MODE_ARC, ()), None),
    (sp.Packing(C3, frozenset({0, 1}), MODE_ARC, (C3_ARCS, C3_ARCS)), "arc-disjoint"),
    (sp.Packing(C3, frozenset({0, 1}), MODE_INTERNAL, (C3_ARCS,)), None),
    (sp.Packing(C3, frozenset({0, 1}), "odd", (C3_ARCS,)), "unknown mode"),
    (sp.Packing(C3, frozenset({0, 1}), MODE_ARC, (C3_ARCS | {(2, 1)},)), "arc not in host"),
])
def test_edge_cases_match_the_reference(p, reason):
    got = sp.verify_packing(p)
    assert got == reference_verify(p)
    assert got.reason == reason


@pytest.mark.parametrize("r", range(6))
def test_a_part_in_two_strong_pieces_is_not_strong(r):
    """A triangle through both terminals plus a 2-cycle elsewhere: each
    piece is strong, the part is not, whichever arc the DFS starts from."""
    k6 = sp.Digraph(6, [(u, v) for u in range(6) for v in range(6) if u != v])
    a, b, c, d, e = ((r + i) % 6 for i in range(5))
    part = frozenset({(a, b), (b, c), (c, a), (d, e), (e, d)})
    p = sp.Packing(k6, frozenset({a, b}), MODE_ARC, (part,))
    assert sp.verify_packing(p) == reference_verify(p) == \
        Verdict(False, "part is not a terminal-covering strong subgraph", (0,))


def test_internal_mode_overlap_matches_the_reference():
    k4 = sp.Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    a = frozenset({(0, 2), (2, 1), (1, 0)})
    b = frozenset({(0, 3), (3, 2), (2, 0), (1, 3), (3, 1)})
    p = sp.Packing(k4, frozenset({0, 1}), MODE_INTERNAL, (a, b))
    assert sp.verify_packing(p) == reference_verify(p) == \
        Verdict(False, "internal disjointness", (0, 1), 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(0, 6), st.data())
def test_internal_disjointness_matches_the_pairwise_definition(k, spare, data):
    """Parts 0 -> x -> 1 -> y -> 0 with every x distinct and every y
    distinct share no arc, but a part's x can be another part's y: the
    one-pass check names the pair and witness that the reference's pairwise
    definition does."""
    pool = range(2, 2 + k + spare)
    xs = data.draw(st.permutations(pool))[:k]
    ys = data.draw(st.permutations(pool))[:k]
    parts = tuple(frozenset({(0, x), (x, 1), (1, y), (y, 0)}) for x, y in zip(xs, ys))
    common = sorted(set(pool).intersection(*({x, y} for x, y in zip(xs, ys))))
    extra = data.draw(st.sets(st.sampled_from(common))) if common else set()  # in every part
    host = sp.Digraph(2 + k + spare, set().union(*parts))
    p = sp.Packing(host, frozenset({0, 1} | extra), MODE_INTERNAL, parts)
    assert sp.verify_packing(p) == reference_verify(p)


def test_verify_peak_memory_on_a_large_symmetric_composition():
    """The 40 parts of a 20-layer symmetric composition with 40-vertex
    layers (800 vertices, 64,000 part arcs) verify within 1 MB of traced
    allocations.  A set of every arc would take about 3 MB on its own."""
    outer = sp.biorientation(20, [(i, (i + 1) % 20) for i in range(20)])
    spec = sp.CompositionSpec(outer, [sp.empty_digraph(40)] * 20)
    p = sp.pack_symmetric_composition(spec, [0, 400, 799])
    assert len(p.parts) == 40
    verdict, peak = traced_peak(lambda: sp.verify_packing(p))
    assert verdict.ok
    assert peak < 1 << 20


def test_write_packing_keeps_arcs_off_the_host():
    p = sp.Packing(C3, frozenset({0, 1}), MODE_ARC, (frozenset({(-1, 5), (0, 1)}), frozenset()))
    assert sp.write_packing(p) == "parts=2 mode=arc\n-1>5 0>1\n-\n"
