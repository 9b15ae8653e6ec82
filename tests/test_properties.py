"""Property-based checks over random small digraphs."""

import random
from itertools import combinations, permutations

import networkx as nx
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack import _kernel, exact
from strongpack import generators as gen
from strongpack.digraph import induced, mask_of, strong_component
from strongpack.flows import min_arc_cut, vertex_capacitated_connectivity
from strongpack.verify import MODE_ARC

pytestmark = pytest.mark.filterwarnings("ignore::hypothesis.errors.NonInteractiveExampleWarning")


@composite
def digraphs(draw, min_n=2, max_n=6, max_m=14):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pool), max_size=min(max_m, len(pool))))
    return sp.Digraph(n, arcs)


@composite
def symmetric_digraphs(draw, min_n=3, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = {(i, i + 1) for i in range(n - 1)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pool), max_size=6)))
    return sp.biorientation(n, edges)


@composite
def digraphs_with_terminals(draw, min_n=3, max_n=6, extra=4):
    """Two Hamiltonian cycles in random vertex orders plus up to ``extra``
    random arcs, so the host is strong, the terminals often hold two parts
    and the flow bounds and the kernel are reached."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    arcs = set()
    for _ in range(2):
        order = draw(st.permutations(range(n)))
        arcs |= {(order[i], order[(i + 1) % n]) for i in range(n)}
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(pool), max_size=extra)))
    k = draw(st.integers(min_value=2, max_value=n))
    terminals = draw(st.permutations(range(n)))[:k]
    return sp.Digraph(n, arcs), sorted(terminals)


@given(digraphs())
def test_scc_partitions_vertices(d):
    comps = sp.strong_components(d)
    everything = sorted(v for comp in comps for v in comp)
    assert everything == list(range(d.n))


@given(digraphs())
def test_scc_parts_are_mutual_reachability_classes(d):
    out = d.out_masks()
    inn = d.in_masks()

    def closure(masks, v):
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= masks[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    comp_of = {}
    for i, comp in enumerate(sp.strong_components(d)):
        for v in comp:
            comp_of[v] = i
    for u in range(d.n):
        for v in range(d.n):
            mutual = bool(closure(out, u) >> v & 1) and bool(closure(inn, u) >> v & 1)
            assert (comp_of[u] == comp_of[v]) == mutual


@given(digraphs())
def test_strong_iff_pairwise_reachable(d):
    masks = d.out_masks()

    def reach(v):
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= masks[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        return seen

    full = (1 << d.n) - 1
    pairwise = all(reach(v) == full for v in range(d.n))
    assert sp.is_strong(d) == pairwise


@given(digraphs())
def test_reversal_preserves_class_predicates(d):
    r = d.reverse()
    assert sp.is_strong(r) == sp.is_strong(d)
    assert sp.is_semicomplete(r) == sp.is_semicomplete(d)
    assert sp.is_eulerian(r) == sp.is_eulerian(d)
    assert sp.is_quasi_transitive(r) == sp.is_quasi_transitive(d)


@given(symmetric_digraphs())
def test_connected_symmetric_is_eulerian(d):
    assert sp.is_symmetric(d)
    assert sp.is_eulerian(d)


@given(digraphs())
def test_format_round_trip(d):
    text = sp.write_digraph(d)
    assert sp.read_digraph(text) == d
    assert sp.write_digraph(sp.read_digraph(text)) == text


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs_with_terminals())
def test_kappa_at_most_lambda_at_most_terminal_degree(pair):
    d, terminals = pair
    lam = sp.exact_lambda(d, terminals)[0]
    kap = sp.exact_kappa(d, terminals)[0]
    assert kap <= lam
    assert lam <= sp.terminal_semi_degree(d, terminals)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs_with_terminals(min_n=4))
def test_lambda_shrinks_as_terminals_grow(pair):
    d, terminals = pair
    if len(terminals) < 3:
        return
    smaller = terminals[:-1]
    assert sp.exact_lambda(d, terminals)[0] <= sp.exact_lambda(d, smaller)[0]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symmetric_digraphs(min_n=4, max_n=6), st.data())
def test_cut_relation_on_symmetric_hosts(d, data):
    k = data.draw(st.integers(min_value=2, max_value=d.n))
    terminals = data.draw(st.permutations(range(d.n)))[:k]
    report = sp.check_cut_relation(d, sorted(terminals))
    assert report.holds
    lam = sp.exact_lambda(d, sorted(terminals))[0]
    assert lam <= report.c2


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(digraphs_with_terminals(min_n=3, max_n=5))
def test_optimal_packings_verify(pair):
    d, terminals = pair
    for fn in (sp.exact_lambda, sp.exact_kappa):
        value, packing = fn(d, terminals)
        assert len(packing.parts) == value
        assert sp.verify_packing(packing).ok


# Metamorphic checks on the exact solvers: the packing numbers depend only
# on the isomorphism class of (host, terminals), survive reversing every arc
# (a reversed strong subgraph is strong), and cannot drop when an arc is
# added (every old packing stays valid).

EXACT_SOLVERS = (sp.exact_lambda, sp.exact_kappa)


@composite
def strong_hosts_with_terminals(draw):
    """A Hamiltonian cycle in random vertex order plus up to 12 random arcs
    on at most 7 vertices, so the terminals always share a strong component
    and the kernel runs."""
    n = draw(st.integers(min_value=3, max_value=7))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= set(draw(st.lists(st.sampled_from(pool), max_size=12)))
    k = draw(st.integers(min_value=2, max_value=n))
    terminals = draw(st.permutations(range(n)))[:k]
    return sp.Digraph(n, arcs), sorted(terminals)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strong_hosts_with_terminals(), st.data())
def test_packing_numbers_invariant_under_relabelling(pair, data):
    d, terminals = pair
    perm = data.draw(st.permutations(range(d.n)))
    image = sp.Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
    image_terminals = sorted(perm[v] for v in terminals)
    for fn in EXACT_SOLVERS:
        assert fn(image, image_terminals)[0] == fn(d, terminals)[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strong_hosts_with_terminals())
def test_packing_numbers_invariant_under_reversal(pair):
    d, terminals = pair
    reversed_host = sp.Digraph(d.n, [(v, u) for u, v in d.arcs])
    for fn in EXACT_SOLVERS:
        assert fn(reversed_host, terminals)[0] == fn(d, terminals)[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(strong_hosts_with_terminals(), st.data())
def test_packing_numbers_monotone_under_adding_an_arc(pair, data):
    d, terminals = pair
    missing = [(u, v) for u in range(d.n) for v in range(d.n)
               if u != v and not d.has_arc(u, v)]
    if not missing:
        return
    arc = data.draw(st.sampled_from(missing))
    bigger = sp.Digraph(d.n, [*d.arcs, arc])
    for fn in EXACT_SOLVERS:
        assert fn(bigger, terminals)[0] >= fn(d, terminals)[0]


def _kernel_lambda(d, ts):
    """The arc-disjoint packing number by the search alone, ell = 2, 3, ...
    up to the first refuted size (these hosts are strong, so it is >= 1)."""
    arcs, s_mask = sorted(d.arcs), mask_of(ts)
    ell = 2
    while _kernel.search_arc_disjoint(d.n, arcs, s_mask, ell) is not None:
        ell += 1
    return ell - 1


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(strong_hosts_with_terminals(), digraphs_with_terminals()))
def test_greedy_and_kernel_bracket_exact_lambda(pair):
    """exact_lambda seldom reaches the kernel, since a greedy packing that
    meets the cut bound ends it, so the kernel is checked against it here
    on its own.  The greedy falls short of the value on about 1% of
    ``strong_hosts_with_terminals`` draws and 4% of the denser
    ``digraphs_with_terminals`` ones, so both are drawn."""
    d, terminals = pair
    ts = frozenset(terminals)
    greedy = exact._greedy_parts(d, ts)
    assert sp.verify_packing(sp.Packing(d, ts, MODE_ARC, greedy)).ok
    value = exact.exact_lambda(d, terminals)[0]
    assert len(greedy) <= value <= exact._terminal_scan(d, ts)[0]
    assert value == _kernel_lambda(d, ts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(digraphs(), digraphs_with_terminals().map(lambda pair: pair[0])))
def test_strong_arc_decomposition_matches_the_kernel(d):
    """The driver's flag equals a kernel-only search at size 2 with every
    vertex a terminal, on hosts that are not strong too, and a True
    witness partitions the arcs and verifies."""
    flag, witness = sp.has_strong_arc_decomposition(d)
    assert flag == (_kernel.search_arc_disjoint(d.n, sorted(d.arcs), (1 << d.n) - 1, 2)
                    is not None)
    if flag:
        first, second = witness
        assert first | second == d.arcs and not first & second
        assert sp.verify_packing(sp.Packing(d, frozenset(range(d.n)), MODE_ARC, witness)).ok


def test_strong_arc_decomposition_of_k40_needs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(_kernel, "search_arc_disjoint", refuse)
    d = sp.Digraph(40, permutations(range(40), 2))
    flag, witness = sp.has_strong_arc_decomposition(d, exact.SolverLimits(64, 5000))
    assert flag
    assert sp.verify_packing(sp.Packing(d, frozenset(range(40)), MODE_ARC, witness)).ok


# Each graph primitive has one implementation; these pin it to a direct
# computation: the flow bounds through the lowest terminal against every
# terminal pair, and the strong component and the induced subdigraph
# against networkx.

@composite
def hosts_with_terminals(draw, hosts):
    """A host from ``hosts`` and 2-5 of its vertices as terminals."""
    d = draw(hosts)
    k = draw(st.integers(min_value=2, max_value=min(5, d.n)))
    return d, frozenset(draw(st.permutations(range(d.n)))[:k])


@settings(max_examples=150, deadline=None)
@given(st.one_of(hosts_with_terminals(digraphs()), hosts_with_terminals(
    strong_hosts_with_terminals().map(lambda pair: pair[0]))))
def test_lowest_terminal_bound_is_the_all_pairs_minimum(pair):
    d, ts = pair
    pairs = list(permutations(sorted(ts), 2))
    assert exact._terminal_scan(d, ts)[0] == min(
        min_arc_cut(d, u, w)[0] for u, w in pairs)
    assert exact._terminal_scan(d, ts, internal=True)[0] == min(
        vertex_capacitated_connectivity(d, u, w, ts) for u, w in pairs)


@settings(max_examples=100, deadline=None)
@given(hosts_with_terminals(symmetric_digraphs(min_n=3, max_n=7)))
def test_steiner_cut_is_the_unordered_pairs_minimum(pair):
    d, ts = pair
    assert sp.steiner_cut_undirected(d, ts) == min(
        min_arc_cut(d, u, w)[0] for u, w in combinations(sorted(ts), 2))


def _all_pairs_cut(d, ts):
    """(arcs, pair) of the first minimum u->w arc cut over every ordered
    terminal pair in ascending order."""
    best = None
    for u, w in permutations(sorted(ts), 2):
        size, cut = min_arc_cut(d, u, w)
        if best is None or size < best[0]:
            best = (size, cut, (u, w))
    return best[1], best[2]


@settings(max_examples=150, deadline=None)
@given(st.one_of(hosts_with_terminals(strong_hosts_with_terminals().map(lambda pair: pair[0])),
                 hosts_with_terminals(symmetric_digraphs(min_n=3, max_n=7))))
def test_min_strong_cut_is_the_all_pairs_scan(pair):
    """The pairs through the lowest terminal give the same certificate,
    arcs and witness pair, as the scan of every ordered pair."""
    d, ts = pair
    cert = sp.min_strong_cut(d, ts)
    assert (cert.arcs, cert.witness) == _all_pairs_cut(d, ts)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=3, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32), st.data())
def test_two_terminal_lambda_of_an_eulerian_host_is_its_arc_flow(n, cycles, seed, data):
    """On an Eulerian host the two-terminal packing number is the x->y arc
    flow: the value the cut bound allows is always reached."""
    try:
        d = gen.random_eulerian(n, cycles, random.Random(seed))
    except sp.StrongpackError:  # no arc-disjoint cycles of these sizes were drawn
        assume(False)
    x, y = data.draw(st.permutations(range(n)))[:2]
    assert sp.exact_lambda(d, {x, y})[0] == min_arc_cut(d, x, y)[0]


def _networkx(d):
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs)
    return g


@settings(max_examples=300)
@given(digraphs(max_n=7, max_m=20), st.data())
def test_strong_component_matches_networkx(d, data):
    v = data.draw(st.integers(min_value=0, max_value=d.n - 1))
    others = data.draw(st.lists(st.integers(min_value=0, max_value=d.n - 1)))
    keep = sorted({v, *others})
    out, inn = d.out, d.in_masks()
    for within, g in ((-1, _networkx(d)), (mask_of(keep), _networkx(d).subgraph(keep))):
        want = next(c for c in nx.strongly_connected_components(g) if v in c)
        assert strong_component(out, inn, v, within) == mask_of(want)


@given(digraphs(max_n=7), st.data())
def test_induced_matches_networkx(d, data):
    keep = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=d.n - 1))))
    sub = nx.relabel_nodes(_networkx(d).subgraph(keep), {v: i for i, v in enumerate(keep)})
    h = induced(d, keep)
    assert h.n == len(keep) and h.arcs == set(sub.edges)
