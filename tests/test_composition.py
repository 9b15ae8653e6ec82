import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import strongpack as sp
from strongpack import generators as gen
from strongpack.errors import GraphFormatError, PreconditionError, StrongpackError

from conftest import reference_blowup
from oracles import lexicographic_product


def spec_of(outer, *inners):
    return sp.CompositionSpec(outer, tuple(inners))


class TestCompose:
    def test_two_cycle_of_empty_pairs_is_complete_bipartite(self):
        spec = spec_of(sp.directed_cycle(2), sp.empty_digraph(2), sp.empty_digraph(2))
        assert sp.compose(spec) == sp.complete_bipartite_digraph(2, 2)

    def test_triangle_of_pairs_counts(self):
        spec = spec_of(sp.directed_cycle(3), *(sp.empty_digraph(2) for _ in range(3)))
        q = sp.compose(spec)
        assert (q.n, q.m) == (6, 12)

    def test_inner_arcs_survive(self):
        spec = spec_of(sp.directed_cycle(2), sp.directed_path(2), sp.empty_digraph(1))
        q = sp.compose(spec)
        assert q.n == 3 and q.m == 5
        assert q.has_arc(0, 1)  # the inner path arc

    def test_degree_arithmetic(self):
        inners = (sp.directed_path(2), sp.empty_digraph(3), sp.directed_cycle(2))
        outer = sp.Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        spec = spec_of(outer, *inners)
        q = sp.compose(spec)
        offs = spec.offsets()
        for i, h in enumerate(inners):
            downstream = sum(inners[p].n for (x, p) in outer.arcs if x == i)
            for j in range(h.n):
                assert q.out_degree(offs[i] + j) == h.out_degree(j) + downstream

    def test_n0(self):
        spec = spec_of(sp.directed_cycle(2), sp.empty_digraph(3), sp.empty_digraph(1))
        assert spec.n0 == 1 and spec.n == 4

    def test_rejects_tiny_outer(self):
        with pytest.raises(PreconditionError):
            spec_of(sp.Digraph(1), sp.empty_digraph(2))


class TestLexicographicProduct:
    def test_equals_blowup_host(self):
        # every vertex (i, j) of the blown-up 4-cycle, id 3i + j, reaches
        # all three vertices of the next layer
        arcs = [(3 * i + j, 3 * ((i + 1) % 4) + k)
                for i in range(4) for j in range(3) for k in range(3)]
        assert reference_blowup(4, 3) == sp.Digraph(12, arcs)

    def test_two_cycle_by_pair(self):
        g = sp.biorientation(2, [(0, 1)])
        assert lexicographic_product(g, sp.empty_digraph(2)) \
            == sp.complete_bipartite_digraph(2, 2)

    def test_arc_count(self):
        q = lexicographic_product(sp.directed_cycle(3), sp.empty_digraph(3))
        assert q.n == 9 and q.m == 27


class TestCanonicalDecomposition:
    def test_tournament_gives_singletons(self, strong_tournament4):
        spec = sp.canonical_decomposition_strong_qt(strong_tournament4)
        assert spec.t == 4 and all(h.n == 1 for h in spec.inners)

    def test_three_cycle(self, c3):
        spec = sp.canonical_decomposition_strong_qt(c3)
        assert spec.t == 3 and all(h.n == 1 for h in spec.inners)

    def test_triangle_blowup_recovers_layers(self):
        spec_in = spec_of(sp.directed_cycle(3), sp.empty_digraph(2),
                          sp.empty_digraph(3), sp.empty_digraph(3))
        q = sp.compose(spec_in)
        assert sp.is_quasi_transitive(q)
        spec = sp.canonical_decomposition_strong_qt(q)
        assert sorted(h.n for h in spec.inners) == [2, 3, 3]
        assert spec.n0 == 2

    def test_recomposition_reproduces_input(self):
        spec_in = spec_of(sp.directed_cycle(3), sp.directed_path(2),
                          sp.empty_digraph(2), sp.empty_digraph(2))
        q = sp.compose(spec_in)
        spec = sp.canonical_decomposition_strong_qt(q)
        back = sp.relabel(sp.compose(spec), spec.original_ids)
        assert back == q

    def test_rejects_non_strong(self):
        tt3 = sp.Digraph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(PreconditionError):
            sp.canonical_decomposition_strong_qt(tt3)

    def test_decomposes_a_non_quasi_transitive_composition(self):
        # complete bipartite digraphs have non-adjacent pairs joined by
        # 2-paths, so they fail the adjacency-forcing condition, but their
        # co-components, the two sides, are modules
        k22 = sp.complete_bipartite_digraph(2, 2)
        assert not sp.is_quasi_transitive(k22)
        spec = sp.canonical_decomposition_strong_qt(k22)
        assert spec.outer == sp.directed_cycle(2) and spec.original_ids == (0, 1, 2, 3)
        assert spec.inners == (sp.empty_digraph(2), sp.empty_digraph(2))

    def test_rejects_a_digraph_that_is_no_composition(self):
        # one co-component, then two of which {0, 1} is no module: 4 sees 0 one way
        near = sp.Digraph(5, sp.complete_bipartite_digraph(2, 3).arcs - {(4, 0)})
        for d, reason in ((sp.directed_cycle(5), "underlying graph is connected"),
                          (near, "a co-component is not a module")):
            with pytest.raises(PreconditionError, match=reason):
                sp.canonical_decomposition_strong_qt(d)


def recomposition_verdict(d):
    """What ``canonical_decomposition_strong_qt`` decided by recomposing: the
    spec over the co-components (networkx's complement components, lowest
    vertex first), or its refusal, from whether that spec composes back to ``d``."""
    g = nx.complement(nx.Graph(list(d.arcs)) if d.m else nx.empty_graph(d.n))
    g.add_nodes_from(range(d.n))
    parts = sorted(sorted(c) for c in nx.connected_components(g))
    if len(parts) < 2:
        return "digraph is not a composition: the complement of its underlying graph is connected"
    outer = sp.Digraph(len(parts), [(i, j) for i, a in enumerate(parts) for j, b in enumerate(parts)
                                    if i != j and any(d.has_arc(u, v) for u in a for v in b)])
    ids = tuple(v for part in parts for v in part)
    inners = [sp.Digraph(len(p), [(x, y) for x, u in enumerate(p) for y, v in enumerate(p)
                                  if d.has_arc(u, v)]) for p in parts]
    spec = sp.CompositionSpec(outer, inners, ids)
    if sp.relabel(sp.compose(spec), ids) != d:
        return "digraph is not a composition: a co-component is not a module"
    return spec


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_module_test_agrees_with_the_recomposition(t, symmetric, toggle, rng):
    # composition hosts in a shuffled layout, some with one arc toggled, so
    # that a co-component may stop being a module
    host = sp.compose(gen.random_composition(t, 3, rng, symmetric))
    arcs = set(host.arcs)
    if toggle:
        arcs ^= {tuple(rng.sample(range(host.n), 2))}
    perm = list(range(host.n))
    rng.shuffle(perm)
    d = sp.relabel(sp.Digraph(host.n, arcs), perm)
    if not sp.is_strong(d):
        return
    try:
        got = sp.canonical_decomposition_strong_qt(d)
    except PreconditionError as exc:
        got = str(exc)
    assert got == recomposition_verdict(d)


class TestCompositionFormat:
    def test_round_trip(self):
        spec = spec_of(sp.directed_cycle(2), sp.directed_path(2), sp.empty_digraph(3))
        text = sp.write_composition(spec)
        loaded = sp.read_composition(text)
        assert sp.compose(loaded) == sp.compose(spec)
        assert sp.write_composition(loaded) == text

    def test_outer_size_mismatch(self):
        with pytest.raises(GraphFormatError):
            sp.read_composition("3\n2 0\n---\n1 0\n---\n1 0\n---\n1 0\n")

    @pytest.mark.parametrize("text, line", [
        ("2\n2 2\n0 1\n1 0\n---\n1 0\n---\n2 1\n0 x\n", 9),
        ("\n\n2\n2 2\n0 1\n1 x\n---\n1 0\n---\n1 0\n", 6),
    ], ids=["inner-block", "after-leading-blanks"])
    def test_parse_error_names_physical_line(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            sp.read_composition(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: arc endpoints must be integers"

    def test_inner_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            sp.read_composition("2\n2 0\n---\n1 0\n")
