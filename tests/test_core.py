"""The bitmask digraph core against definitions over arc tuples and against
networkx, on random digraphs with up to 12 vertices."""

import copy
import pickle
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack.digraph import bits, mask_of, reachable
from strongpack.errors import GraphFormatError, PreconditionError

from oracles import adjacency, min_semi_degree, reverse

MAX_N = 12


@composite
def masked_digraphs(draw, min_n=1, max_n=MAX_N):
    """A digraph built by the trusted constructor from random masks."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    full = (1 << n) - 1
    out = [draw(st.integers(min_value=0, max_value=full)) & ~(1 << u) for u in range(n)]
    return sp.Digraph.from_masks(n, out)


@composite
def arc_digraphs(draw, min_n=1, max_n=MAX_N):
    """A digraph built by the validating constructor from a random arc list."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pool), max_size=3 * n)) if pool else []
    return sp.Digraph(n, arcs)


digraphs = st.one_of(masked_digraphs(), arc_digraphs())


def naive_arcs(d):
    return {(u, v) for u in range(d.n) for v in range(d.n) if d.out[u] >> v & 1}


def to_nx(d):
    g = nx.DiGraph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs)
    return g


class TestRepresentation:
    @given(digraphs)
    def test_derived_views_agree_with_the_masks(self, d):
        arcs = naive_arcs(d)
        assert d.arcs == arcs
        assert d.m == len(arcs)
        assert adjacency(d) == [sorted(v for (x, v) in arcs if x == u) for u in range(d.n)]
        assert d.in_masks() == [mask_of(u for (u, x) in arcs if x == v) for v in range(d.n)]
        for u in range(d.n):
            assert d.out_degree(u) == sum(1 for (x, _) in arcs if x == u)
            assert d.in_degree(u) == sum(1 for (_, x) in arcs if x == u)
            for v in range(d.n):
                assert d.has_arc(u, v) == ((u, v) in arcs)
        assert not d.has_arc(-1, 0) and not d.has_arc(0, d.n)

    @pytest.mark.parametrize("m", [0, 49, 50, 400])
    def test_in_masks_either_side_of_the_density_cut(self, m):
        """On 40 vertices a digraph below 50 arcs (32m < n^2) sets one bit
        per arc and one from 50 up transposes; both give the in-masks, which
        are kept, and each call returns a copy to change."""
        pool = [(u, v) for u in range(40) for v in range(40) if u != v]
        arcs = random.Random(m).sample(pool, m)
        d = sp.Digraph(40, arcs)
        want = [mask_of(u for (u, x) in arcs if x == v) for v in range(40)]
        first = d.in_masks()
        assert first == want
        first[0] = -1
        assert d.in_masks() == want and d.in_masks() is not d.in_masks()

    @given(masked_digraphs(min_n=0))
    def test_validating_constructor_agrees_with_trusted_one(self, d):
        again = sp.Digraph(d.n, d.arcs)
        assert again == d
        assert hash(again) == hash(d)
        assert sp.Digraph(d.n, sorted(d.arcs) * 2) == d

    @given(digraphs)
    def test_reverse_twice_is_identity(self, d):
        r = reverse(d)
        assert r.arcs == {(v, u) for (u, v) in d.arcs}
        assert reverse(r) == d

    @given(digraphs, st.randoms(use_true_random=False))
    def test_relabel_then_inverse_is_identity(self, d, rng):
        perm = list(range(d.n))
        rng.shuffle(perm)
        inverse = [0] * d.n
        for i, p in enumerate(perm):
            inverse[p] = i
        moved = sp.relabel(d, perm)
        assert moved.arcs == {(perm[u], perm[v]) for (u, v) in d.arcs}
        assert sp.relabel(moved, inverse) == d

    def test_relabel_needs_a_permutation(self):
        with pytest.raises(PreconditionError):
            sp.relabel(sp.directed_path(3), [0, 0, 1])

    def test_immutable_and_copyable(self):
        d = sp.directed_cycle(3)
        with pytest.raises(AttributeError):
            d.n = 4
        assert copy.deepcopy(d) == d
        assert pickle.loads(pickle.dumps(d)) == d

    @given(st.integers(min_value=0, max_value=(1 << 70) - 1))
    def test_bit_helpers(self, x):
        assert bits(x) == [i for i in range(x.bit_length()) if x >> i & 1]
        assert mask_of(bits(x)) == x

    @given(digraphs, st.data())
    def test_reachable_matches_networkx(self, d, data):
        root = data.draw(st.integers(min_value=0, max_value=d.n - 1))
        assert bits(reachable(d.out, root)) == sorted(nx.descendants(to_nx(d), root) | {root})


class TestPredicates:
    @given(digraphs)
    def test_strong_components_match_networkx(self, d):
        expected = sorted((frozenset(c) for c in nx.strongly_connected_components(to_nx(d))),
                          key=min)
        assert sp.strong_components(d) == expected
        assert sp.is_strong(d) == nx.is_strongly_connected(to_nx(d))

    @given(digraphs)
    def test_symmetric_by_definition(self, d):
        assert sp.is_symmetric(d) == all((v, u) in d.arcs for (u, v) in d.arcs)

    @given(digraphs)
    def test_semicomplete_by_definition(self, d):
        expected = all((u, v) in d.arcs or (v, u) in d.arcs
                       for u in range(d.n) for v in range(u + 1, d.n))
        assert sp.is_semicomplete(d) == expected

    @given(digraphs)
    def test_quasi_transitive_by_definition(self, d):
        arcs = d.arcs
        expected = all((x, z) in arcs or (z, x) in arcs
                       for (x, y) in arcs for (y2, z) in arcs if y2 == y and z != x)
        assert sp.is_quasi_transitive(d) == expected

    @given(digraphs)
    def test_degree_predicates_by_definition(self, d):
        outd = [sum(1 for (u, _) in d.arcs if u == v) for v in range(d.n)]
        ind = [sum(1 for (_, w) in d.arcs if w == v) for v in range(d.n)]
        assert min_semi_degree(d) == min(min(a, b) for a, b in zip(outd, ind))
        connected = nx.is_weakly_connected(to_nx(d))
        assert sp.is_eulerian(d) == (connected and outd == ind)


@composite
def specs(draw):
    outer = draw(arc_digraphs(min_n=2, max_n=4))
    inners = [draw(arc_digraphs(min_n=1, max_n=3)) for _ in range(outer.n)]
    return sp.CompositionSpec(outer, inners)


@given(specs())
def test_compose_matches_the_triple_loop(spec):
    offs = spec.offsets()
    arcs = set()
    for i, h in enumerate(spec.inners):
        arcs |= {(offs[i] + u, offs[i] + v) for (u, v) in h.arcs}
    for i, p in spec.outer.arcs:
        for u in range(spec.inners[i].n):
            for v in range(spec.inners[p].n):
                arcs.add((offs[i] + u, offs[p] + v))
    assert sp.compose(spec) == sp.Digraph(spec.n, arcs)


class TestTextFormat:
    @given(digraphs)
    def test_round_trip_reproduces_the_bytes(self, d):
        text = sp.write_digraph(d)
        assert text.splitlines()[1:] == [f"{u} {v}" for u, v in sorted(d.arcs)]
        again = sp.read_digraph(text)
        assert again == d
        assert sp.write_digraph(again) == text

    @pytest.mark.parametrize("arcs, message", [
        ([(1, 1)], "loop arc (1, 1) not allowed"),
        ([(0, 3)], "arc (0, 3) out of range for n=3"),
        ([(-1, 0)], "arc (-1, 0) out of range for n=3"),
    ])
    def test_constructor_errors(self, arcs, message):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            sp.Digraph(3, arcs)
        text = f"3 {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
        with pytest.raises(GraphFormatError) as err:
            sp.read_digraph(text)
        assert str(err.value) == message

    def test_negative_order(self):
        with pytest.raises(PreconditionError):
            sp.Digraph(-1)
        with pytest.raises(GraphFormatError, match="nonnegative"):
            sp.read_digraph("-1 0\n")

    @pytest.mark.parametrize("text, line", [
        ("# c\n\n3\n", 3),
        ("3 x\n", 1),
        ("3 2\n0 1\n# c\n1\n", 4),
        ("3 2\n0 1\n  \n1 y\n", 4),
        ("3 2\n0 0\n1 y\n", 3),  # syntax errors come before the loop arc
    ])
    def test_format_errors_carry_the_line(self, text, line):
        with pytest.raises(GraphFormatError) as err:
            sp.read_digraph(text)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    def test_count_mismatch_comes_before_arc_errors(self):
        with pytest.raises(GraphFormatError, match="header promises 2 arcs, found 1"):
            sp.read_digraph("3 2\n0 0\n")


@settings(max_examples=60)
@given(masked_digraphs(min_n=2, max_n=8), st.data())
def test_verify_packing_matches_a_reference(host, data):
    """verify_packing's mask checks against the same clauses written over
    arc tuples with networkx strongness."""
    pool = sorted(host.arcs) + [(0, 0), (host.n, 0)]
    parts = tuple(frozenset(data.draw(st.lists(st.sampled_from(pool), max_size=10)))
                  for _ in range(data.draw(st.integers(min_value=0, max_value=3))))
    ts = frozenset(data.draw(st.lists(st.integers(0, host.n - 1), min_size=2, max_size=3)))
    packing = sp.Packing(host, ts, sp.packing.MODE_ARC, parts)

    def reference():
        for i, part in enumerate(parts):
            stray = part - host.arcs
            if stray:
                return (False, "arc not in host", (i,), min(stray))
            g = nx.DiGraph(list(part))
            if not part or not ts <= set(g) or not nx.is_strongly_connected(g):
                return (False, "part is not a terminal-covering strong subgraph", (i,), None)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if parts[i] & parts[j]:
                    return (False, "arc-disjoint", (i, j), min(parts[i] & parts[j]))
        return (True, None, (), None)

    v = sp.verify_packing(packing)
    assert (v.ok, v.reason, v.parts, v.witness) == reference()
