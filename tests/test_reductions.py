import itertools

import pytest

import strongpack as sp
from strongpack.errors import GraphFormatError, PreconditionError, SizeLimitError


class TestHypergraphGadget:
    def test_shape_for_minimal_ell(self):
        h = sp.Hypergraph(3, [{0, 1}, {1, 2}])
        out = sp.hypergraph_gadget(h, 2)
        # no hubs at the minimum target: sources + edges + root
        assert out.digraph.n == 3 + 2 + 1
        assert sp.is_symmetric(out.digraph)
        assert out.terminals == {3, 4, 5}
        assert out.provenance[5] == "root"

    def test_hub_count_scales_with_ell(self):
        h = sp.Hypergraph(2, [{0, 1}])
        out = sp.hypergraph_gadget(h, 4)
        hubs = [v for v, role in out.provenance.items() if role.startswith("hub")]
        assert len(hubs) == 2

    def test_positive_instance(self):
        h = sp.Hypergraph(2, [{0, 1}])
        assert sp.is_two_colorable(h)
        out = sp.hypergraph_gadget(h, 2)
        assert sp.exact_kappa(out.digraph, out.terminals)[0] >= 2

    def test_negative_instance(self):
        h = sp.Hypergraph(1, [{0}])
        assert not sp.is_two_colorable(h)
        out = sp.hypergraph_gadget(h, 2)
        assert sp.exact_kappa(out.digraph, out.terminals)[0] < 2

    def test_rejects_small_ell(self):
        with pytest.raises(PreconditionError):
            sp.hypergraph_gadget(sp.Hypergraph(2, [{0, 1}]), 1)

    def test_oracle_limit(self):
        with pytest.raises(SizeLimitError):
            sp.is_two_colorable(sp.Hypergraph(25, [{0}]), limit=20)

    def test_oracle_on_fano_like_system(self):
        lines = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5},
                 {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
        h = sp.Hypergraph(7, lines)
        # brute force over all 2^7 colorings, frozen: the 7-point projective
        # plane is not 2-colorable
        assert sp.is_two_colorable(h) is False


class TestLinkageGadget:
    def euler_square(self):
        return sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_counts_for_minimal_targets(self):
        out = sp.linkage_gadget(self.euler_square(), 0, 1, 2, 3, 2, 2)
        assert out.digraph.n == 4 + 4
        assert sp.is_eulerian(out.digraph)
        assert out.terminals == {4, 5}

    def test_hub_degree_identity(self):
        d = self.euler_square()
        for k, ell in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
            out = sp.linkage_gadget(d, 0, 1, 2, 3, k, ell)
            x = next(v for v, role in out.provenance.items() if role == "x")
            expect = ell + ell * (k - 2)
            assert out.digraph.out_degree(x) == out.digraph.in_degree(x) == expect
            assert sp.is_eulerian(out.digraph)

    def test_positive_iff(self):
        d = self.euler_square()
        assert sp.has_disjoint_paths(d, 0, 1, 2, 3)
        out = sp.linkage_gadget(d, 0, 1, 2, 3, 2, 2)
        assert sp.exact_kappa(out.digraph, out.terminals)[0] >= 2

    def test_negative_iff(self):
        d = self.euler_square()
        assert not sp.has_disjoint_paths(d, 0, 2, 1, 3)
        out = sp.linkage_gadget(d, 0, 2, 1, 3, 2, 2)
        assert sp.exact_kappa(out.digraph, out.terminals)[0] < 2

    def test_rejects_non_eulerian(self):
        with pytest.raises(PreconditionError):
            sp.linkage_gadget(sp.directed_path(4), 0, 1, 2, 3, 2, 2)

    def test_rejects_repeated_endpoints(self):
        with pytest.raises(PreconditionError):
            sp.linkage_gadget(self.euler_square(), 0, 0, 2, 3, 2, 2)

    @pytest.mark.parametrize("t2", [6, -1, 7])
    def test_rejects_endpoint_outside_the_input(self, t2):
        d = sp.directed_cycle(6)
        with pytest.raises(PreconditionError, match=f"path endpoint {t2} is not a vertex"):
            sp.linkage_gadget(d, 0, 1, 2, t2, 2, 2)
        with pytest.raises(PreconditionError, match=f"path endpoint {t2} is not a vertex"):
            sp.has_disjoint_paths(d, 0, 1, 2, t2)

    def test_oracle_two_disjoint_arcs(self):
        d = sp.Digraph(4, [(0, 1), (2, 3)])
        assert sp.has_disjoint_paths(d, 0, 1, 2, 3)

    def test_oracle_forced_shared_vertex(self):
        # both connections must pass through vertex 4
        d = sp.Digraph(5, [(0, 4), (4, 1), (2, 4), (4, 3)])
        assert not sp.has_disjoint_paths(d, 0, 1, 2, 3)


class TestCoverPackingGadgets:
    def test_two_disjoint_covers(self):
        g = sp.BipartiteGraph(2, 1, [(0, 0), (1, 0)])
        assert sp.cover_packing_number(g) == 2
        oi = sp.cover_packing_gadget_internal(g)
        oa = sp.cover_packing_gadget_arc(g)
        assert sp.exact_kappa(oi.digraph, oi.terminals)[0] == 2
        assert sp.exact_lambda(oa.digraph, oa.terminals)[0] == 2

    def test_terminals_independent(self):
        g = sp.BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        for out in (sp.cover_packing_gadget_internal(g),
                    sp.cover_packing_gadget_arc(g)):
            for u in out.terminals:
                for v in out.terminals:
                    assert u == v or not out.digraph.has_arc(u, v)

    def test_internal_gadget_is_symmetric(self):
        g = sp.BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        assert sp.is_symmetric(sp.cover_packing_gadget_internal(g).digraph)

    def test_uncoverable_element_gives_zero(self):
        g = sp.BipartiteGraph(2, 2, [(0, 0), (1, 0)])
        assert sp.cover_packing_number(g) == 0
        oi = sp.cover_packing_gadget_internal(g)
        assert sp.exact_kappa(oi.digraph, oi.terminals)[0] == 0

    def test_single_cover_vertex(self):
        g = sp.BipartiteGraph(1, 2, [(0, 0), (0, 1)])
        assert sp.cover_packing_number(g) == 1
        oa = sp.cover_packing_gadget_arc(g)
        # every route into the hub squeezes through one splitting arc
        assert sp.exact_lambda(oa.digraph, oa.terminals)[0] == 1

    def test_empty_element_side(self):
        assert sp.cover_packing_number(sp.BipartiteGraph(3, 0, [])) == 3
        with pytest.raises(PreconditionError):
            sp.cover_packing_gadget_internal(sp.BipartiteGraph(3, 0, []))
        with pytest.raises(PreconditionError):
            sp.cover_packing_gadget_arc(sp.BipartiteGraph(3, 0, []))

    def test_gadget_equalities_on_sample(self):
        combos = [(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]),
                  (3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)]),
                  (2, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)])]
        for c, b, edges in combos:
            g = sp.BipartiteGraph(c, b, edges)
            want = sp.cover_packing_number(g)
            oi = sp.cover_packing_gadget_internal(g)
            oa = sp.cover_packing_gadget_arc(g)
            assert sp.exact_kappa(oi.digraph, oi.terminals)[0] == want
            assert sp.exact_lambda(oa.digraph, oa.terminals)[0] == want


class TestFormats:
    def test_hypergraph_round_trip(self):
        h = sp.Hypergraph(4, [{0, 1, 2}, {3}])
        text = sp.write_hypergraph(h)
        assert sp.write_hypergraph(sp.read_hypergraph(text)) == text

    def test_hypergraph_bad_header(self):
        with pytest.raises(GraphFormatError):
            sp.read_hypergraph("x\n")

    def test_bipartite_round_trip(self):
        g = sp.BipartiteGraph(2, 3, [(0, 0), (1, 2)])
        text = sp.write_bipartite(g)
        assert sp.write_bipartite(sp.read_bipartite(text)) == text

    @pytest.mark.parametrize("build", [
        lambda: sp.Hypergraph(-3, []),
        lambda: sp.BipartiteGraph(-1, 2, []),
        lambda: sp.BipartiteGraph(1, -2, []),
    ], ids=["hypergraph", "cover-side", "element-side"])
    def test_negative_sizes_refused(self, build):
        with pytest.raises(PreconditionError, match="nonnegative"):
            build()

    def test_bipartite_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            sp.read_bipartite("2 2 3\n0 0\n")

    def test_bipartite_error_names_physical_line(self):
        with pytest.raises(GraphFormatError) as err:
            sp.read_bipartite("# cover graph\n2 1 2\n0 0\n1 x\n")
        assert err.value.line == 4
        assert str(err.value) == "line 4: edge fields must be integers"

    def test_hypergraph_error_names_physical_line(self):
        with pytest.raises(GraphFormatError) as err:
            sp.read_hypergraph("# two edges\n4 2\n0 1\n\n2 y\n")
        assert err.value.line == 5
        assert str(err.value) == "line 5: edge lines must hold integers"
