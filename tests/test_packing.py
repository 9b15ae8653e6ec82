import random
import time

import pytest

import strongpack as sp
from strongpack import _kernel, packing
from strongpack import generators as gen
from strongpack.errors import (GraphFormatError, InfeasibleError, PreconditionError,
                               StrongpackError, UnsupportedCaseError)
from strongpack.packing import MODE_ARC, MODE_INTERNAL

from conftest import exceptional_member


def make_packing(host, terminals, parts, mode=MODE_ARC):
    return sp.Packing(host, frozenset(terminals), mode,
                      tuple(frozenset(p) for p in parts))


class TestVerifyPacking:
    def test_whole_cycle_ok(self, c3):
        p = make_packing(c3, [0, 1, 2], [c3.arcs])
        assert sp.verify_packing(p).ok

    def test_shared_arc_flagged(self, c3):
        p = make_packing(c3, [0, 1], [c3.arcs, {(0, 1), (1, 2), (2, 0)}])
        verdict = sp.verify_packing(p)
        assert not verdict.ok
        assert verdict.reason == "arc-disjoint"
        assert verdict.parts == (0, 1)

    def test_internal_mode_catches_shared_inner_vertex(self):
        host = sp.biorientation(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        part_a = {(0, 1), (1, 0), (1, 3), (3, 1)}
        part_b = {(0, 2), (2, 0), (2, 3), (3, 2), (1, 2), (2, 1)}
        bad = make_packing(host, [0, 3], [part_a, part_b], MODE_INTERNAL)
        verdict = sp.verify_packing(bad)
        assert not verdict.ok and verdict.reason == "internal disjointness"
        assert verdict.witness == 1  # the shared inner vertex

    def test_missing_terminal_flagged(self, c3):
        p = make_packing(c3, [0, 1, 2], [{(0, 1), (1, 2)}])
        verdict = sp.verify_packing(p)
        assert not verdict.ok
        assert "strong" in verdict.reason

    def test_arc_outside_host_flagged(self, c3):
        p = make_packing(c3, [0, 1], [{(0, 2)}])
        assert sp.verify_packing(p).reason == "arc not in host"

    def test_empty_packing_ok(self, c3):
        assert sp.verify_packing(make_packing(c3, [0, 1], [])).ok


class TestPackBipartite:
    def test_one_one(self):
        p = sp.pack_bipartite(1, 1)
        assert len(p.parts) == 1
        assert p.parts[0] == frozenset({(0, 1), (1, 0)})

    def test_two_three(self):
        p = sp.pack_bipartite(2, 3)
        assert len(p.parts) == 2
        assert sp.verify_packing(p).ok

    def test_three_three_each_part_is_six_cycle(self):
        p = sp.pack_bipartite(3, 3)
        assert len(p.parts) == 3
        assert all(len(part) == 6 for part in p.parts)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 4), (3, 4), (4, 4)])
    def test_parts_are_strong_spanning(self, a, b):
        p = sp.pack_bipartite(a, b)
        assert len(p.parts) == a
        host_vertices = frozenset(range(a + b))
        for i in range(a):
            assert p.part_vertices(i) == host_vertices
        assert sp.verify_packing(p).ok

    def test_part_count_matches_min_semi_degree(self):
        for a, b in [(1, 3), (2, 3), (3, 3), (2, 5)]:
            host = sp.complete_bipartite_digraph(a, b)
            assert len(sp.pack_bipartite(a, b).parts) == sp.min_semi_degree(host) == a

    def test_rejects_bad_sides(self):
        with pytest.raises(PreconditionError):
            sp.pack_bipartite(3, 2)


class TestExceptional:
    def test_all_three_members(self):
        for name, member in sp.EXCEPTIONAL_COMPOSITIONS:
            verdict = sp.is_in_exceptional(member)
            assert verdict.member and verdict.name == name
            assert verdict.witness is not None

    def test_relabeled_member_detected(self):
        rng = random.Random(11)
        for _, member in sp.EXCEPTIONAL_COMPOSITIONS:
            perm = list(range(member.n))
            rng.shuffle(perm)
            assert sp.is_in_exceptional(sp.relabel(member, perm)).member

    def test_witness_is_isomorphism(self):
        rng = random.Random(5)
        name, member = sp.EXCEPTIONAL_COMPOSITIONS[2]
        perm = list(range(member.n))
        rng.shuffle(perm)
        shuffled = sp.relabel(member, perm)
        verdict = sp.is_in_exceptional(shuffled)
        mapped = sp.relabel(shuffled, verdict.witness)
        assert mapped == dict(sp.EXCEPTIONAL_COMPOSITIONS)[verdict.name]

    def test_non_members(self, c3, k23):
        assert not sp.is_in_exceptional(sp.complete_bipartite_digraph(2, 2)).member
        assert not sp.is_in_exceptional(c3).member
        assert not sp.is_in_exceptional(k23).member
        near = sp.compose(sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(2), sp.empty_digraph(2), sp.empty_digraph(4))))
        assert not sp.is_in_exceptional(near).member


class TestPackSymmetricComposition:
    def test_two_layer_example(self):
        spec = sp.CompositionSpec(sp.biorientation(2, [(0, 1)]),
                                  (sp.empty_digraph(2), sp.empty_digraph(3)))
        p = sp.pack_symmetric_composition(spec, [0, 3])
        assert len(p.parts) == 2
        assert sp.verify_packing(p).ok
        assert sp.exact_lambda(sp.compose(spec), [0, 3])[0] >= 2

    def test_path_outer(self):
        spec = sp.CompositionSpec(sp.biorientation(3, [(0, 1), (1, 2)]),
                                  tuple(sp.empty_digraph(2) for _ in range(3)))
        p = sp.pack_symmetric_composition(spec, [0, 5])
        assert len(p.parts) == 2 and sp.verify_packing(p).ok

    def test_single_part_when_some_layer_is_a_vertex(self):
        spec = sp.CompositionSpec(sp.biorientation(2, [(0, 1)]),
                                  (sp.empty_digraph(1), sp.empty_digraph(1)))
        p = sp.pack_symmetric_composition(spec, [0, 1])
        assert p.parts == (frozenset({(0, 1), (1, 0)}),)

    def test_parts_span_even_with_inner_arcs(self):
        spec = sp.CompositionSpec(sp.biorientation(2, [(0, 1)]),
                                  (sp.directed_path(3), sp.empty_digraph(3)))
        p = sp.pack_symmetric_composition(spec, [0, 4])
        host_vertices = frozenset(range(6))
        for i in range(len(p.parts)):
            assert p.part_vertices(i) == host_vertices
        # inner arcs never enter the parts
        used = set().union(*p.parts)
        assert (0, 1) not in used

    def test_rejects_asymmetric_outer(self):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(2) for _ in range(3)))
        with pytest.raises(PreconditionError):
            sp.pack_symmetric_composition(spec, [0, 1])

    def test_rejects_disconnected_outer(self):
        outer = sp.biorientation(4, [(0, 1), (2, 3)])
        spec = sp.CompositionSpec(outer, tuple(sp.empty_digraph(1) for _ in range(4)))
        with pytest.raises(PreconditionError):
            sp.pack_symmetric_composition(spec, [0, 3])


class TestPackSemicompleteComposition:
    def test_triple_blowup(self):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(3) for _ in range(3)))
        p = sp.pack_semicomplete_composition(spec, [0, 4])
        assert len(p.parts) == 3
        assert sp.verify_packing(p).ok
        host = sp.compose(spec)
        assert sp.min_semi_degree(host) == 3

    def test_exceptional_rejected_with_witness(self):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(2) for _ in range(3)))
        with pytest.raises(InfeasibleError) as err:
            sp.pack_semicomplete_composition(spec, [0, 1])
        assert "exceptional" in str(err.value)

    def test_pair_fallback_by_exact_search(self):
        spec = sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(2), sp.empty_digraph(2), sp.empty_digraph(4)))
        p = sp.pack_semicomplete_composition(spec, [0, 4])
        assert len(p.parts) == 2 and sp.verify_packing(p).ok
        # parts are spanning
        assert p.part_vertices(0) == p.part_vertices(1) == frozenset(range(8))

    def test_single_part_case(self):
        spec = sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(1), sp.empty_digraph(2), sp.empty_digraph(2)))
        p = sp.pack_semicomplete_composition(spec, [0, 1])
        assert len(p.parts) == 1
        assert p.parts[0] == sp.compose(spec).arcs

    def test_leftover_vertices_attach(self):
        spec = sp.CompositionSpec(
            sp.directed_cycle(2),
            (sp.empty_digraph(3), sp.empty_digraph(5)))
        p = sp.pack_semicomplete_composition(spec, [0, 5])
        assert len(p.parts) == 3
        assert sp.verify_packing(p).ok
        for i in range(3):
            assert p.part_vertices(i) == frozenset(range(8))

    def test_tournament_outer(self):
        outer = sp.Digraph(3, [(0, 1), (1, 2), (2, 0)])
        spec = sp.CompositionSpec(outer, (sp.empty_digraph(3),
                                          sp.empty_digraph(4), sp.empty_digraph(3)))
        p = sp.pack_semicomplete_composition(spec, [0, 9])
        assert len(p.parts) == 3 and sp.verify_packing(p).ok

    def test_rejects_non_semicomplete_outer(self):
        outer = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = sp.CompositionSpec(outer, tuple(sp.empty_digraph(2) for _ in range(4)))
        with pytest.raises(PreconditionError):
            sp.pack_semicomplete_composition(spec, [0, 1])


GRID = [(t, n0, two_cycles) for t in (3, 5, 7, 21) for n0 in (2, 6, 10)
        for two_cycles in (False, True)]


def _grid_spec(t, n0, two_cycles):
    """A random strong semicomplete outer, with at least one 2-cycle or
    none, over layers of n0..40 vertices (one of exactly n0) with inner
    arc probability 0.15."""
    rng = random.Random(f"grid:{t}:{n0}:{two_cycles}")
    while True:
        outer = gen.random_strong_semicomplete(t, rng, two_cycle_prob=0.3 * two_cycles)
        if not two_cycles or outer.m > t * (t - 1) // 2:
            break
    sizes = [rng.randint(n0, 40) for _ in range(t)]
    sizes[rng.randrange(t)] = n0
    return sp.CompositionSpec(outer, [gen.random_inner(s, 0.15, rng) for s in sizes])


class TestSemicompleteGrid:
    """n0 parts in polynomial time on every non-exceptional host: the exact
    kernel only ever sees the core of a C3 outer, and only the C3 outer
    with n0 = 2 (mod 4) >= 6 is left without a construction."""

    @pytest.mark.parametrize("t,n0,two_cycles", GRID,
                             ids=[f"t{t}-n0{n0}-{'2cyc' if c else 'tour'}"
                                  for t, n0, c in GRID])
    def test_grid(self, monkeypatch, t, n0, two_cycles):
        spec = _grid_spec(t, n0, two_cycles)
        c3 = spec.outer in (sp.directed_cycle(3), sp.directed_cycle(3).reverse())
        sizes = []
        search = _kernel.search_arc_disjoint

        def spy(n, arcs, s_mask, ell):
            sizes.append(n)
            return search(n, arcs, s_mask, ell)

        monkeypatch.setattr(_kernel, "search_arc_disjoint", spy)
        start = time.perf_counter()
        if c3 and n0 >= 6:
            with pytest.raises(UnsupportedCaseError):
                sp.pack_semicomplete_composition(spec, [0, 1])
        else:
            p = sp.pack_semicomplete_composition(spec, [0, 1])
            assert len(p.parts) == n0 and sp.verify_packing(p).ok
        assert time.perf_counter() - start < 1.0
        assert all(n <= 8 for n in sizes)
        assert bool(sizes) == (c3 and n0 == 2)

    def test_grid_draws_c3_and_two_cycle_outers(self):
        c3 = sp.directed_cycle(3)
        outers = [_grid_spec(*case).outer for case in GRID]
        assert sum(o in (c3, c3.reverse()) for o in outers) == 3
        assert sum(o.m > o.n * (o.n - 1) // 2 for o in outers) == len(GRID) // 2


class TestPackQuasiTransitive:
    def test_strong_tournament_single_part(self, strong_tournament4):
        p = sp.pack_quasi_transitive(strong_tournament4, [0, 1])
        assert len(p.parts) == 1 and sp.verify_packing(p).ok

    def test_triangle_blowup(self):
        q = sp.compose(sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(2), sp.empty_digraph(3), sp.empty_digraph(3))))
        p = sp.pack_quasi_transitive(q, [0, 5])
        assert len(p.parts) == 2 and sp.verify_packing(p).ok
        assert p.host == q

    def test_uniform_triangle_blowup(self):
        q = sp.compose(sp.CompositionSpec(
            sp.directed_cycle(3), tuple(sp.empty_digraph(3) for _ in range(3))))
        p = sp.pack_quasi_transitive(q, [0, 8])
        assert len(p.parts) == 3

    def test_exceptional_rejected(self):
        with pytest.raises(InfeasibleError):
            sp.pack_quasi_transitive(exceptional_member(0), [0, 1])

    def test_relabeling_maps_back(self):
        q = sp.compose(sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(2), sp.empty_digraph(3), sp.empty_digraph(3))))
        rng = random.Random(3)
        perm = list(range(q.n))
        rng.shuffle(perm)
        shuffled = sp.relabel(q, perm)
        p = sp.pack_quasi_transitive(shuffled, [perm[0], perm[4]])
        assert sp.verify_packing(p).ok
        assert p.host == shuffled

    def test_rejects_non_qt(self, k23):
        with pytest.raises(PreconditionError):
            sp.pack_quasi_transitive(k23, [0, 2])


def _layers(outer, *sizes):
    return sp.CompositionSpec(outer, [sp.empty_digraph(s) for s in sizes])


# Every packer, on a host where the join step attaches at least one vertex:
# (name, call with all vertices as terminals).
def _packer_cases():
    c3 = sp.directed_cycle(3)
    sym = _layers(sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2, 3, 2, 4)
    spine = _layers(c3, 3, 4, 3)
    dropped = _layers(sp.biorientation(3, [(0, 1), (1, 2), (2, 0)]), 2, 3, 3)
    core = _layers(c3, 2, 3, 5)
    qt = sp.relabel(sp.compose(spine), [(7 * v + 3) % 10 for v in range(10)])
    return [
        ("bipartite", lambda: sp.pack_bipartite(2, 3)),
        ("symmetric", lambda: sp.pack_symmetric_composition(sym, range(sym.n))),
        ("semicomplete-spine",
         lambda: sp.pack_semicomplete_composition(spine, range(spine.n))),
        ("semicomplete-dropped",
         lambda: sp.pack_semicomplete_composition(dropped, range(dropped.n))),
        ("semicomplete-c3-core",
         lambda: sp.pack_semicomplete_composition(core, range(core.n))),
        ("quasi-transitive", lambda: sp.pack_quasi_transitive(qt, range(qt.n))),
    ]


PACKERS = _packer_cases()


class TestSelfCheck:
    """Each packer verifies what it built, on the host it was given, exactly
    once, and refuses a construction that does not pass."""

    @pytest.mark.parametrize("name,call", PACKERS, ids=[n for n, _ in PACKERS])
    def test_broken_join_fails_self_check(self, monkeypatch, name, call):
        monkeypatch.setattr(packing, "_join", lambda parts, offs, joins: None)
        with pytest.raises(StrongpackError, match="failed self-check"):
            call()

    @pytest.mark.parametrize("name,call", PACKERS, ids=[n for n, _ in PACKERS])
    def test_verifies_once(self, monkeypatch, name, call):
        calls = []
        verify = packing.verify_packing
        monkeypatch.setattr(packing, "verify_packing",
                            lambda p: calls.append(p) or verify(p))
        result = call()
        assert calls == [result]

    def test_quasi_transitive_checks_exceptional_once(self, monkeypatch):
        # the two C3 hosts take the core path, one whose cap-3 core is the
        # exceptional 2-2-3 and one whose core is not
        calls = []
        check = packing.is_in_exceptional
        monkeypatch.setattr(packing, "is_in_exceptional",
                            lambda d: calls.append(d) or check(d))
        result = dict(PACKERS)["quasi-transitive"]()
        assert calls == [result.host]
        for sizes in [(2, 2, 4), (2, 3, 5)]:
            host = sp.compose(_layers(sp.directed_cycle(3), *sizes))
            calls.clear()
            sp.pack_quasi_transitive(host, range(host.n))
            assert calls == [host]


class TestPackingFormat:
    def test_round_trip(self):
        p = sp.pack_bipartite(2, 3)
        text = sp.write_packing(p)
        loaded = sp.read_packing(text, p.host, p.terminals)
        assert loaded.parts == p.parts and loaded.mode == p.mode
        assert sp.write_packing(loaded) == text

    def test_empty_part_round_trip(self, c3):
        p = make_packing(c3, [0, 1], [(), c3.arcs, ()])
        text = sp.write_packing(p)
        assert text == "parts=3 mode=arc\n-\n0>1 1>2 2>0\n-\n"
        loaded = sp.read_packing(text, c3, [0, 1])
        assert loaded.parts == p.parts
        assert sp.write_packing(loaded) == text

    def test_bad_header(self, c3):
        with pytest.raises(GraphFormatError):
            sp.read_packing("nonsense\n", c3, [0, 1])

    def test_part_count_mismatch(self, c3):
        with pytest.raises(GraphFormatError):
            sp.read_packing("parts=2 mode=arc\n0>1 1>2 2>0\n", c3, [0, 1])

    def test_bad_token(self, c3):
        with pytest.raises(GraphFormatError):
            sp.read_packing("parts=1 mode=arc\n0-1\n", c3, [0, 1])

    def test_bad_token_names_its_physical_line(self, c3):
        with pytest.raises(GraphFormatError) as err:
            sp.read_packing("# c\nparts=1 mode=arc\n0>x\n", c3, [0, 1])
        assert err.value.line == 3 and str(err.value).startswith("line 3:")

    def test_header_after_comment_names_its_physical_line(self, c3):
        for header in ("nonsense", "parts=1 mode=weird"):
            with pytest.raises(GraphFormatError) as err:
                sp.read_packing(f"# c\n\n{header}\n0>1 1>2 2>0\n", c3, [0, 1])
            assert err.value.line == 3
