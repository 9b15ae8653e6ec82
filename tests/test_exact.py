import itertools
import random

import pytest

import strongpack as sp
from strongpack import _kernel, exact, verify
from strongpack.digraph import bits
from strongpack.errors import PreconditionError, SizeLimitError, StrongpackError
from strongpack.exact import SolverLimits

from conftest import exceptional_member
from oracles import (check_cut_relation, kappa_k, lambda_k, max_disjoint_paths_undirected,
                     min_semi_degree, min_strong_cut_exhaustive)
from test_kernel import PINNED_NODES, _pinned_host

WIDE = SolverLimits(max_vertices=10, max_arcs=40)


class TestExactLambda:
    def test_three_cycle(self, c3):
        value, packing = sp.exact_lambda(c3, [0, 1, 2])
        assert value == 1
        assert sp.verify_packing(packing).ok

    def test_complete_bipartite_with_small_side_terminal(self, k23):
        for S in [(0, 2), (2, 3), (0, 1, 2, 3, 4), (1, 4)]:
            assert sp.exact_lambda(k23, S)[0] == 2

    def test_terminals_inside_large_side_allow_more(self, k23):
        # three arc-disjoint 4-cycles through the two left vertices
        assert sp.exact_lambda(k23, (0, 1))[0] == 3

    def test_exceptional_composition_has_value_one(self):
        q0 = exceptional_member(0)
        assert sp.exact_lambda(q0, range(6))[0] == 1

    def test_zero_when_terminals_split(self):
        d = sp.Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
        value, packing = sp.exact_lambda(d, [0, 3])
        assert value == 0 and packing.parts == ()

    def test_value_one_packing_is_component_arcs(self):
        d = sp.Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3)])
        value, packing = sp.exact_lambda(d, [0, 2])
        assert value == 1
        assert packing.parts[0] == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})

    def test_deterministic(self, k23):
        a = sp.exact_lambda(k23, [0, 2])
        b = sp.exact_lambda(k23, [0, 2])
        assert a[0] == b[0] and a[1].parts == b[1].parts

    def test_greedy_meeting_the_cut_needs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(_kernel, "search_arc_disjoint", refuse)
        wide = SolverLimits(64, 5000)
        hosts = [(d, bits(s_mask)) for d, _, s_mask in
                 (_pinned_host(*key) for key in sorted(PINNED_NODES))]
        hosts.append((sp.Digraph(40, itertools.permutations(range(40), 2)), [0, 1]))
        results = [sp.exact_lambda(d, terminals, wide) for d, terminals in hosts]
        assert [value for value, _ in results] == [2, 3, 4, 5, 39]
        assert all(sp.verify_packing(packing).ok for _, packing in results)

    def test_refuses_oversize(self):
        # the limits refuse a search, not a host: K*_4 with terminals 0-3
        # needs one (the greedy finds 2 parts against a cut bound of 3)
        k4 = sp.Digraph(4, itertools.permutations(range(4), 2))
        with pytest.raises(SizeLimitError, match="^4 vertices exceeds limit 3; "):
            sp.exact_lambda(k4, range(4), SolverLimits(3, 12))
        with pytest.raises(SizeLimitError, match="^12 arcs exceeds limit 11; "):
            sp.exact_lambda(k4, range(4), SolverLimits(4, 11))
        assert sp.exact_lambda(k4, range(4), SolverLimits(4, 12))[0] == 2
        # the empty digraph and K_{4,4} need none, so the defaults answer them
        assert sp.exact_lambda(sp.empty_digraph(11), [0, 1])[0] == 0
        assert sp.exact_lambda(sp.complete_bipartite_digraph(4, 4), [0, 4])[0] == 4

    def test_limit_override(self):
        host = sp.complete_bipartite_digraph(4, 4)  # 32 arcs
        assert sp.exact_lambda(host, [0, 4], WIDE)[0] == 4


class TestExactKappa:
    def test_single_two_cycle(self):
        d = sp.biorientation(2, [(0, 1)])
        assert sp.exact_kappa(d, [0, 1])[0] == 1

    def test_square_opposite_corners(self):
        d = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        value, packing = sp.exact_kappa(d, [0, 2])
        assert value == 2
        assert packing.mode == "internal"
        assert sp.verify_packing(packing).ok

    def test_kappa_at_most_lambda(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 6)
            pool = [(u, v) for u in range(n) for v in range(n) if u != v]
            rng.shuffle(pool)
            d = sp.Digraph(n, pool[:rng.randint(2, 10)])
            S = rng.sample(range(n), 2)
            assert sp.exact_kappa(d, S)[0] <= sp.exact_lambda(d, S)[0]

    def test_matches_disjoint_paths_on_symmetric_pairs(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(3, 6)
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.6}
            edges |= {(i, i + 1) for i in range(n - 1)}
            d = sp.biorientation(n, edges)
            u, v = rng.sample(range(n), 2)
            assert sp.exact_kappa(d, [u, v], WIDE)[0] == \
                max_disjoint_paths_undirected(d, u, v)


class TestStrongArcDecomposition:
    def test_complete_bipartite_has_one(self):
        flag, witness = sp.has_strong_arc_decomposition(sp.complete_bipartite_digraph(2, 2))
        assert flag
        a, b = witness
        host = sp.complete_bipartite_digraph(2, 2)
        assert a | b == host.arcs and not (a & b)

    def test_zero_vertices_are_refused_and_one_is_decomposed(self):
        with pytest.raises(PreconditionError, match="at least one vertex"):
            sp.has_strong_arc_decomposition(sp.Digraph(0, []))
        assert sp.has_strong_arc_decomposition(sp.Digraph(1, [])) == (
            True, (frozenset(), frozenset()))

    def test_cycle_has_none(self, c3):
        assert sp.has_strong_arc_decomposition(c3)[0] is False

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_exceptional_members_have_none(self, i):
        assert sp.has_strong_arc_decomposition(exceptional_member(i))[0] is False

    def test_witness_halves_are_spanning_strong(self):
        host = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        flag, (a, b) = sp.has_strong_arc_decomposition(host)
        assert flag
        for part in (a, b):
            p = sp.Packing(host, frozenset(range(4)), "arc", (part,))
            assert sp.verify_packing(p).ok

    @staticmethod
    def _count_calls(monkeypatch):
        """Count the max flows, of either capacity, and the verifies that
        ``exact`` runs."""
        calls = {"flow": 0, "verify": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for flow in ("min_arc_cut", "vertex_capacitated_connectivity"):
            monkeypatch.setattr(exact, flow, counted("flow", getattr(exact, flow)))
        monkeypatch.setattr(verify, "verify_packing", counted("verify", verify.verify_packing))
        return calls

    def test_a_false_host_stops_at_its_first_flow_below_two(self, monkeypatch):
        # the bioriented path 0-1-2-3: the greedy finds one part, and the
        # first flow, 0 -> 1, is already 1, so the other five flows are
        # skipped; the one-part packing leaves the driver through its verify
        calls = self._count_calls(monkeypatch)
        host = sp.biorientation(4, [(0, 1), (1, 2), (2, 3)])
        assert sp.has_strong_arc_decomposition(host) == (False, None)
        assert calls == {"flow": 1, "verify": 1}

    @pytest.mark.parametrize("solve", [sp.exact_lambda, sp.exact_kappa])
    def test_a_zero_answer_is_verified_and_runs_no_flow(self, monkeypatch, solve):
        # the directed path 0 -> 1 -> 2 has no 2 -> 0 path: the greedy finds
        # no part, which answers 0 with no flow, through the one verify
        calls = self._count_calls(monkeypatch)
        value, packing = solve(sp.Digraph(3, [(0, 1), (1, 2)]), [0, 2])
        assert (value, packing.parts) == (0, ())
        assert calls == {"flow": 0, "verify": 1}

    def test_a_host_with_no_spanning_strong_part_runs_no_flow(self, monkeypatch):
        # two disjoint 2-cycles: no 0 -> 2 path, so the greedy finds no part
        calls = self._count_calls(monkeypatch)
        host = sp.Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert sp.has_strong_arc_decomposition(host) == (False, None)
        assert calls == {"flow": 0, "verify": 1}

    def test_a_true_host_is_verified_once(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        assert sp.has_strong_arc_decomposition(sp.complete_bipartite_digraph(2, 3))[0]
        assert calls["verify"] == 1

    def test_witness_is_verified(self, monkeypatch):
        # a greedy "pair" that is no decomposition: the part {(0, 2)} is not
        # strong, so the driver's one verify refuses it
        monkeypatch.setattr(exact, "_greedy_parts",
                            lambda d, ts, internal=False, most=None: ({(0, 1)}, {(0, 2)}))
        with pytest.raises(StrongpackError, match="invalid packing"):
            sp.has_strong_arc_decomposition(sp.biorientation(3, [(0, 1), (1, 2), (2, 0)]))


class TestCuts:
    def test_cycle_cut_is_one(self, c3):
        cert = sp.min_strong_cut(c3, [0, 1, 2])
        assert cert.size == 1

    def test_complete_bipartite_cut(self, k23):
        assert sp.min_strong_cut(k23, range(5)).size == 2

    def test_bridge_in_symmetric_tree(self):
        tree = sp.biorientation(4, [(0, 1), (1, 2), (1, 3)])
        cert = sp.min_strong_cut(tree, [0, 2])
        assert cert.size == 1

    def test_witness_pair_is_disconnected(self, k23):
        cert = sp.min_strong_cut(k23, range(5))
        rest = sp.Digraph(k23.n, k23.arcs - cert.arcs)
        comps = sp.strong_components(rest)
        u, v = cert.witness
        cu = next(c for c in comps if u in c)
        assert v not in cu

    def test_matches_enumeration(self, c3, k23):
        assert min_strong_cut_exhaustive(c3, [0, 1, 2]) == 1
        assert min_strong_cut_exhaustive(k23, range(5)) == 2

    def test_rejects_non_strong(self):
        with pytest.raises(PreconditionError):
            sp.min_strong_cut(sp.directed_path(3), [0, 2])

    def test_steiner_cut_path(self):
        path = sp.biorientation(3, [(0, 1), (1, 2)])
        assert sp.steiner_cut_undirected(path, [0, 2]) == 1

    def test_steiner_cut_complete(self):
        k4 = sp.biorientation(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert sp.steiner_cut_undirected(k4, range(4)) == 3

    def test_steiner_cut_square(self):
        c4 = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert sp.steiner_cut_undirected(c4, [0, 2]) == 2

    def test_steiner_rejects_asymmetric(self, c3):
        with pytest.raises(PreconditionError):
            sp.steiner_cut_undirected(c3, [0, 1])

    def test_cut_relation_on_square(self):
        c4 = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        report = check_cut_relation(c4, [0, 2])
        assert report.c1 == 2 and report.holds

    def test_cut_relation_on_star(self):
        star = sp.biorientation(4, [(0, 1), (0, 2), (0, 3)])
        report = check_cut_relation(star, [1, 2])
        assert report.c1 == 1 and report.c2 <= 2 and report.holds


class TestBoundsAndWrappers:
    def test_lambda_bounded_by_cut(self, k23):
        lam = sp.exact_lambda(k23, range(5))[0]
        assert lam <= sp.min_strong_cut(k23, range(5)).size

    def test_lambda_bounded_by_terminal_degrees(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(3, 6)
            pool = [(u, v) for u in range(n) for v in range(n) if u != v]
            rng.shuffle(pool)
            d = sp.Digraph(n, pool[:rng.randint(3, 12)])
            S = rng.sample(range(n), rng.randint(2, n))
            assert sp.exact_lambda(d, S)[0] <= sp.terminal_semi_degree(d, S)

    def test_lambda_monotone_in_terminals(self):
        rng = random.Random(22)
        for _ in range(20):
            n = rng.randint(4, 6)
            pool = [(u, v) for u in range(n) for v in range(n) if u != v]
            rng.shuffle(pool)
            d = sp.Digraph(n, pool[:rng.randint(4, 12)])
            small = rng.sample(range(n), 2)
            extra = [v for v in range(n) if v not in small]
            big = small + rng.sample(extra, rng.randint(1, len(extra)))
            assert sp.exact_lambda(d, big)[0] <= sp.exact_lambda(d, small)[0]

    def test_lambda_k_on_complete_bipartite(self, k23):
        for k in range(2, 6):
            assert lambda_k(k23, k) == 2

    def test_lambda_k_bounded_by_min_semi_degree(self, k23):
        assert lambda_k(k23, 2) <= min_semi_degree(k23)

    def test_kappa_k_at_most_lambda_k(self, k23):
        assert kappa_k(k23, 3) <= lambda_k(k23, 3)

    def test_wrappers_reject_bad_k(self, c3):
        with pytest.raises(PreconditionError):
            lambda_k(c3, 1)
