import pytest

import strongpack as sp
from strongpack.digraph import as_terminals, underlying_connected
from strongpack.errors import GraphFormatError, PreconditionError

from conftest import traced_peak
from oracles import min_semi_degree, reverse


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(PreconditionError):
            sp.Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            sp.Digraph(2, [(0, 2)])

    def test_duplicate_arcs_collapse(self):
        d = sp.Digraph(2, [(0, 1), (0, 1)])
        assert d.m == 1

    def test_equality_and_hash(self):
        assert sp.Digraph(3, [(0, 1)]) == sp.Digraph(3, [(0, 1)])
        assert hash(sp.directed_cycle(3)) == hash(sp.directed_cycle(3))


class TestStrongComponents:
    def test_cycle_is_one_part(self, c3):
        assert sp.strong_components(c3) == [frozenset({0, 1, 2})]

    def test_path_is_singletons(self):
        assert sp.strong_components(sp.directed_path(3)) == [
            frozenset({0}), frozenset({1}), frozenset({2})]

    def test_two_cycle_plus_tail(self):
        d = sp.Digraph(3, [(0, 1), (1, 0), (1, 2)])
        assert sp.strong_components(d) == [frozenset({0, 1}), frozenset({2})]

    def test_partition_covers_vertices(self):
        d = sp.Digraph(6, [(0, 1), (1, 0), (2, 3), (4, 5), (5, 4), (3, 2)])
        parts = sp.strong_components(d)
        seen = sorted(v for p in parts for v in p)
        assert seen == list(range(6))

    def test_reads_each_component_from_its_lowest_vertex(self, monkeypatch):
        # 8,000 one-vertex components: the masks read into sets span O(n)
        # bits in all, not the O(n^2) of reading each from vertex 0
        from strongpack import digraph

        spans = []
        bits = digraph.bits
        monkeypatch.setattr(digraph, "bits",
                            lambda mask: spans.append(mask.bit_length()) or bits(mask))
        d = sp.read_digraph("8000 0\n")
        assert sp.strong_components(d) == [frozenset({v}) for v in range(8000)]
        assert sum(spans) <= 2 * d.n


class TestPredicates:
    def test_is_strong(self, c3):
        assert sp.is_strong(c3)
        assert sp.is_strong(sp.Digraph(1))
        assert not sp.is_strong(sp.Digraph(2, [(0, 1)]))

    def test_is_symmetric(self):
        assert sp.is_symmetric(sp.biorientation(2, [(0, 1)]))
        assert not sp.is_symmetric(sp.Digraph(2, [(0, 1)]))
        assert sp.is_symmetric(sp.biorientation(3, [(0, 1), (1, 2), (0, 2)]))

    def test_is_semicomplete(self):
        tt3 = sp.Digraph(3, [(0, 1), (0, 2), (1, 2)])
        assert sp.is_semicomplete(tt3)
        assert not sp.is_semicomplete(sp.empty_digraph(2))
        assert sp.is_semicomplete(sp.biorientation(2, [(0, 1)]))

    def test_is_eulerian(self, c3):
        assert sp.is_eulerian(c3)
        assert not sp.is_eulerian(sp.Digraph(2, [(0, 1)]))
        two_cycles = sp.Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not sp.is_eulerian(two_cycles)  # underlying graph disconnected

    def test_is_quasi_transitive(self, c3):
        assert sp.is_quasi_transitive(c3)
        assert not sp.is_quasi_transitive(sp.directed_path(3))
        tt3 = sp.Digraph(3, [(0, 1), (0, 2), (1, 2)])
        assert sp.is_quasi_transitive(tt3)  # semicomplete

    def test_min_semi_degree(self, c3, k23):
        assert min_semi_degree(c3) == 1
        assert min_semi_degree(k23) == 2
        assert min_semi_degree(sp.Digraph(1)) == 0

    def test_symmetric_connected_implies_eulerian(self):
        d = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert sp.is_symmetric(d) and underlying_connected(d)
        assert sp.is_eulerian(d)


class TestReversalInvariance:
    CASES = [
        sp.directed_cycle(4),
        sp.Digraph(3, [(0, 1), (0, 2), (1, 2)]),
        sp.biorientation(3, [(0, 1), (1, 2)]),
        sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 1)]),
    ]

    @pytest.mark.parametrize("d", CASES)
    def test_reverse_preserves_classes(self, d):
        r = reverse(d)
        assert sp.is_strong(r) == sp.is_strong(d)
        assert sp.is_semicomplete(r) == sp.is_semicomplete(d)
        assert sp.is_eulerian(r) == sp.is_eulerian(d)
        assert sp.is_quasi_transitive(r) == sp.is_quasi_transitive(d)


def _complete_digraph(n):
    full = (1 << n) - 1
    return sp.Digraph.from_masks(n, [full & ~(1 << u) for u in range(n)])


class TestTextFormat:
    def test_round_trip_is_bit_exact(self, strong_tournament4):
        text = sp.write_digraph(strong_tournament4)
        assert sp.write_digraph(sp.read_digraph(text)) == text

    @pytest.mark.parametrize("d", [sp.Digraph(0), sp.Digraph(3), sp.Digraph(4, [(2, 1), (0, 3)]),
                                   sp.Digraph(12, [(11, 0), (0, 11), (11, 3), (5, 11)])])
    def test_writer_gives_one_line_per_arc_by_tail_then_head(self, d):
        arcs = [f"{u} {v}\n" for u, v in sorted(d.arcs)]
        assert sp.write_digraph(d) == f"{d.n} {d.m}\n" + "".join(arcs)

    def test_reader_holds_one_slice_of_lines(self):
        """The lines of one slice are alive at a time, so reading a text of
        102,080 arcs peaks at under 3 times its length in traced allocations
        (a list of every line took about 9 times)."""
        d = _complete_digraph(320)
        text = sp.write_digraph(d)
        got, peak = traced_peak(lambda: sp.read_digraph(text))
        assert got == d and d.m > 100_000
        assert peak <= 3 * len(text)

    def test_writer_holds_one_string_per_tail(self):
        """Writing the same digraph peaks at under 3 times the text's length
        (a string for every arc took about 10 times)."""
        d = _complete_digraph(320)
        text, peak = traced_peak(lambda: sp.write_digraph(d))
        assert peak <= 3 * len(text)

    def test_comments_and_blanks_skipped(self):
        d = sp.read_digraph("# comment\n\n3 2\n0 1\n# another\n1 2\n")
        assert d == sp.Digraph(3, [(0, 1), (1, 2)])

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            sp.read_digraph("oops\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            sp.read_digraph("3 2\n0 1\n")

    def test_parse_error_carries_line(self):
        with pytest.raises(GraphFormatError) as err:
            sp.read_digraph("2 1\n0 x\n")
        assert "line 2" in str(err.value)


class TestTerminalSet:
    def test_needs_two(self, c3):
        with pytest.raises(PreconditionError, match="at least 2"):
            as_terminals(c3, [1, 1])

    def test_validates_against_host(self, c3):
        with pytest.raises(PreconditionError):
            sp.exact_lambda(c3, [0, 7])
