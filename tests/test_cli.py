import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import strongpack as sp
from strongpack import _core, _kernel, exact, flows
from strongpack import generators as gen
from strongpack.cli import main

from oracles import write_bipartite


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text)
    return str(path)


class TestAnalyze:
    def test_cycle_report(self, workdir, capsys):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["analyze", "--graph", g]) == 0
        out = capsys.readouterr().out
        assert "strong=True" in out
        assert "symmetric=False" in out
        assert "eulerian=True" in out
        assert "quasi_transitive=True" in out

    def test_bipartite_report(self, workdir, capsys):
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 2)))
        assert main(["analyze", "--graph", g]) == 0
        out = capsys.readouterr().out
        assert "symmetric=True" in out
        assert "semicomplete=False" in out
        assert "strong=True" in out
        assert "eulerian=True" in out
        # same-side vertices are non-adjacent yet joined by 2-paths
        assert "quasi_transitive=False" in out

    def test_parse_error_exit_code(self, workdir, capsys):
        g = write(workdir / "bad.dg", "gibberish\n")
        assert main(["analyze", "--graph", g]) == 3

    def test_large_sparse_host(self, workdir, capsys):
        # 8,000 vertices and no arc: the in-masks are built once, arc by arc,
        # not by transposing an 8000 x 8000 character matrix per predicate
        g = write(workdir / "e.dg", "8000 0\n")
        start = time.perf_counter()
        assert main(["analyze", "--graph", g]) == 0
        assert time.perf_counter() - start < 3
        assert capsys.readouterr().out.splitlines()[:2] == ["n=8000 m=0 scc=8000",
                                                            "strong=False"]

    @pytest.mark.parametrize("d", [sp.directed_cycle(40), sp.complete_bipartite_digraph(2, 3)],
                             ids=["sparse", "dense"])
    def test_one_transpose_per_op(self, workdir, capsys, monkeypatch, d):
        sizes = []
        transpose = _core._transpose
        monkeypatch.setattr(_core, "_transpose",
                            lambda n, out: sizes.append(n) or transpose(n, out))
        g = write(workdir / "d.dg", sp.write_digraph(d))
        assert main(["analyze", "--graph", g]) == 0
        assert sizes == [d.n]


class TestPackVerify:
    def test_composition_pack_then_verify(self, workdir, capsys):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(3) for _ in range(3)))
        comp = write(workdir / "q.comp", sp.write_composition(spec))
        host = write(workdir / "q.dg", sp.write_digraph(sp.compose(spec)))
        out = str(workdir / "q.pack")
        assert main(["pack", "--composition", comp, "--terminals", "0,4",
                     "--out", out]) == 0
        assert main(["verify", "--graph", host, "--terminals", "0,4", out]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bipartite_strategy(self, workdir):
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 5)))
        out = str(workdir / "k.pack")
        assert main(["pack", "--graph", g, "--terminals", "0,3",
                     "--strategy", "bipartite", "--out", out]) == 0
        text = (workdir / "k.pack").read_text()
        assert text.startswith("parts=2 mode=arc")

    def test_qt_strategy_on_graph_input(self, workdir):
        q = sp.compose(sp.CompositionSpec(
            sp.directed_cycle(3),
            (sp.empty_digraph(2), sp.empty_digraph(3), sp.empty_digraph(3))))
        g = write(workdir / "q.dg", sp.write_digraph(q))
        out = str(workdir / "q.pack")
        assert main(["pack", "--graph", g, "--terminals", "0,5",
                     "--strategy", "qt", "--out", out]) == 0
        loaded = sp.read_packing((workdir / "q.pack").read_text(), q, [0, 5])
        assert len(loaded.parts) == 2
        assert sp.verify_packing(loaded).ok

    def test_exceptional_composition_exits_2(self, workdir, capsys):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(2) for _ in range(3)))
        comp = write(workdir / "q0.comp", sp.write_composition(spec))
        assert main(["pack", "--composition", comp, "--terminals", "0,1"]) == 2
        assert "exceptional" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_self_check_failure_writes_nothing(self, workdir, capsys, monkeypatch, out):
        # parts built with no joins miss terminal 11, the last vertex of the
        # largest layer: the first part is refused as it passes, and no part
        # is written
        from strongpack import packing
        monkeypatch.setattr(packing, "_join", lambda arcs, j, layers, joins: None)
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(k) for k in (3, 4, 5)))
        comp = write(workdir / "q.comp", sp.write_composition(spec))
        target = workdir / "q.pack"
        argv = ["pack", "--composition", comp, "--terminals", "0,11"]
        assert main(argv + ["--out", str(target)] if out else argv) == 2
        assert capsys.readouterr() == ("", "error: constructed packing failed self-check: "
                                           "part is not a terminal-covering strong "
                                           "subgraph parts=(0,)\n")
        assert not target.exists()

    def test_n0_two_host_above_kernel_limit_packs(self, workdir, capsys):
        spec = sp.CompositionSpec(sp.directed_cycle(3), (
            sp.empty_digraph(2), sp.empty_digraph(32), sp.empty_digraph(32)))
        comp = write(workdir / "big.comp", sp.write_composition(spec))
        out = workdir / "big.pack"
        assert main(["pack", "--composition", comp, "--terminals", "0,1",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        host = sp.compose(spec)
        packing = sp.read_packing(out.read_text(), host, [0, 1])
        assert len(packing.parts) == 2
        assert sp.verify_packing(packing).ok

    def test_bipartite_auto_detection(self, workdir):
        for a, b in ((1, 1), (1, 4), (3, 3)):
            host = sp.complete_bipartite_digraph(a, b)
            g = write(workdir / "k.dg", sp.write_digraph(host))
            out = workdir / "k.pack"
            assert main(["pack", "--graph", g, "--terminals", "0,1",
                         "--out", str(out)]) == 0
            assert out.read_text().startswith(f"parts={a} mode=arc")

    def test_bipartite_larger_side_first_round_trip(self, workdir, capsys):
        g, out = str(workdir / "g.dg"), workdir / "g.pack"
        assert main(["gen", "bipartite", "--a", "3", "--b", "2", "--out", g]) == 0
        assert main(["pack", "--graph", g, "--terminals", "0,4", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        host = sp.complete_bipartite_digraph(3, 2)
        packing = sp.read_packing(out.read_text(), host, [0, 4])
        assert len(packing.parts) == 2
        assert sp.verify_packing(packing).ok
        assert all(packing.part_vertices(i) == frozenset(range(5)) for i in range(2))

    def test_bipartite_sides(self):
        # in the standard layout the co-components are the two sides, lowest
        # vertex first: the spec, and so the bytes, of ``pack_bipartite``
        d = sp.complete_bipartite_digraph(4, 2)
        spec = sp.canonical_decomposition_strong_qt(d)
        assert spec == sp.CompositionSpec(
            sp.directed_cycle(2), (sp.empty_digraph(4), sp.empty_digraph(2)), range(6))
        assert sp.write_packing(sp.pack_quasi_transitive(d, [0, 5])) \
            == sp.write_packing(sp.pack_bipartite(4, 2, [0, 5]))
        for no_sides in (sp.Digraph(1), sp.empty_digraph(3)):
            with pytest.raises(sp.PreconditionError):
                sp.canonical_decomposition_strong_qt(no_sides)

    @pytest.mark.parametrize("strategy", ["auto", "bipartite", "qt"])
    def test_bipartite_sides_found_once(self, workdir, monkeypatch, strategy):
        from strongpack import packing
        calls = []
        find = packing.canonical_decomposition_strong_qt
        monkeypatch.setattr(packing, "canonical_decomposition_strong_qt",
                            lambda d: calls.append(d) or find(d))
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert main(["pack", "--graph", g, "--terminals", "0,1", "--strategy", strategy,
                     "--out", str(workdir / "k.pack")]) == 0
        assert len(calls) == 1

    def test_near_bipartite_graph_is_not_detected(self, workdir, capsys):
        d = sp.complete_bipartite_digraph(2, 3)
        g = write(workdir / "k.dg", sp.write_digraph(sp.Digraph(5, d.arcs - {(4, 0)})))
        assert main(["pack", "--graph", g, "--terminals", "0,1",
                     "--strategy", "bipartite"]) == 2
        assert capsys.readouterr().err == ("precondition violated: digraph is not a "
                                           "composition: a co-component is not a module\n")

    @pytest.mark.parametrize("strategy", ["symmetric", "semicomplete"])
    def test_graph_refuses_a_composition_strategy(self, workdir, capsys, strategy):
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert main(["pack", "--graph", g, "--terminals", "0,1", "--strategy", strategy]) == 2
        assert capsys.readouterr().err == (f"precondition violated: strategy {strategy!r} "
                                           f"needs a composition input\n")

    def test_verify_flags_tampering(self, workdir, capsys):
        p = sp.pack_bipartite(2, 2)
        host = write(workdir / "h.dg", sp.write_digraph(p.host))
        text = sp.write_packing(p)
        lines = text.splitlines()
        lines[2] = lines[1]  # duplicate a part: arc-disjointness breaks
        bad = write(workdir / "bad.pack", "\n".join(lines) + "\n")
        assert main(["verify", "--graph", host, "--terminals", "0,2", bad]) == 2
        assert "arc-disjoint" in capsys.readouterr().out

    def test_verify_reports_an_empty_part(self, workdir, capsys):
        host = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        pack = write(workdir / "c3.pack", "parts=2 mode=arc\n-\n0>1 1>2 2>0\n")
        assert main(["verify", "--graph", host, "--terminals", "0,1,2", pack]) == 2
        assert capsys.readouterr().out == (
            "violation: part is not a terminal-covering strong subgraph "
            "parts=(0,) witness=None\n")


def co_components(d):
    """The connected components of the complement of the underlying graph,
    by networkx."""
    g = nx.Graph()
    g.add_nodes_from(range(d.n))
    g.add_edges_from(d.arcs)
    return list(nx.connected_components(nx.complement(g)))


def is_module(d, part):
    """Whether every vertex outside ``part`` sees all of it the same way."""
    return all(len({(d.has_arc(z, v), d.has_arc(v, z)) for v in part}) == 1
               for z in range(d.n) if z not in part)


def pack_graph(host, terminals):
    """``pack --graph`` on ``host`` in a fresh directory: exit code, stderr
    and the packing read back (None unless the exit is 0)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("h.dg").write_text(sp.write_digraph(host))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["pack", "--graph", "h.dg", "--terminals",
                         ",".join(map(str, terminals)), "--out", "h.pack"])
        packing = sp.read_packing(Path("h.pack").read_text(), host, terminals) \
            if code == 0 else None
    return code, err.getvalue(), packing


class TestPackGraph:
    """``pack --graph`` packs the composition a digraph's co-components
    form, whatever its vertex layout, or refuses it in one line."""

    @staticmethod
    def parts(host, terminals=(0, 1)):
        code, err, packing = pack_graph(host, list(terminals))
        assert (code, err) == (0, "")
        assert sp.verify_packing(packing).ok
        return len(packing.parts)

    def test_symmetric_composition_file(self, workdir):
        # the file's n0 is 2, but its co-components are a side of 6 vertices
        # and one of 3: 3 parts, which is exact lambda for S = V
        comp = str(workdir / "s.comp")
        assert main(["gen", "sym-comp", "--t", "4", "--max-inner", "3", "--seed", "2",
                     "--out", comp]) == 0
        spec = sp.read_composition(Path(comp).read_text())
        assert spec.n0 == 2
        assert self.parts(sp.compose(spec)) == 3

    def test_relabelled_complete_bipartite(self):
        perm = list(range(8))
        random.Random(5).shuffle(perm)
        host = sp.relabel(sp.complete_bipartite_digraph(3, 5), perm)
        assert host != sp.complete_bipartite_digraph(3, 5)
        assert self.parts(host) == 3

    def test_complete_tripartite(self):
        outer = sp.biorientation(3, [(0, 1), (1, 2), (0, 2)])
        host = sp.compose(sp.CompositionSpec(outer, [sp.empty_digraph(k) for k in (2, 3, 4)]))
        assert self.parts(host) == 2

    def test_strong_inner_that_is_not_quasi_transitive(self):
        host = sp.compose(sp.CompositionSpec(sp.directed_cycle(3), (
            sp.directed_cycle(5), sp.empty_digraph(3), sp.empty_digraph(4))))
        assert not sp.is_quasi_transitive(host)
        assert self.parts(host) == 3

    def test_directed_cycle_is_not_a_composition(self):
        code, err, _ = pack_graph(sp.directed_cycle(5), [0, 1])
        assert (code, err) == (2, "precondition violated: digraph is not a composition: "
                                  "the complement of its underlying graph is connected\n")

    @pytest.mark.parametrize("name", [name for name, _ in sp.EXCEPTIONAL_COMPOSITIONS])
    def test_exceptional_member_refused_in_one_line(self, name):
        member = dict(sp.EXCEPTIONAL_COMPOSITIONS)[name]
        perm = list(range(member.n))
        random.Random(name).shuffle(perm)
        code, err, _ = pack_graph(sp.relabel(member, perm), [0, 1])
        assert code == 2 and err.count("\n") == 1, err
        assert err.startswith(f"precondition violated: host is the exceptional "
                              f"composition '{name}' (vertex mapping "), err
        assert err.endswith("), which has no pair of arc-disjoint strong spanning "
                            "subgraphs\n"), err


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 6), st.sampled_from([3, 5, 8]), st.booleans(), st.randoms())
def test_graph_packs_the_co_component_composition(t, max_inner, symmetric, rng):
    spec = gen.random_composition(t, max_inner, rng, symmetric)
    perm = list(range(spec.n))
    rng.shuffle(perm)
    host = sp.relabel(sp.compose(spec), perm)
    terminals = sorted(rng.sample(range(host.n), min(host.n, 3)))
    code, err, packing = pack_graph(host, terminals)
    parts = co_components(host)
    composition = len(parts) > 1 and all(is_module(host, part) for part in parts)
    if code == 0:
        assert composition and err == ""
        assert sp.verify_packing(packing).ok
        assert len(packing.parts) == min(map(len, parts))
    else:
        assert code == 2 and err.count("\n") == 1, err
        assert ("exceptional composition" in err or "needs non-shift matchings" in err
                or "not a composition" in err and not composition), err


# H9: 9 vertices and 37 arcs, whose strong arc decomposition needs a
# search (the greedy finds 1 part against a cut bound of 2) of about 7
# million nodes, so it is only ever refused here
H9 = sp.Digraph(9, [(int(a), int(b)) for a, b in (
    "03 05 06 07 10 12 14 16 18 21 23 24 25 26 27 28 30 32 34 35 36 43 45 52 53 54 57 60 "
    "64 65 67 72 73 75 78 81 85").split()])


def complete_with_tail(k, tail, chords=()):
    """The complete digraph on 0..k-1, a bioriented path of ``tail`` more
    vertices hanging from 0, and ``chords``.  With terminals 0..k-1 the
    greedy falls short of the cut bound for k = 4 (2 parts against 3) and
    k = 7 (3 against 6), so lambda needs a search."""
    path = [0, *range(k, k + tail)]
    arcs = [(u, v) for u in range(k) for v in range(k) if u != v]
    arcs += [arc for a, b in zip(path, path[1:]) for arc in ((a, b), (b, a))]
    return sp.Digraph(k + tail, [*arcs, *chords])


def refused(what):
    return f"size limit: {what}; raise the limit explicitly to proceed\n"


class TestExact:
    def test_lambda_mode(self, workdir, capsys):
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert main(["exact", "--mode", "lambda", "--graph", g,
                     "--terminals", "0,2"]) == 0
        assert "value=2" in capsys.readouterr().out

    def test_kappa_mode(self, workdir, capsys):
        g = write(workdir / "sq.dg", sp.write_digraph(
            sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
        assert main(["exact", "--mode", "kappa", "--graph", g,
                     "--terminals", "0,2"]) == 0
        assert "value=2" in capsys.readouterr().out

    def test_sad_mode(self, workdir, capsys):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["exact", "--mode", "sad", "--graph", g]) == 0
        assert "strong_arc_decomposition=False" in capsys.readouterr().out

    def test_sad_mode_on_one_vertex_writes_empty_parts(self, workdir, capsys):
        g = write(workdir / "k1.dg", "1 0\n")
        out = workdir / "k1.pack"
        assert main(["exact", "--mode", "sad", "--graph", g, "--out", str(out)]) == 0
        assert out.read_text() == "parts=2 mode=arc\n-\n-\n"
        capsys.readouterr()
        # on a 1-vertex host the terminal set {0} is accepted and an empty
        # part holds the lone vertex, so the witness round-trips
        assert main(["verify", "--graph", g, "--terminals", "0", str(out)]) == 0
        assert capsys.readouterr().out == "ok parts=2 mode=arc\n"

    def test_sad_mode_on_zero_vertices_exits_2(self, workdir, capsys):
        # no terminal list names a vertex of the 0-vertex digraph, so no
        # witness written for it could be verified: it is refused
        g = write(workdir / "k0.dg", "0 0\n")
        assert main(["exact", "--mode", "sad", "--graph", g]) == 2
        assert capsys.readouterr() == ("", "precondition violated: strong arc "
                                           "decomposition needs at least one vertex\n")

    def test_cut_mode(self, workdir, capsys):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["exact", "--mode", "cut", "--graph", g,
                     "--terminals", "0,2"]) == 0
        assert "size=1" in capsys.readouterr().out

    def test_size_limit_exit_4(self, workdir, capsys):
        g = write(workdir / "h9.dg", sp.write_digraph(H9))
        assert main(["exact", "--mode", "sad", "--graph", g]) == 4
        assert capsys.readouterr().err == refused("37 arcs exceeds limit 26")

    @staticmethod
    def _cycle66(workdir):
        """The bioriented cycle through 0, 2, ..., 64, 65, 63, ..., 1."""
        order = [*range(0, 66, 2), *range(65, 0, -2)]
        cycle = list(zip(order, order[1:] + order[:1]))
        return write(workdir / "cyc66.dg", sp.write_digraph(sp.biorientation(66, cycle)))

    def test_search_above_64_vertices_exits_4(self, workdir, capsys):
        # sad's ascending greedy finds 1 part on the 66-cycle against a cut
        # bound of 2, so a search must run; the default limits refuse it,
        # and limits at the host's size let it answer, as nothing caps the
        # search at 64
        argv = ["exact", "--mode", "sad", "--graph", self._cycle66(workdir)]
        assert main(argv) == 4
        assert capsys.readouterr().err == refused("66 vertices exceeds limit 10")
        assert main([*argv, "--limit-n", "66", "--limit-m", "132"]) == 0
        assert capsys.readouterr().out.startswith("strong_arc_decomposition=True\n")

    def test_certified_kappa_above_64_vertices_answers(self, workdir, capsys):
        # with terminals 0 and 5 kappa's greedy takes the short side of the
        # 66-cycle, then the long side, and meets the cut bound of 2; the
        # default limits refuse every search on 66 vertices, and they are
        # checked before the kernel is imported, so none was
        argv = ["exact", "--mode", "kappa", "--graph", self._cycle66(workdir),
                "--terminals", "0,5"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("value=2\n")

    def test_uncertified_kappa_exits_4(self, workdir, capsys):
        # a random symmetric host (n = 11, m = 28, terminals 2 and 6) where
        # kappa's greedy finds 1 part against a bound of 2: the search must
        # run, so the default limits refuse it, and limits at the host's size
        # let it answer kappa = 2
        rng = random.Random(128)
        n = rng.randint(11, 13)
        d = gen.random_strong_symmetric(n, rng.randint(1, 4), rng)
        ts = sorted(rng.sample(range(n), 2))
        g = write(workdir / "sym11.dg", sp.write_digraph(d))
        argv = ["exact", "--mode", "kappa", "--graph", g, "--terminals", ",".join(map(str, ts))]
        assert main(argv) == 4
        assert capsys.readouterr().err == refused("11 vertices exceeds limit 10")
        assert main([*argv, "--limit-n", "11", "--limit-m", "28"]) == 0
        assert capsys.readouterr().out.startswith("value=2\n")

    def test_certified_sad_above_64_vertices_answers(self, workdir, capsys):
        # the greedy splits the plain bioriented 66-cycle into its two
        # directions, so no search runs
        cycle = [(i, (i + 1) % 66) for i in range(66)]
        g = write(workdir / "cyc66.dg", sp.write_digraph(sp.biorientation(66, cycle)))
        out = str(workdir / "sad.pack")
        assert main(["exact", "--mode", "sad", "--graph", g, "--limit-n", "100",
                     "--limit-m", "200", "--out", out]) == 0
        assert capsys.readouterr().out == "strong_arc_decomposition=True\n"
        assert main(["verify", "--graph", g, "--terminals", ",".join(map(str, range(66))),
                     out]) == 0
        assert capsys.readouterr().out == "ok parts=2 mode=arc\n"

    def test_certified_lambda_above_64_vertices_answers(self, workdir, capsys):
        # two greedy parts meet the terminal cut bound of 2, so no search runs
        cycle = [(i, (i + 1) % 66) for i in range(66)]
        g = write(workdir / "cyc66.dg", sp.write_digraph(sp.biorientation(66, cycle)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,5",
                     "--limit-n", "100", "--limit-m", "200"]) == 0
        assert "value=2" in capsys.readouterr().out

    def test_uncertified_lambda_above_64_vertices_exits_4(self, workdir, capsys):
        # K7 with terminals 1-6 and a bioriented tail from vertex 0: the
        # greedy finds 3 parts against a bound of 6, so the search must run
        g = write(workdir / "k7tail.dg", sp.write_digraph(complete_with_tail(7, 59)))
        assert main(["exact", "--mode", "lambda", "--graph", g,
                     "--terminals", "1,2,3,4,5,6"]) == 4
        assert capsys.readouterr().err == refused("66 vertices exceeds limit 10")

    def test_value_one_above_64_vertices_answers(self, workdir, capsys):
        # the bioriented path has terminal cut 1, so no search would run and
        # the 64-vertex refusal does not apply
        path = [(i, i + 1) for i in range(65)]
        g = write(workdir / "path66.dg", sp.write_digraph(sp.biorientation(66, path)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,5",
                     "--limit-n", "100", "--limit-m", "200"]) == 0
        assert "value=1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, what", [("--limit-n", "4 vertices exceeds limit 0"),
                                            ("--limit-m", "12 arcs exceeds limit 0")],
                             ids=["--limit-n", "--limit-m"])
    def test_zero_limit_refuses(self, workdir, capsys, flag, what):
        # a zero limit refuses every search: K*_4 with terminals 0-3 needs
        # one; C3's cut bound of 1 needs none, so it is answered
        k4 = write(workdir / "k4.dg", sp.write_digraph(complete_with_tail(4, 0)))
        assert main(["exact", "--mode", "lambda", "--graph", k4,
                     "--terminals", "0,1,2,3", flag, "0"]) == 4
        assert capsys.readouterr().err == refused(what)
        c3 = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["exact", "--mode", "lambda", "--graph", c3,
                     "--terminals", "0,1", flag, "0"]) == 0
        assert capsys.readouterr().out.startswith("value=1\n")

    def test_limit_override(self, workdir, capsys):
        g = write(workdir / "k44.dg", sp.write_digraph(sp.complete_bipartite_digraph(4, 4)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,4",
                     "--limit-m", "40"]) == 0
        assert "value=4" in capsys.readouterr().out

    def test_default_limits(self, workdir, capsys):
        # without --limit-n/--limit-m a search runs on at most 10 vertices
        # and 26 arcs: K*_4 with terminals 0-3 needs one, and its tail (with
        # chords) sets the size; C11 needs none, so it is answered
        hosts = [(complete_with_tail(4, 7), refused("11 vertices exceeds limit 10")),
                 (complete_with_tail(4, 6, [(4, 6), (5, 7), (6, 8)]),
                  refused("27 arcs exceeds limit 26")),
                 (complete_with_tail(4, 6, [(4, 6), (5, 7)]), "value=2\n"),
                 (sp.directed_cycle(11), "value=1\n")]
        for d, expected in hosts:
            g = write(workdir / "host.dg", sp.write_digraph(d))
            code = main(["exact", "--mode", "lambda", "--graph", g,
                         "--terminals", "0,1,2,3"])
            out, err = capsys.readouterr()
            if expected.startswith("size limit: "):
                assert (code, err) == (4, expected)
            else:
                assert code == 0 and out.startswith(expected)

    def test_k40_strong_arc_decomposition(self, workdir, capsys):
        # 1,560 arcs, one search level each
        arcs = [(u, v) for u in range(40) for v in range(40) if u != v]
        k40 = write(workdir / "k40.dg", sp.write_digraph(sp.Digraph(40, arcs)))
        out = str(workdir / "sad.pack")
        assert main(["exact", "--mode", "sad", "--graph", k40, "--limit-n", "64",
                     "--limit-m", "5000", "--out", out]) == 0
        captured = capsys.readouterr()
        assert captured.out == "strong_arc_decomposition=True\n"
        assert captured.err == ""
        host = sp.read_digraph((workdir / "k40.dg").read_text())
        packing = sp.read_packing((workdir / "sad.pack").read_text(), host, range(40))
        assert sp.verify_packing(packing)


class TestReduce:
    def test_hypergraph_with_sidecar(self, workdir):
        h = write(workdir / "h.hg", sp.write_hypergraph(sp.Hypergraph(2, [{0, 1}])))
        out = str(workdir / "h.dg")
        assert main(["reduce", "--from", "hypergraph", "--input", h,
                     "--ell", "3", "--out", out]) == 0
        gadget = sp.read_digraph((workdir / "h.dg").read_text())
        assert sp.is_symmetric(gadget)
        side = json.loads((workdir / "h.dg.provenance.json").read_text())
        assert side["ell"] == 3
        assert any(role == "root" for role in side["roles"].values())

    def test_linkage(self, workdir):
        d = sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        g = write(workdir / "e.dg", sp.write_digraph(d))
        out = str(workdir / "e.out")
        assert main(["reduce", "--from", "linkage", "--input", g,
                     "--endpoints", "0,1,2,3", "--k", "2", "--ell", "2",
                     "--out", out]) == 0
        gadget = sp.read_digraph((workdir / "e.out").read_text())
        assert sp.is_eulerian(gadget)

    def test_without_out_the_digraph_then_the_sidecar_on_stdout(self, workdir, capsys):
        h = write(workdir / "h.hg", sp.write_hypergraph(sp.Hypergraph(2, [{0, 1}])))
        argv = ["reduce", "--from", "hypergraph", "--input", h]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert main([*argv, "--out", str(workdir / "h.dg")]) == 0
        assert out == ((workdir / "h.dg").read_text()
                       + (workdir / "h.dg.provenance.json").read_text())

    def test_setcover_variants(self, workdir):
        g = write(workdir / "g.bp",
                  write_bipartite(sp.BipartiteGraph(2, 1, [(0, 0), (1, 0)])))
        for source in ("setcover-issp", "setcover-assp"):
            out = str(workdir / f"{source}.dg")
            assert main(["reduce", "--from", source, "--input", g,
                         "--out", out]) == 0


class TestGenAndSurvey:
    def test_gen_is_seed_deterministic(self, workdir):
        a = str(workdir / "a.comp")
        b = str(workdir / "b.comp")
        for out in (a, b):
            assert main(["gen", "sym-comp", "--seed", "7", "--t", "3",
                         "--out", out]) == 0
        assert (workdir / "a.comp").read_text() == (workdir / "b.comp").read_text()

    def test_gen_different_seeds_differ(self, workdir):
        main(["gen", "semi-comp", "--seed", "1", "--out", str(workdir / "a")])
        main(["gen", "semi-comp", "--seed", "2", "--out", str(workdir / "b")])
        assert (workdir / "a").read_text() != (workdir / "b").read_text()

    def test_gen_bipartite(self, workdir):
        assert main(["gen", "bipartite", "--a", "2", "--b", "4",
                     "--out", str(workdir / "k.dg")]) == 0
        d = sp.read_digraph((workdir / "k.dg").read_text())
        assert d == sp.complete_bipartite_digraph(2, 4)

    def test_gen_composition_passes_pack_preconditions(self, workdir):
        out = str(workdir / "s.comp")
        assert main(["gen", "sym-comp", "--seed", "5", "--t", "3",
                     "--out", out]) == 0
        spec = sp.read_composition((workdir / "s.comp").read_text())
        assert sp.is_symmetric(spec.outer) and sp.is_strong(spec.outer)

    def test_gen_eulerian_linkage(self, workdir):
        out = str(workdir / "e.dg")
        assert main(["gen", "eulerian-linkage", "--seed", "3", "--n", "6",
                     "--cycles", "2", "--out", out]) == 0
        d = sp.read_digraph((workdir / "e.dg").read_text())
        assert sp.is_eulerian(d)

    def test_survey_rows_satisfy_inequalities(self, workdir):
        out = str(workdir / "s.csv")
        assert main(["survey", "--family", "symmetric", "--seed", "11",
                     "--trials", "6", "--out", out]) == 0
        lines = (workdir / "s.csv").read_text().splitlines()
        assert lines[0].startswith("# strongpack survey v1")
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        assert rows
        for row in rows:
            if row["status"] != "ok":
                continue
            lam, c2, c1 = int(row["lambda_S"]), int(row["c2"]), int(row["c1"])
            assert lam <= c2 <= 2 * c1

    def test_survey_marks_oversize_rows(self, workdir):
        # of seed 2's eight hosts only row 2's lambda needs a search, and its
        # 5 vertices are above the limit of 4; rows above it that need no
        # search are answered
        out = str(workdir / "sk.csv")
        assert main(["survey", "--family", "symmetric", "--seed", "2",
                     "--trials", "8", "--limit-n", "4", "--out", out]) == 0
        lines = (workdir / "sk.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 8  # nothing silently dropped
        assert [r["instance"] for r in rows if r["status"] == "skipped"] == ["2"]
        assert rows[2]["n"] == "5" and rows[2]["lambda_S"] == ""
        assert [r["instance"] for r in rows if r["status"] == "ok" and int(r["n"]) > 4] == \
            ["1", "3", "5", "6"]

    def test_survey_composition_family(self, workdir):
        out = str(workdir / "sc.csv")
        assert main(["survey", "--family", "semi-comp", "--seed", "4",
                     "--trials", "4", "--limit-m", "40", "--out", out]) == 0
        lines = (workdir / "sc.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        for row in rows:
            if row["status"] != "ok":
                continue
            assert int(row["lambda_S"]) <= int(row["c2"])
            assert row["c1"] == ""  # undirected cut only defined on symmetric hosts

    def test_survey_default_limits(self, workdir):
        # seed 9's rows 2 and 4 need searches on 32 and 27 arcs; row 11's
        # 37 arcs need none
        argv = ["survey", "--family", "semi-comp", "--seed", "9", "--trials", "12", "--out"]
        assert main(argv + [str(workdir / "default.csv")]) == 0
        assert main(argv + [str(workdir / "given.csv"), "--limit-n", "10",
                            "--limit-m", "26"]) == 0
        text = (workdir / "default.csv").read_text()
        rows = list(csv.DictReader(text.splitlines()[1:]))
        assert [r["instance"] for r in rows if r["status"] == "skipped"] == ["2", "4"]
        assert (rows[11]["m"], rows[11]["status"]) == ("37", "ok")
        assert text == (workdir / "given.csv").read_text()

    # SHA-256 of the survey CSVs, recorded before exact_lambda tried a
    # greedy packing first: a witness may change, a value may not
    @pytest.mark.parametrize("family, seed, digest", [
        ("semi-comp", 11, "398152dfafe4d36660856a9c179f9f904518ad2b2a7105a57d5782176d3b27ca"),
        ("symmetric", 1, "96f844fd675b34dd9d913013e0d20963f74d43080c038277c31e51cf44e4e0aa"),
    ])
    def test_survey_bytes_are_pinned(self, workdir, family, seed, digest):
        out = workdir / "pinned.csv"
        assert main(["survey", "--family", family, "--trials", "60",
                     "--seed", str(seed), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(8))
    def test_symmetric_row_runs_one_half_scan(self, workdir, monkeypatch, seed):
        # lambda's bound, c2 and c1 share one scan of the k - 1 pairs (s, v)
        flows_run = []
        max_flow = flows._max_flow
        monkeypatch.setattr(flows, "_max_flow",
                            lambda out, s, t: flows_run.append((s, t)) or max_flow(out, s, t))
        exact._terminal_scan.cache_clear()
        out = workdir / "row.csv"
        assert main(["survey", "--trials", "1", "--seed", str(seed), "--out", str(out)]) == 0
        row = list(csv.DictReader(out.read_text().splitlines()[1:]))[0]
        assert row["status"] == "ok" and len(flows_run) == int(row["k"]) - 1

    def test_survey_zero_limit_skips_every_searched_row(self, workdir, monkeypatch):
        # a zero limit skips exactly the rows whose lambda needs a search,
        # and every other row is the one wide limits give
        searched = []
        search = _kernel.search_arc_disjoint
        monkeypatch.setattr(_kernel, "search_arc_disjoint",
                            lambda *args: searched.append(args) or search(*args))
        tables = {}
        for limit in ("0", "1000"):
            out = workdir / f"z{limit}.csv"
            searched.clear()
            assert main(["survey", "--seed", "2", "--trials", "3", "--limit-m", limit,
                         "--out", str(out)]) == 0
            tables[limit] = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert [args[3] for args in searched] == [2]  # row 2, at size 2
        assert [r["status"] for r in tables["0"]] == ["ok", "ok", "skipped"]
        assert tables["0"][:2] == tables["1000"][:2]
        assert tables["1000"][2]["status"] == "ok"


def refusal(argv, capsys):
    """Exit code and stderr of a command line that must be refused without
    a traceback; argparse refuses by raising SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


class TestRefusals:
    """Inputs that once ended in a traceback with exit 1."""

    def test_graph_is_a_directory_exits_3(self, workdir, capsys):
        code, err = refusal(["analyze", "--graph", str(workdir)], capsys)
        assert code == 3
        assert err.startswith("parse error: ") and err.count("\n") == 1

    def test_graph_not_utf8_exits_3(self, workdir, capsys):
        g = workdir / "bad.dg"
        g.write_bytes(b"\xff\xfe2 0\n")
        code, err = refusal(["analyze", "--graph", str(g)], capsys)
        assert code == 3
        assert err.startswith("parse error: ") and "UTF-8" in err
        assert err.count("\n") == 1

    def test_bipartite_non_integer_edge_exits_3(self, workdir, capsys):
        g = write(workdir / "g.bp", "2 1 2\n0 0\n1 x\n")
        code, err = refusal(["reduce", "--from", "setcover-issp", "--input", g], capsys)
        assert code == 3
        assert err == "parse error: line 3: edge fields must be integers\n"

    def test_linkage_needs_four_endpoints(self, workdir, capsys):
        g = write(workdir / "e.dg", sp.write_digraph(sp.directed_cycle(4)))
        code, err = refusal(["reduce", "--from", "linkage", "--input", g,
                             "--endpoints", "1,2"], capsys)
        assert code == 2
        assert err.startswith("precondition violated: ") and err.count("\n") == 1

    def test_linkage_endpoint_outside_the_input_exits_2(self, workdir, capsys):
        g = write(workdir / "e.dg", sp.write_digraph(sp.directed_cycle(6)))
        out = workdir / "gadget.dg"
        code, err = refusal(["reduce", "--from", "linkage", "--input", g,
                             "--endpoints", "0,1,2,6", "--out", str(out)], capsys)
        assert code == 2
        assert err == "precondition violated: path endpoint 6 is not a vertex of the input\n"
        assert not out.exists()

    def test_pack_needs_an_input(self, capsys):
        code, err = refusal(["pack", "--terminals", "0,1"], capsys)
        assert code == 2
        assert err.splitlines()[-1] == (
            "strongpack pack: error: one of the arguments --graph --composition is required")

    def test_pack_refuses_both_inputs(self, workdir, capsys):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        code, err = refusal(["pack", "--terminals", "0,1", "--graph", g,
                             "--composition", g], capsys)
        assert code == 2
        assert err.splitlines()[-1] == (
            "strongpack pack: error: argument --composition: not allowed with argument --graph")

    def test_out_is_a_directory_exits_2(self, workdir, capsys):
        code, err = refusal(["gen", "bipartite", "--seed", "1", "--out", str(workdir)],
                            capsys)
        assert code == 2
        assert err.startswith(f"precondition violated: cannot write {workdir}: ")
        assert err.count("\n") == 1

    def test_out_in_missing_directory_exits_2(self, workdir, capsys):
        out = workdir / "missing" / "x.dg"
        code, err = refusal(["gen", "bipartite", "--seed", "1", "--out", str(out)], capsys)
        assert code == 2
        assert err == (f"precondition violated: cannot write {out}: "
                       f"No such file or directory\n")

    def test_unwritable_provenance_sidecar_exits_2(self, workdir, capsys):
        h = write(workdir / "h.hg", sp.write_hypergraph(sp.Hypergraph(3, [{0, 1}, {1, 2}])))
        out = workdir / "g.dg"
        (workdir / "g.dg.provenance.json").mkdir()
        code, err = refusal(["reduce", "--from", "hypergraph", "--input", h,
                             "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("precondition violated: cannot write ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("source, text, expected", [
        ("hypergraph", "3 1\n0 5\n", (2, "precondition violated: hyperedge member out of range\n")),
        ("hypergraph", "3 0\n", (2, "precondition violated: need at least one hyperedge\n")),
        ("setcover-issp", "2 1 1\n0 0 1\n",
         (3, "parse error: line 2: expected edge line 'c_idx b_idx'\n")),
        ("setcover-assp", "2 2 2\n0 0\n", (3, "parse error: header promises 2 edges, found 1\n")),
    ], ids=["member-out-of-range", "no-hyperedge", "three-field-edge", "edge-missing"])
    def test_reduce_bad_input(self, workdir, capsys, source, text, expected):
        g = write(workdir / "in.txt", text)
        assert refusal(["reduce", "--from", source, "--input", g], capsys) == expected

    def test_linkage_needs_k_at_least_2(self, workdir, capsys):
        g = write(workdir / "e.dg", sp.write_digraph(sp.directed_cycle(4)))
        assert refusal(["reduce", "--from", "linkage", "--input", g, "--endpoints", "0,1,2,3",
                        "--k", "1"], capsys) == (
            2, "precondition violated: need k >= 2 and ell >= 2\n")

    @pytest.mark.parametrize("source", ["setcover-issp", "setcover-assp"])
    def test_bipartite_negative_side_exits_2(self, workdir, capsys, source):
        g = write(workdir / "g.bp", "-1 2 0\n")
        code, err = refusal(["reduce", "--from", source, "--input", g], capsys)
        assert code == 2
        assert err == "precondition violated: side sizes must be nonnegative\n"

    @pytest.mark.parametrize("argv", [
        ["gen", "hypergraph", "--n", "0"],
        ["gen", "eulerian-linkage", "--n", "2"],
        ["gen", "sym-comp", "--max-inner", "0"],
        ["gen", "semi-comp", "--max-inner", "0"],
        ["gen", "eulerian-linkage", "--cycles", "0"],  # no arc set can pass
        ["gen", "eulerian-linkage", "--cycles", "-1"],
        ["gen", "hypergraph", "--e", "-1"],
    ])
    def test_gen_bad_size_exits_2(self, capsys, argv):
        code, err = refusal(argv, capsys)
        assert code == 2
        assert err.startswith("precondition violated: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["sym-comp", "semi-comp"])
    def test_gen_composition_needs_an_inner_vertex(self, capsys, kind):
        # both families name the flag's own bound, not an option the CLI lacks
        assert refusal(["gen", kind, "--max-inner", "0"], capsys) == (
            2, "precondition violated: max_inner must be at least 1\n")

    @pytest.mark.parametrize("kind", ["sym-comp", "semi-comp"])
    @pytest.mark.parametrize("t", [-1, 0, 1])
    def test_gen_composition_needs_two_outer_vertices(self, capsys, kind, t):
        # refused before the outer digraph is built, so no internal check is named
        assert refusal(["gen", kind, "--t", str(t)], capsys) == (
            2, "precondition violated: outer digraph needs at least 2 vertices\n")

    def test_survey_negative_trials_exits_2(self, workdir, capsys):
        out = workdir / "s.csv"
        code, err = refusal(["survey", "--trials", "-3", "--out", str(out)], capsys)
        assert (code, err) == (2, "precondition violated: --trials must be nonnegative\n")
        assert not out.exists()


class TestDecompose:
    def test_outputs_r_lines(self, workdir):
        out = str(workdir / "d.txt")
        assert main(["decompose", "4", "3", "--out", out]) == 0
        lines = (workdir / "d.txt").read_text().splitlines()
        assert len(lines) == 3
        assert all(len(ln.split()) == 12 for ln in lines)

    def test_impossible_pair_exits_2(self, workdir, capsys):
        assert main(["decompose", "3", "2"]) == 2


class TestHelpBytes:
    """The help and usage bytes at 80 columns, pinned from before an op
    built only its own subcommand's arguments."""

    SHA256 = {
        (): "f7d82afcfd68d6da7dcf05372044b0aa3f28490ad3d62d4b33b1a80328f181a8",
        ("analyze",): "924a5ef5348bc2f09e6c2547eb97761724a029f3e1e6f2104816453641707438",
        ("pack",): "fd21bc7cd090eae68e0a555733bd959fb0d7d83ea9ddead5172ac08d7b5b4fb7",
        ("verify",): "18e60c5257a5f8f560e34cdbc1dce6bf8968a091a57bdc32a308be9615eaaad5",
        ("exact",): "76b94849ae11b3b246ba9e800c8a4e33a33cadbea5752d3c316a0e3df6040e5e",
        ("reduce",): "09cb6c07dcd043217d5ad087725653320840275e1f7eba9f4a56c98134514260",
        ("gen",): "14c26ed1a4af81e589ce73743dd57539ae2e3137d4ec09b3a811307d85cf7e85",
        ("survey",): "23a7bac319d49d7da4fad5eb5f963b7848e229f015e265ddf07c3c80ad565f72",
        ("decompose",): "2dbeb2243f9cff8da83fd85703904b1c496ccf66a2f995efb9bbf22cd019daec",
    }
    USAGE = ("usage: strongpack [-h] [--version]\n"
             "                  {analyze,pack,verify,exact,reduce,gen,survey,decompose} ...\n")

    @staticmethod
    def run(argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("command", sorted(SHA256), ids=lambda c: c[0] if c else "top")
    def test_help(self, command, monkeypatch, capsys):
        code, out, err = self.run([*command, "--help"], monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[command]

    def test_unknown_subcommand(self, monkeypatch, capsys):
        assert self.run(["bogus"], monkeypatch, capsys) == (2, "", self.USAGE + (
            "strongpack: error: argument command: invalid choice: 'bogus' (choose from "
            "'analyze', 'pack', 'verify', 'exact', 'reduce', 'gen', 'survey', "
            "'decompose')\n"))

    def test_missing_subcommand(self, monkeypatch, capsys):
        assert self.run([], monkeypatch, capsys) == (2, "", self.USAGE + (
            "strongpack: error: the following arguments are required: command\n"))


class TestImportFootprint:
    """Each subcommand loads only the package modules it runs, and none
    loads ``dataclasses`` (with ``inspect``, ``ast`` and ``dis`` behind it).
    A well-formed op loads no ``argparse`` (with ``gettext`` and ``locale``
    behind it): only help, the version and a usage error do."""

    ARGPARSE = {"argparse", "gettext", "locale"}

    @staticmethod
    def loaded(argv, workdir, expect="0"):
        """The package modules an op loads, plus ``dataclasses``,
        ``argparse``, ``gettext`` and ``locale`` if they are loaded."""
        code = ("import sys\n"
                "from strongpack.cli import main\n"
                "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n"
                "    code = exc.code\n"
                "print(code, *sorted(m for m in sys.modules if m.startswith('strongpack')\n"
                "                    or m in ('dataclasses', 'argparse', 'gettext', 'locale')))\n")
        src = str(Path(sp.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, cwd=workdir,
                             env={**os.environ, "PYTHONPATH": src})
        code, *modules = run.stdout.splitlines()[-1].split()
        assert code == expect
        return {m.removeprefix("strongpack.") for m in modules}

    def test_version(self, workdir):
        # no subcommand named: no subcommand's module, no library module;
        # argparse answers
        loaded = self.loaded(["--version"], workdir)
        assert "argparse" in loaded
        assert loaded - self.ARGPARSE == {"strongpack", "cli", "usage"}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--graph", "k.dg"],
        ["pack", "--graph", "k.dg", "--terminals", "0,2", "--out", "k.pack"],
        ["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
        ["exact", "--mode", "cut", "--graph", "k.dg", "--terminals", "0,2", "--limit-n", "9"],
        ["reduce", "--from", "linkage", "--input", "k.dg", "--endpoints", "0,1,2,3"],
        ["gen", "bipartite", "--a", "2", "--out", "g.dg"],
        ["survey", "--trials", "1", "--family", "semi-comp"],
        ["decompose", "3", "--out", "d.txt", "4"],
    ], ids=lambda argv: argv[0])
    def test_well_formed_op_loads_no_argparse(self, workdir, argv):
        d = sp.complete_bipartite_digraph(2, 3)
        write(workdir / "k.dg", sp.write_digraph(d))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))
        loaded = self.loaded(argv, workdir)
        assert f"commands.{argv[0]}" in loaded
        assert not loaded & (self.ARGPARSE | {"usage"})

    @pytest.mark.parametrize("argv, code", [
        (["--help"], "0"), (["pack", "--terminals", "0,1"], "2"), (["bogus"], "2"),
        (["pack", "--graph=k.dg", "--terminals", "0,1", "-h"], "0")],
        ids=["help", "usage-error", "misspelt", "pack-help"])
    def test_help_and_errors_load_argparse(self, workdir, argv, code):
        assert {"argparse", "usage"} <= self.loaded(argv, workdir, expect=code)

    def test_decompose(self, workdir):
        assert self.loaded(["decompose", "3", "4"], workdir) == {
            "strongpack", "cli", "errors", "commands", "commands.decompose",
            "_core", "digraph", "hamilton"}

    def test_pack_and_verify_load_no_solver(self, workdir, strong_tournament4):
        spec = sp.CompositionSpec(strong_tournament4, tuple(sp.empty_digraph(3) for _ in range(4)))
        write(workdir / "t.comp", sp.write_composition(spec))
        write(workdir / "t.dg", sp.write_digraph(sp.compose(spec)))
        for argv in (["pack", "--composition", "t.comp", "--terminals", "0,4", "--out", "t.pack"],
                     ["verify", "--graph", "t.dg", "--terminals", "0,4", "t.pack"]):
            assert not self.loaded(argv, workdir) & {
                "exact", "flows", "_kernel", "reductions", "generators", "dataclasses"}

    def test_exact_lambda(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        loaded = self.loaded(["exact", "--mode", "lambda", "--graph", "k.dg",
                              "--terminals", "0,2"], workdir)
        assert "exact" in loaded and "dataclasses" not in loaded

    @pytest.mark.parametrize("mode", ["lambda", "kappa", "sad", "cut"])
    def test_exact_loads_no_construction(self, workdir, mode):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        loaded = self.loaded(["exact", "--mode", mode, "--graph", "k.dg",
                              "--terminals", "0,2"], workdir)
        # only the modes that build a packing load the verifier
        assert ("verify" in loaded) == (mode != "cut")
        # the solvers run on the digraph core, without the class predicates
        assert "_core" in loaded and "digraph" not in loaded
        assert not loaded & {"packing", "hamilton", "composition"}
        # the kernel loads only for a search: the greedy meets the cut bound
        # 2 of lambda and kappa here, while sad's finds one part
        assert ("_kernel" in loaded) == (mode == "sad")

    def test_verify_loads_no_construction(self, workdir):
        d = sp.complete_bipartite_digraph(2, 3)
        write(workdir / "k.dg", sp.write_digraph(d))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))
        loaded = self.loaded(["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
                             workdir)
        assert "verify" in loaded and "_core" in loaded
        assert not loaded & {"packing", "hamilton", "composition", "digraph"}

    def test_survey_loads_no_construction(self, workdir):
        loaded = self.loaded(["survey", "--trials", "2", "--out", "s.csv"], workdir)
        assert "verify" in loaded
        # the symmetric family composes nothing
        assert not loaded & {"packing", "hamilton", "composition"}


class TestLinesLoaded:
    """A ceiling on the package source lines each kind of op loads.  With
    bytecode caching off, as under ``PYTHONDONTWRITEBYTECODE``, an op
    compiles every line it imports, so a change that makes an op load more
    code fails here rather than only in the benchmark.  Each ceiling is at
    or a little above the count measured: 243 lines for ``--version``,
    1,107 for a certified lambda, 951 for a cut, 1,574 for ``pack`` and
    730 for ``verify`` (541, 1,868, 1,868, 1,788 and 1,068 while ``cli``
    held every handler and ``exact`` imported the kernel up front; 300,
    1,290, 1,135, 1,614 and 850 while the solvers and the verifier loaded
    all of ``digraph`` and ``exact`` held the test oracles; 296, 1,124,
    969, 1,614 and 732 while the packers built their own joins and the
    package exported the gadget oracles and the lexicographic product;
    291, 1,119, 964, 1,599 and 727 while every op built its arguments with
    argparse, whose builder ``cli`` held; 254, 1,116, 961, 1,597 and 725
    while the export table had an alias form and ``cli`` printed each
    refusal in its own branch; 252, 1,115, 960, 1,596 and 724 while
    ``pack --graph`` had a bipartite layout check and a quasi-transitive
    gate, and ``digraph`` held ``min_semi_degree``; 252, 1,115, 960, 1,576
    and 724 while the digraph reader had only its row scanner and ``entry``
    printed the broken-pipe refusal itself; 243, 1,115, 959, 1,576 and
    724 while the digraph and composition readers each had a tight loop and
    a row-scanner path beside it; 243, 1,113, 957, 1,558 and 722 while
    ``SolverLimits.check`` held two raises; 243, 1,110, 954, 1,558 and 722
    while each composition packer decided the exceptional refusal, the
    n0 = 1 rule and the outer class itself; 243, 1,110, 954, 1,549 and 722
    while the exact driver had two step orders and a ``stop`` that widened
    part 1 for any terminal set; 243, 1,108, 952, 1,549 and 722 while kappa
    had its own size-1 rule and no greedy, and ``commands`` filled in the
    unset limit flags itself; 243, 1,095, 939, 1,541 and 714 while the
    exact driver had three exits, two of them past its verify; 243, 1,092,
    936, 1,541 and 714 while the digraph reader held every line of its text
    at once and the packers held each part twice; 243, 1,109, 953, 1,569
    and 731 while the packers worked out layer ids from the offsets and
    relabelled a given host's parts, the verifier built a mask table per
    part and the digraph reader also took a list of lines; 243, 1,106,
    952, 1,565 and 728 while the flows and the greedy each had their own
    shortest-path search; 243, 1,105, 951, 1,565 and 728 while ``pack``
    held every part until it wrote the packing; now 243, 1,107, 951, 1,574
    and 730)."""

    @staticmethod
    def lines(argv, workdir):
        code = ("import sys\n"
                "from strongpack.cli import main\n"
                "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n"
                "    code = exc.code\n"
                "files = [m.__file__ for name, m in sys.modules.items()\n"
                "         if name.split('.')[0] == 'strongpack']\n"
                "print(code, sum(len(open(f).read().splitlines()) for f in files))\n")
        src = str(Path(sp.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, cwd=workdir,
                             env={**os.environ, "PYTHONPATH": src})
        code, lines = run.stdout.splitlines()[-1].split()
        assert code == "0"
        return int(lines)

    def test_version(self, workdir):
        assert self.lines(["--version"], workdir) <= 243

    def test_certified_lambda(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert self.lines(["exact", "--mode", "lambda", "--graph", "k.dg",
                           "--terminals", "0,2"], workdir) <= 1107

    def test_cut(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert self.lines(["exact", "--mode", "cut", "--graph", "k.dg",
                           "--terminals", "0,2"], workdir) <= 951

    def test_pack_composition(self, workdir, strong_tournament4):
        spec = sp.CompositionSpec(strong_tournament4, tuple(sp.empty_digraph(3) for _ in range(4)))
        write(workdir / "t.comp", sp.write_composition(spec))
        assert self.lines(["pack", "--composition", "t.comp", "--terminals", "0,4",
                           "--out", "t.pack"], workdir) <= 1574

    def test_verify(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))
        assert self.lines(["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
                          workdir) <= 730


SRC = str(Path(sp.__file__).resolve().parents[1])
# the streams buffered, as for a user, so a missed flush would lose output
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": SRC, "COLUMNS": "80"}
PROGRAMS = [("-m", "strongpack.cli"), ("-m", "strongpack")]


class TestProcessEntry:
    """``python -m strongpack.cli`` and ``python -m strongpack`` end through
    ``cli.entry``, which skips interpreter teardown: each must still give
    the exit code, stdout, stderr and files that in-process ``main`` gives."""

    @staticmethod
    def launch(program, argv, workdir, **kw):
        run = subprocess.run([sys.executable, *program, *argv], capture_output=True,
                             cwd=workdir, env=ENV, **kw)
        return run.returncode, run.stdout.decode(), run.stderr.decode()

    @staticmethod
    def in_process(argv, workdir, monkeypatch, capsys):
        monkeypatch.chdir(workdir)
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.fixture
    def inputs(self, workdir, strong_tournament4):
        big = sp.CompositionSpec(strong_tournament4,
                                 tuple(sp.empty_digraph(50) for _ in range(4)))
        write(workdir / "big.comp", sp.write_composition(big))
        write(workdir / "q0.comp", sp.write_composition(sp.CompositionSpec(
            sp.directed_cycle(3), tuple(sp.empty_digraph(2) for _ in range(3)))))
        write(workdir / "bad.dg", "gibberish\n")
        write(workdir / "h9.dg", sp.write_digraph(H9))
        write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    @pytest.mark.parametrize("argv, code, last_err", [
        (["analyze", "--graph", "c3.dg"], 0, None),
        (["pack", "--composition", "q0.comp", "--terminals", "0,1"], 2,
         "precondition violated: "),
        (["analyze", "--graph", "bad.dg"], 3, "parse error: "),
        (["exact", "--mode", "sad", "--graph", "h9.dg"], 4,
         "size limit: "),
        (["--version"], 0, None),
        (["--help"], 0, None),
        (["pack", "--help"], 0, None),
        (["pack", "--terminals", "0,1"], 2, "strongpack pack: error: "),
        (["bogus"], 2, "strongpack: error: "),
    ], ids=["analyze", "exceptional", "parse", "limit", "version",
            "help", "pack-help", "usage", "unknown"])
    def test_same_as_main(self, program, argv, code, last_err, workdir, inputs,
                          monkeypatch, capsys):
        expected = self.in_process(argv, workdir, monkeypatch, capsys)
        err = expected[2]
        assert expected[0] == code
        assert err == "" if last_err is None else err.splitlines()[-1].startswith(last_err)
        assert self.launch(program, argv, workdir) == expected

    @pytest.mark.parametrize("argv", [
        ["analyze", "--graph", "huge.dg"],
        ["exact", "--mode", "lambda", "--graph", "huge.dg", "--terminals", "0,1"],
        ["verify", "--graph", "huge.dg", "--terminals", "0,1", "k.pack"],
        ["pack", "--graph", "huge.dg", "--terminals", "0,1"],
        ["pack", "--composition", "huge.comp", "--terminals", "0,1"],
    ], ids=["analyze", "exact", "verify", "pack-graph", "pack-composition"])
    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_huge_vertex_count_exits_4(self, argv, n, workdir, inputs):
        # a list of 10**15 masks exceeds the address space, so it fails before
        # any memory is taken, and 10**20 is no list index at all (a count such
        # as 10**9 could really be allocated)
        write(workdir / "huge.dg", f"{n} 0\n")
        write(workdir / "huge.comp", f"2\n{n} 0\n---\n1 0\n---\n1 0\n")
        code, out, err = self.launch(PROGRAMS[0], argv, workdir)
        assert (code, out) == (4, "") and err.count("\n") == 1
        assert err.startswith("size limit: ") and (n != 10**15 or err.endswith("out of memory\n"))

    @pytest.mark.parametrize("source, text, flags", [
        ("hypergraph", f"{10**15} 1\n0\n", []),
        ("hypergraph", "2 1\n0 1\n", ["--ell", str(10**15)]),
        ("linkage", "4 4\n0 1\n1 2\n2 3\n3 0\n", ["--endpoints", "0,1,2,3", "--k", str(10**15)]),
        ("setcover-issp", f"{10**15} 1 1\n0 0\n", []),
        ("setcover-issp", f"1 {10**15} 1\n0 0\n", []),
        ("setcover-assp", f"{10**15} 1 1\n0 0\n", []),
    ], ids=["hypergraph-n", "hypergraph-ell", "linkage-k", "issp-c", "issp-b", "assp-c"])
    def test_huge_gadget_exits_4_at_once(self, source, text, flags, workdir):
        # every gadget sizes its role table before any loop over its vertices,
        # so a count no list can hold fails there with nothing taken; under a
        # 256 MB address-space limit a loop that grew a set first would end
        # near that limit instead
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        write(workdir / "in.txt", text)
        with open(workdir / "out.txt", "w") as out, open(workdir / "err.txt", "w") as err:
            proc = subprocess.Popen([sys.executable, *PROGRAMS[0], "reduce", "--from", source,
                                     "--input", "in.txt", *flags], cwd=workdir, env=ENV,
                                    stdout=out, stderr=err, preexec_fn=limit)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 4 and (workdir / "out.txt").read_text() == ""
        assert (workdir / "err.txt").read_text() == "size limit: out of memory\n"
        assert usage.ru_maxrss < 100 * 1024  # kilobytes

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_large_stdout_equals_out_file(self, program, workdir, inputs,
                                          monkeypatch, capsys):
        argv = ["pack", "--composition", "big.comp", "--terminals", "0,4"]
        code, out, err = self.launch(program, argv, workdir)
        assert (code, err) == (0, "") and len(out.encode()) > 65536
        assert self.in_process(argv, workdir, monkeypatch, capsys) == (code, out, err)
        assert self.launch(program, [*argv, "--out", "big.pack"], workdir) == (0, "", "")
        assert (workdir / "big.pack").read_bytes() == out.encode()

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    @pytest.mark.parametrize("argv", [["gen", "bipartite", "--out", "k.dg"], ["--version"]],
                             ids=["gen-out", "version"])
    def test_stdout_closed_at_start(self, program, argv, workdir,
                                    monkeypatch, capsys):
        launched = self.launch(program, argv, workdir, preexec_fn=lambda: os.close(1))
        written = (workdir / "k.dg").read_bytes() if argv[0] == "gen" else None
        monkeypatch.setattr(sys, "stdout", None)
        assert launched == self.in_process(argv, workdir, monkeypatch, capsys)
        if written is not None:
            assert written == (workdir / "k.dg").read_bytes()

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_result_for_a_closed_stdout_is_refused(self, program, workdir,
                                                   monkeypatch, capsys):
        # a result bound for a stdout closed at start is a one-line refusal
        argv = ["gen", "bipartite", "--a", "2", "--b", "3"]
        launched = self.launch(program, argv, workdir, preexec_fn=lambda: os.close(1))
        assert launched == (2, "", "precondition violated: cannot write stdout\n")
        monkeypatch.setattr(sys, "stdout", None)
        assert self.in_process(argv, workdir, monkeypatch, capsys) == launched

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--graph", "c3.dg"],
        ["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
        *[["exact", "--mode", mode, "--graph", "k.dg", "--terminals", "0,2", "--out", "q.pack"]
          for mode in ("lambda", "kappa", "sad", "cut")],
    ], ids=["analyze", "verify", "lambda", "kappa", "sad", "cut"])
    def test_every_line_for_a_closed_stdout_is_refused(self, program, argv, workdir, inputs,
                                                       monkeypatch, capsys):
        # the report and verdict lines go through the same writer, and the
        # refusal comes before ``exact`` writes its ``--out`` file
        launched = self.launch(program, argv, workdir, preexec_fn=lambda: os.close(1))
        assert launched == (2, "", "precondition violated: cannot write stdout\n")
        monkeypatch.setattr(sys, "stdout", None)
        assert self.in_process(argv, workdir, monkeypatch, capsys) == launched
        assert not (workdir / "q.pack").exists()

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_refusal_for_a_closed_stderr_goes_nowhere(self, program, workdir,
                                                      monkeypatch, capsys):
        # ``print(file=None)`` writes to stdout: the line is dropped instead
        argv = ["analyze", "--graph", "missing.dg"]
        launched = self.launch(program, argv, workdir, preexec_fn=lambda: os.close(2))
        assert launched == (3, "", "")
        monkeypatch.setattr(sys, "stderr", None)
        assert self.in_process(argv, workdir, monkeypatch, capsys) == launched

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_refusal_for_an_unwritable_stderr_keeps_its_exit_code(self, program, workdir):
        # as after ``2</dev/null``: stderr is open but read-only, so writing
        # the line fails, and the refusal goes nowhere
        with open(os.devnull) as read_only:
            run = subprocess.run([sys.executable, *program, "analyze", "--graph", "missing.dg"],
                                 stdout=subprocess.PIPE, stderr=read_only, cwd=workdir, env=ENV)
        assert (run.returncode, run.stdout) == (3, b"")

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_reader_gone_with_stderr_closed(self, program, workdir, inputs):
        # the broken-pipe refusal has nowhere to go, and keeps its exit code
        read, written = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, *program, "analyze", "--graph", "c3.dg"],
                                 stdout=written, cwd=workdir, env=ENV,
                                 preexec_fn=lambda: os.close(2))
        finally:
            os.close(written)
        assert run.returncode == 2

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    @pytest.mark.parametrize("argv", [["analyze", "--graph", "c3.dg"], ["decompose", "40", "41"]],
                             ids=["flush", "write"])
    def test_reader_gone_with_stderr_unwritable(self, program, argv, workdir, inputs):
        # as ``... 2</dev/null | true``: the broken-pipe refusal goes through
        # the same guarded write as every other refusal, so it keeps exit 2
        read, written = os.pipe()
        os.close(read)
        try:
            with open(os.devnull) as read_only:
                run = subprocess.run([sys.executable, *program, *argv], stdout=written,
                                     stderr=read_only, cwd=workdir, env=ENV)
        finally:
            os.close(written)
        assert run.returncode == 2

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_reader_gone_while_writing(self, program, workdir, monkeypatch, capsys):
        # more than a pipe holds, so the write fails whenever the read end closes
        argv = ["decompose", "40", "41"]
        assert len(self.in_process(argv, workdir, monkeypatch, capsys)[1]) > 65536
        with subprocess.Popen([sys.executable, *program, *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, cwd=workdir, env=ENV) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (2, b"precondition violated: cannot write stdout\n")

    @pytest.mark.parametrize("program", PROGRAMS, ids=["cli", "package"])
    def test_reader_gone_before_the_flush(self, program, workdir, inputs):
        # a few buffered lines, which only the flush at the end writes
        read, written = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, *program, "analyze", "--graph", "c3.dg"],
                                 stdout=written, stderr=subprocess.PIPE, cwd=workdir, env=ENV)
        finally:
            os.close(written)
        assert (run.returncode, run.stderr) == (2, b"precondition violated: cannot write stdout\n")

    @pytest.mark.parametrize("module", ["strongpack.cli", "strongpack"])
    def test_exit_handlers_run(self, module, workdir):
        # the handler also shows that the op ran through ``entry``, which
        # leaves the cyclic collector off
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print('handler, gc on:', gc.isenabled()))\n"
                f"runpy.run_module({module!r}, run_name='__main__')\n")
        run = subprocess.run([sys.executable, "-c", code, "decompose", "4", "3"],
                             capture_output=True, text=True, cwd=workdir, env=ENV)
        assert (run.returncode, run.stderr) == (0, "")
        rows = run.stdout.splitlines()
        assert len(rows) == 4 and rows[-1] == "handler, gc on: False"
        assert all(len(row.split()) == 12 for row in rows[:-1])

    def test_script_runs_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(SRC).parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"strongpack": "strongpack.cli:entry"}


class TestCyclicGarbage:
    """``cli.entry`` runs an op with the cyclic collector off.  That frees
    nothing only if the cyclic garbage an op leaves does not grow with its
    input: the same op at two sizes must leave the same count."""

    @staticmethod
    def garbage(argv, workdir):
        code = ("import gc, sys\n"
                "gc.disable()\n"
                "from strongpack.cli import main\n"
                "print(main(sys.argv[1:]), gc.collect())\n")
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, cwd=workdir, env=ENV)
        code, count = run.stdout.split()
        assert code == "0"
        return int(count)

    @pytest.mark.parametrize("family", ["symmetric", "semi-comp"])
    def test_survey(self, workdir, family):
        small, large = (self.garbage(["survey", "--family", family, "--trials", str(trials),
                                      "--out", "s.csv"], workdir) for trials in (1, 200))
        assert small == large

    def test_pack(self, workdir, strong_tournament4):
        counts = []
        for size in (3, 50):  # 12 and 200 vertices
            spec = sp.CompositionSpec(strong_tournament4,
                                      tuple(sp.empty_digraph(size) for _ in range(4)))
            write(workdir / "t.comp", sp.write_composition(spec))
            counts.append(self.garbage(["pack", "--composition", "t.comp",
                                        "--terminals", "0,4", "--out", "t.pack"], workdir))
        assert counts[0] == counts[1]
