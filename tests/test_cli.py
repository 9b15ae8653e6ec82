import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongpack as sp
from strongpack.cli import main


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

    def test_bipartite_sides(self):
        from strongpack.commands.pack import _bipartite_sides
        assert _bipartite_sides(sp.complete_bipartite_digraph(4, 2)) == (4, 2)
        assert _bipartite_sides(sp.Digraph(1)) is None
        assert _bipartite_sides(sp.empty_digraph(3)) is None
        assert _bipartite_sides(sp.biorientation(3, [(0, 1), (0, 2), (1, 2)])) is None

    @pytest.mark.parametrize("strategy", ["auto", "bipartite"])
    def test_bipartite_sides_found_once(self, workdir, monkeypatch, strategy):
        from strongpack.commands import pack
        calls = []
        sides = pack._bipartite_sides
        monkeypatch.setattr(pack, "_bipartite_sides", lambda d: calls.append(d) or sides(d))
        g = write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert main(["pack", "--graph", g, "--terminals", "0,1", "--strategy", strategy,
                     "--out", str(workdir / "k.pack")]) == 0
        assert len(calls) == 1

    def test_near_bipartite_graph_is_not_detected(self, workdir, capsys):
        d = sp.complete_bipartite_digraph(2, 3)
        g = write(workdir / "k.dg", sp.write_digraph(sp.Digraph(5, d.arcs - {(4, 0)})))
        assert main(["pack", "--graph", g, "--terminals", "0,1",
                     "--strategy", "bipartite"]) == 2
        assert "not a complete bipartite" in capsys.readouterr().err

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

    def test_cut_mode(self, workdir, capsys):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["exact", "--mode", "cut", "--graph", g,
                     "--terminals", "0,2"]) == 0
        assert "size=1" in capsys.readouterr().out

    def test_size_limit_exit_4(self, workdir):
        g = write(workdir / "big.dg", sp.write_digraph(sp.empty_digraph(30)))
        assert main(["exact", "--mode", "lambda", "--graph", g,
                     "--terminals", "0,1"]) == 4

    @pytest.mark.parametrize("mode", ["kappa", "sad"])
    def test_search_above_64_vertices_exits_4(self, workdir, capsys, mode):
        # the bioriented cycle through 0, 2, ..., 64, 65, 63, ..., 1: the
        # ascending greedy finds 1 part against a bound of 2, so the search
        # must run
        order = [*range(0, 66, 2), *range(65, 0, -2)]
        cycle = list(zip(order, order[1:] + order[:1]))
        g = write(workdir / "cyc66.dg", sp.write_digraph(sp.biorientation(66, cycle)))
        assert main(["exact", "--mode", mode, "--graph", g, "--terminals", "0,5",
                     "--limit-n", "100", "--limit-m", "200"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("size limit: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        arcs = [(u, v) for u in range(7) for v in range(7) if u != v]
        path = [0, *range(7, 66)]
        tail = [arc for a, b in zip(path, path[1:]) for arc in ((a, b), (b, a))]
        g = write(workdir / "k7tail.dg", sp.write_digraph(sp.Digraph(66, arcs + tail)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "1,2,3,4,5,6",
                     "--limit-n", "100", "--limit-m", "200"]) == 4
        assert capsys.readouterr().err == \
            "size limit: 66 vertices exceeds the exact search's limit of 64\n"

    def test_value_one_above_64_vertices_answers(self, workdir, capsys):
        # the bioriented path has terminal cut 1, so no search would run and
        # the 64-vertex refusal does not apply
        path = [(i, i + 1) for i in range(65)]
        g = write(workdir / "path66.dg", sp.write_digraph(sp.biorientation(66, path)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,5",
                     "--limit-n", "100", "--limit-m", "200"]) == 0
        assert "value=1" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--limit-n", "--limit-m"])
    def test_zero_limit_refuses(self, workdir, capsys, flag):
        g = write(workdir / "c3.dg", sp.write_digraph(sp.directed_cycle(3)))
        assert main(["exact", "--mode", "lambda", "--graph", g,
                     "--terminals", "0,1", flag, "0"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("size limit: ") and err.count("\n") == 1

    def test_limit_override(self, workdir, capsys):
        g = write(workdir / "k44.dg", sp.write_digraph(sp.complete_bipartite_digraph(4, 4)))
        assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,4",
                     "--limit-m", "40"]) == 0
        assert "value=4" in capsys.readouterr().out

    def test_default_limits(self, workdir, capsys):
        # without --limit-n/--limit-m the solver limits are 10 vertices, 26 arcs
        c11 = write(workdir / "c11.dg", sp.write_digraph(sp.directed_cycle(11)))
        arcs = [(u, v) for u in range(10) for v in range(10) if u != v][:27]
        d10 = write(workdir / "d10.dg", sp.write_digraph(sp.Digraph(10, arcs)))
        for g, what in ((c11, "11 vertices exceeds limit 10"), (d10, "27 arcs exceeds limit 26")):
            assert main(["exact", "--mode", "lambda", "--graph", g, "--terminals", "0,1"]) == 4
            assert capsys.readouterr().err == \
                f"size limit: {what}; raise the limit explicitly to proceed\n"

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

    def test_setcover_variants(self, workdir):
        g = write(workdir / "g.bp",
                  sp.write_bipartite(sp.BipartiteGraph(2, 1, [(0, 0), (1, 0)])))
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
        out = str(workdir / "sk.csv")
        assert main(["survey", "--family", "symmetric", "--seed", "42",
                     "--trials", "8", "--limit-n", "4", "--out", out]) == 0
        lines = (workdir / "sk.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 8  # nothing silently dropped
        assert any(r["status"] == "skipped" for r in rows)

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
        argv = ["survey", "--family", "semi-comp", "--seed", "1", "--trials", "6", "--out"]
        assert main(argv + [str(workdir / "default.csv")]) == 0
        assert main(argv + [str(workdir / "given.csv"), "--limit-n", "10",
                            "--limit-m", "26"]) == 0
        text = (workdir / "default.csv").read_text()
        assert "skipped" in text and ",ok" in text
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

    def test_survey_zero_limit_skips_every_row(self, workdir):
        out = str(workdir / "z.csv")
        assert main(["survey", "--trials", "3", "--limit-m", "0", "--out", out]) == 0
        lines = (workdir / "z.csv").read_text().splitlines()
        header = lines[1].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 3
        assert all(r["status"] == "skipped" for r in rows)


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
    ])
    def test_gen_bad_size_exits_2(self, capsys, argv):
        code, err = refusal(argv, capsys)
        assert code == 2
        assert err.startswith("precondition violated: ") and err.count("\n") == 1

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
    loads ``dataclasses`` (with ``inspect``, ``ast`` and ``dis`` behind it)."""

    @staticmethod
    def loaded(argv, workdir):
        """The package modules an op loads, plus ``dataclasses`` if it is loaded."""
        code = ("import sys\n"
                "from strongpack.cli import main\n"
                "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n"
                "    code = exc.code\n"
                "print(code, *sorted(m for m in sys.modules\n"
                "                    if m.startswith('strongpack') or m == 'dataclasses'))\n")
        src = str(Path(sp.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, cwd=workdir,
                             env={**os.environ, "PYTHONPATH": src})
        code, *modules = run.stdout.splitlines()[-1].split()
        assert code == "0"
        return {m.removeprefix("strongpack.") for m in modules}

    def test_version(self, workdir):
        # no subcommand named: no subcommand's module, no library module
        assert self.loaded(["--version"], workdir) == {
            "strongpack", "cli", "errors", "commands"}

    def test_decompose(self, workdir):
        assert self.loaded(["decompose", "3", "4"], workdir) == {
            "strongpack", "cli", "errors", "commands", "commands.decompose",
            "digraph", "hamilton"}

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
        assert not loaded & {"packing", "hamilton", "composition"}
        # the kernel loads only for a search: the greedy meets lambda's cut
        # bound 2 here, while kappa has no greedy and sad's finds one part
        assert ("_kernel" in loaded) == (mode in ("kappa", "sad"))

    def test_verify_loads_no_construction(self, workdir):
        d = sp.complete_bipartite_digraph(2, 3)
        write(workdir / "k.dg", sp.write_digraph(d))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))
        loaded = self.loaded(["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
                             workdir)
        assert "verify" in loaded
        assert not loaded & {"packing", "hamilton", "composition"}

    def test_survey_loads_no_construction(self, workdir):
        loaded = self.loaded(["survey", "--trials", "2", "--out", "s.csv"], workdir)
        assert "verify" in loaded
        # the symmetric family composes nothing
        assert not loaded & {"packing", "hamilton", "composition"}


class TestLinesLoaded:
    """A ceiling on the package source lines each kind of op loads.  With
    bytecode caching off, as under ``PYTHONDONTWRITEBYTECODE``, an op
    compiles every line it imports, so a change that makes an op load more
    code fails here rather than only in the benchmark.  Each ceiling is a
    little above the count measured: 284 lines for ``--version``,
    1,274 for a certified lambda, 1,119 for a cut, 1,598 for ``pack`` and
    834 for ``verify`` (541, 1,868, 1,868, 1,788 and 1,068 while ``cli``
    held every handler and ``exact`` imported the kernel up front)."""

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
        assert self.lines(["--version"], workdir) <= 300

    def test_certified_lambda(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert self.lines(["exact", "--mode", "lambda", "--graph", "k.dg",
                           "--terminals", "0,2"], workdir) <= 1350

    def test_cut(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        assert self.lines(["exact", "--mode", "cut", "--graph", "k.dg",
                           "--terminals", "0,2"], workdir) <= 1135

    def test_pack_composition(self, workdir, strong_tournament4):
        spec = sp.CompositionSpec(strong_tournament4, tuple(sp.empty_digraph(3) for _ in range(4)))
        write(workdir / "t.comp", sp.write_composition(spec))
        assert self.lines(["pack", "--composition", "t.comp", "--terminals", "0,4",
                           "--out", "t.pack"], workdir) <= 1680

    def test_verify(self, workdir):
        write(workdir / "k.dg", sp.write_digraph(sp.complete_bipartite_digraph(2, 3)))
        write(workdir / "k.pack", sp.write_packing(sp.pack_bipartite(2, 3, [0, 2])))
        assert self.lines(["verify", "--graph", "k.dg", "--terminals", "0,2", "k.pack"],
                          workdir) <= 880
