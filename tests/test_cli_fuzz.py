"""A fuzz property of the command line: ops drawn from a small argv grammar
over the eight subcommands, with drawn input files, run in process through
``cli.main``.  Every op ends with a documented exit code (0, 2, 3 or 4, or
argparse's 2 for bad arguments) and never with an exception, and every
packing an op writes on exit 0 verifies on its host."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack.cli import main

from oracles import write_bipartite

pytestmark = pytest.mark.filterwarnings("ignore::hypothesis.errors.NonInteractiveExampleWarning")

# texts no reader accepts, or accepts only to refuse what they hold
GARBAGE = ["", "gibberish\n", "3 1\n0 5\n", "2 2\n0 1\n0 1\n", "-1 0\n", "2 1\n0 x\n",
           "parts=1 mode=arc\n0>1\n", "parts=2 mode=glue\n-\n-\n", "1 0\n", "0 0\n"]
SMALL = st.integers(min_value=-1, max_value=6)


@composite
def digraphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [(u, v) for u in range(n) for v in range(n) if u != v]
    return sp.Digraph(n, draw(st.lists(st.sampled_from(pool), max_size=12)) if pool else [])


@composite
def outers(draw, symmetric):
    """A symmetric outer digraph (a path plus drawn edges, both ways) or a
    semicomplete one (each pair one way or both, over a Hamiltonian cycle);
    either is strong unless a drawn coin drops the path or the cycle."""
    t = draw(st.integers(min_value=2, max_value=4))
    pairs = [(u, v) for u in range(t) for v in range(u + 1, t)]
    strong = draw(st.integers(0, 9)) > 0
    if symmetric:
        edges = {(i, i + 1) for i in range(t - 1) if strong}
        return sp.biorientation(t, edges | set(draw(st.lists(st.sampled_from(pairs)))))
    arcs = [arc for u, v in pairs
            for arc in draw(st.sampled_from([[(u, v)], [(v, u)], [(u, v), (v, u)]]))]
    return sp.Digraph(t, arcs + [(i, (i + 1) % t) for i in range(t) if strong])


@composite
def specs(draw, symmetric):
    outer = draw(outers(symmetric))
    return sp.CompositionSpec(outer, [draw(digraphs(max_n=4)) for _ in range(outer.n)])


@composite
def graph_texts(draw):
    """A host for ``--graph``: a complete bipartite digraph (either side the
    larger), a composed symmetric or semicomplete composition, any small
    digraph, or text no host reads from."""
    kind = draw(st.sampled_from(["bipartite", "symmetric", "semicomplete", "any", "garbage"]))
    if kind == "bipartite":
        return sp.write_digraph(sp.complete_bipartite_digraph(
            draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    if kind in ("symmetric", "semicomplete"):
        return sp.write_digraph(sp.compose(draw(specs(kind == "symmetric"))))
    if kind == "any":
        return sp.write_digraph(draw(digraphs()))
    return draw(st.sampled_from(GARBAGE))


@composite
def terminal_lists(draw):
    ids = draw(st.lists(st.integers(min_value=-1, max_value=9), max_size=4))
    return draw(st.sampled_from(["0,1", "0,2", "1,2,3", "0,1,3", ",".join(map(str, ids)),
                                 "0,x", ""]))


@composite
def runs(draw):
    """(argv, files): one op and the text of each input file it names, by a
    path relative to the working directory.  A name with no text names a
    file that does not exist."""
    files = {}

    def given_file(name, texts):
        if draw(st.integers(0, 19)):
            files[name] = draw(texts)
        return name

    def out(name):
        return ["--out", name] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["analyze", "pack", "verify", "exact", "reduce", "gen",
                                    "survey", "decompose", "--version", "bogus"]))
    if command == "analyze":
        argv = ["analyze", "--graph", given_file("g.dg", graph_texts())]
    elif command == "pack":
        kind = draw(st.sampled_from(["symmetric", "semicomplete", "graph"]))
        if kind == "graph":
            source = ["--graph", given_file("g.dg", graph_texts())]
        else:
            texts = specs(kind == "symmetric").map(sp.write_composition)
            if not draw(st.integers(0, 9)):
                texts = st.sampled_from(GARBAGE)
            source = ["--composition", given_file("g.comp", texts)]
        strategy = draw(st.sampled_from(
            [[], [], [], ["--strategy", "auto"], ["--strategy", "bipartite"],
             ["--strategy", "symmetric"], ["--strategy", "semicomplete"],
             ["--strategy", "qt"], ["--strategy", "greedy"]]))
        argv = ["pack", *source, "--terminals", draw(terminal_lists()), *strategy,
                *out("p.pack")]
    elif command == "verify":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        files["g.dg"] = sp.write_digraph(sp.complete_bipartite_digraph(a, b))
        packing = sp.write_packing(sp.pack_bipartite(a, b))
        argv = ["verify", "--graph", "g.dg", "--terminals", draw(terminal_lists()),
                given_file("p.pack", st.sampled_from([packing, packing.replace("0>", "1>", 1),
                                                      *GARBAGE]))]
    elif command == "exact":
        argv = ["exact", "--mode", draw(st.sampled_from(["lambda", "kappa", "sad", "cut"])),
                "--graph", given_file("g.dg", graph_texts()),
                "--terminals", draw(terminal_lists()), *out("x.out")]
        if draw(st.booleans()):
            argv += ["--limit-n", str(draw(st.integers(-1, 8))),
                     "--limit-m", str(draw(st.integers(-1, 20)))]
    elif command == "reduce":
        source = draw(st.sampled_from(["hypergraph", "linkage", "setcover-issp",
                                       "setcover-assp"]))
        if source == "hypergraph":
            texts = st.sampled_from(["3 2\n0 1\n1 2\n", "2 1\n0 1\n", "4 1\n0 1 2 3\n",
                                     "1 1\n0\n", *GARBAGE])
        elif source == "linkage":
            texts = graph_texts()
        else:
            texts = st.sampled_from([
                write_bipartite(sp.BipartiteGraph(2, 2, [(0, 0), (1, 1)])),
                write_bipartite(sp.BipartiteGraph(2, 1, [(0, 0)])), "2 0 0\n", *GARBAGE])
        argv = ["reduce", "--from", source, "--input", given_file("r.in", texts),
                "--ell", str(draw(SMALL)), "--k", str(draw(SMALL)), *out("r.dg")]
        if source == "linkage":
            argv += ["--endpoints", draw(terminal_lists())]
    elif command == "gen":
        kind = draw(st.sampled_from(["sym-comp", "semi-comp", "bipartite", "hypergraph",
                                     "eulerian-linkage"]))
        flags = draw(st.lists(st.sampled_from(["--seed", "--t", "--max-inner", "--a", "--b",
                                               "--n", "--e", "--cycles"]),
                              max_size=3, unique=True))
        argv = ["gen", kind, *[x for flag in flags for x in (flag, str(draw(SMALL)))],
                *out("gen.out")]
    elif command == "survey":
        argv = ["survey", "--family", draw(st.sampled_from(["symmetric", "semi-comp"])),
                "--seed", str(draw(st.integers(0, 99))),
                "--trials", str(draw(st.integers(-1, 3))), *out("s.csv")]
    elif command == "decompose":
        argv = ["decompose", str(draw(st.integers(-1, 7))), str(draw(st.integers(-1, 12))),
                *out("d.out")]
    else:
        argv = [command]
    return argv, files


def _written_packing(argv, stdout):
    """The host, terminals and text of the packing a successful op wrote,
    to its ``--out`` file or to stdout, or None for an op that writes none."""
    op = argv[0]
    if not (op == "pack" or op == "exact" and argv[2] in ("lambda", "kappa", "sad")) \
            or stdout == "strong_arc_decomposition=False\n":
        return None
    if "--out" in argv:
        text = Path(argv[argv.index("--out") + 1]).read_text()
    else:  # exact prints its value first
        text = stdout if op == "pack" else stdout.split("\n", 1)[1]
    source = argv[1] if op == "pack" else "--graph"
    read = sp.read_digraph if source == "--graph" else (
        lambda text: sp.compose(sp.read_composition(text)))
    host = read(Path(argv[argv.index(source) + 1]).read_text())
    if op == "exact" and argv[2] == "sad":
        return host, range(host.n), text
    return host, [int(x) for x in argv[argv.index("--terminals") + 1].split(",") if x], text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(runs())
def test_every_op_ends_with_a_documented_exit(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a bad argument, --help or --version
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        event(f"{argv[0]} exit {code}")  # the mix, under --hypothesis-show-statistics
        written = _written_packing(argv, out.getvalue()) if code == 0 else None
        if written:
            host, terminals, text = written
            assert sp.verify_packing(sp.read_packing(text, host, terminals)).ok, argv
