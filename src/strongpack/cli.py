"""Command-line interface.

Subcommands: analyze, pack, verify, exact, reduce, gen, survey and
decompose.  Each subcommand imports the modules it runs when it is
called, so an op loads only what it needs.  Exit codes: 0 success, 2
precondition violation, bad arguments or an unwritable output path, 3
parse error or an unreadable input file, 4 size-limit refusal.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (GraphFormatError, PreconditionError, SizeLimitError,
                     StrongpackError)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_LIMIT = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except OSError as exc:
        raise GraphFormatError(str(exc))


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}")


def _write_out(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _terminals(arg: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",") if x != ""]
    except ValueError:
        raise PreconditionError(f"bad terminal list {arg!r}")


def _limits(args):
    """The solver limits the flags ask for, each unset flag at its default."""
    from .exact import DEFAULT_LIMITS, SolverLimits

    return SolverLimits(
        DEFAULT_LIMITS.max_vertices if args.limit_n is None else args.limit_n,
        DEFAULT_LIMITS.max_arcs if args.limit_m is None else args.limit_m)


def cmd_analyze(args) -> int:
    from .digraph import (is_eulerian, is_quasi_transitive, is_semicomplete,
                          is_strong, is_symmetric, read_digraph, strong_components)

    d = read_digraph(_read(args.graph))
    comps = strong_components(d)
    print(f"n={d.n} m={d.m} scc={len(comps)}")
    print(f"strong={is_strong(d) if d.n else False}")
    print(f"symmetric={is_symmetric(d)}")
    print(f"semicomplete={is_semicomplete(d)}")
    print(f"eulerian={is_eulerian(d)}")
    print(f"quasi_transitive={is_quasi_transitive(d)}")
    return EXIT_OK


def cmd_pack(args) -> int:
    from . import packing as pk
    from .composition import read_composition
    from .digraph import is_symmetric, read_digraph

    terminals = _terminals(args.terminals)
    if args.composition:
        spec = read_composition(_read(args.composition))
        strategy = args.strategy
        if strategy == "auto":
            strategy = "symmetric" if is_symmetric(spec.outer) else "semicomplete"
        if strategy == "symmetric":
            packing = pk.pack_symmetric_composition(spec, terminals)
        elif strategy == "semicomplete":
            packing = pk.pack_semicomplete_composition(spec, terminals)
        else:
            raise PreconditionError(
                f"strategy {strategy!r} needs a plain graph input")
    else:
        d = read_digraph(_read(args.graph))
        strategy = args.strategy
        sides = _bipartite_sides(d) if strategy in ("auto", "bipartite") else None
        if strategy == "auto":
            strategy = "bipartite" if sides else "qt"
        if strategy == "bipartite":
            if sides is None:
                raise PreconditionError("graph is not a complete bipartite digraph")
            a, b = sides
            packing = pk.pack_bipartite(a, b, terminals)
        elif strategy == "qt":
            packing = pk.pack_quasi_transitive(d, terminals)
        else:
            raise PreconditionError(
                f"strategy {strategy!r} needs a composition input")
    _write_out(pk.write_packing(packing), args.out)
    return EXIT_OK


def _bipartite_sides(d):
    """(a, b) if the graph is exactly a complete bipartite digraph with the
    standard vertex layout, else None.  Vertex 0 lies on the first side,
    so its out-degree is the size b of the second."""
    from .digraph import complete_bipartite_digraph

    if d.n < 2:
        return None
    a = d.n - d.out_degree(0)
    if a < d.n and d == complete_bipartite_digraph(a, d.n - a):
        return a, d.n - a
    return None


def cmd_verify(args) -> int:
    from . import packing as pk
    from .digraph import read_digraph

    d = read_digraph(_read(args.graph))
    packing = pk.read_packing(_read(args.packing), d, _terminals(args.terminals))
    verdict = pk.verify_packing(packing)
    if verdict.ok:
        print(f"ok parts={len(packing.parts)} mode={packing.mode}")
        return EXIT_OK
    print(f"violation: {verdict.reason} parts={verdict.parts} witness={verdict.witness}")
    return EXIT_PRECONDITION


def cmd_exact(args) -> int:
    from . import exact as ex
    from . import packing as pk
    from .digraph import read_digraph

    d = read_digraph(_read(args.graph))
    limits = _limits(args)
    if args.mode in ("lambda", "kappa"):
        terminals = _terminals(args.terminals)
        fn = ex.exact_lambda if args.mode == "lambda" else ex.exact_kappa
        value, packing = fn(d, terminals, limits)
        print(f"value={value}")
        _write_out(pk.write_packing(packing), args.out)
    elif args.mode == "sad":
        flag, witness = ex.has_strong_arc_decomposition(d, limits)
        print(f"strong_arc_decomposition={flag}")
        if flag:
            packing = pk.Packing(d, frozenset(range(d.n)), pk.MODE_ARC, witness)
            _write_out(pk.write_packing(packing), args.out)
    elif args.mode == "cut":
        cert = ex.min_strong_cut(d, _terminals(args.terminals))
        print(f"size={cert.size} witness={cert.witness[0]},{cert.witness[1]}")
        _write_out(" ".join(f"{u}>{v}" for u, v in sorted(cert.arcs)) + "\n", args.out)
    else:
        raise PreconditionError(f"unknown mode {args.mode!r}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    import json

    from . import reductions as red
    from .digraph import read_digraph, write_digraph

    if args.source == "hypergraph":
        h = red.read_hypergraph(_read(args.input))
        out = red.hypergraph_gadget(h, args.ell)
    elif args.source == "linkage":
        d = read_digraph(_read(args.input))
        ends = _terminals(args.endpoints)
        if len(ends) != 4:
            raise PreconditionError("--endpoints needs exactly 4 ids s1,t1,s2,t2")
        out = red.linkage_gadget(d, *ends, args.k, args.ell)
    elif args.source == "setcover-issp":
        out = red.cover_packing_gadget_internal(red.read_bipartite(_read(args.input)))
    elif args.source == "setcover-assp":
        out = red.cover_packing_gadget_arc(red.read_bipartite(_read(args.input)))
    else:
        raise PreconditionError(f"unknown source {args.source!r}")
    _write_out(write_digraph(out.digraph), args.out)
    sidecar = {
        "terminals": sorted(out.terminals),
        "ell": out.ell,
        "roles": {str(v): role for v, role in sorted(out.provenance.items())},
    }
    side_text = json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_file(args.out + ".provenance.json", side_text)
    else:
        sys.stdout.write(side_text)
    return EXIT_OK


def cmd_gen(args) -> int:
    import random

    from . import generators as gen
    from .composition import write_composition
    from .digraph import write_digraph

    rng = random.Random(args.seed)
    if args.kind == "sym-comp":
        text = write_composition(gen.random_symmetric_composition(args.t, args.max_inner, rng))
    elif args.kind == "semi-comp":
        text = write_composition(gen.random_semicomplete_composition(args.t, args.max_inner, rng))
    elif args.kind == "bipartite":
        text = write_digraph(gen.random_bipartite_host(args.a, args.b))
    elif args.kind == "hypergraph":
        from .reductions import write_hypergraph

        text = write_hypergraph(gen.random_hypergraph(args.n, args.e, rng))
    elif args.kind == "eulerian-linkage":
        text = write_digraph(gen.random_eulerian(args.n, args.cycles, rng))
    else:
        raise PreconditionError(f"unknown kind {args.kind!r}")
    _write_out(text, args.out)
    return EXIT_OK


SURVEY_COLUMNS = ["instance", "n", "m", "k", "lambda_S", "c2", "c1", "status"]


def cmd_survey(args) -> int:
    import csv
    import io
    import random

    from . import exact as ex
    from . import generators as gen
    from .composition import compose

    rng = random.Random(args.seed)
    limits = _limits(args)
    buf = io.StringIO()
    buf.write("# strongpack survey v1: lambda_S <= c2 and, on symmetric hosts, c2 <= 2*c1\n")
    writer = csv.writer(buf)
    writer.writerow(SURVEY_COLUMNS)
    for i in range(args.trials):
        if args.family == "symmetric":
            n = rng.randint(4, 8)
            d = gen.random_strong_symmetric(n, rng.randint(0, 2), rng)
            symmetric = True
        elif args.family == "semi-comp":
            spec = gen.random_semicomplete_composition(rng.randint(2, 3), 3, rng)
            d = compose(spec)
            symmetric = False
        else:
            raise PreconditionError(f"unknown family {args.family!r}")
        k = rng.randint(2, max(2, min(4, d.n)))
        terminals = sorted(rng.sample(range(d.n), k))
        try:
            limits.check(d)
        except SizeLimitError:
            writer.writerow([i, d.n, d.m, k, "", "", "", "skipped"])
            continue
        lam = ex.exact_lambda(d, terminals, limits)[0]
        c2 = ex.min_strong_cut(d, terminals).size
        c1 = ex.steiner_cut_undirected(d, terminals) if symmetric else ""
        writer.writerow([i, d.n, d.m, k, lam, c2, c1, "ok"])
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .hamilton import decompose_cycle_blowup

    dec = decompose_cycle_blowup(args.t, args.r)
    lines = [" ".join(map(str, order)) for order in dec.orders()]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="strongpack",
        description="packings of arc-disjoint strong subgraphs in digraph "
                    "compositions, exact small-instance solvers, and "
                    "hardness-gadget generation")
    ap.add_argument("--version", action="version",
                    version=f"strongpack {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="digraph class report")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("pack", help="construct a packing")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--composition")
    p.add_argument("--terminals", required=True, help="comma-separated ids")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "bipartite", "symmetric", "semicomplete", "qt"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_pack)

    p = sub.add_parser("verify", help="check a packing file")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("packing")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("exact", help="exhaustive solvers")
    p.add_argument("--mode", required=True, choices=["lambda", "kappa", "sad", "cut"])
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", default="")
    p.add_argument("--limit-n", type=int, dest="limit_n")
    p.add_argument("--limit-m", type=int, dest="limit_m")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("reduce", help="generate a hardness gadget")
    p.add_argument("--from", dest="source", required=True,
                   choices=["hypergraph", "linkage", "setcover-issp", "setcover-assp"])
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--endpoints", default="", help="s1,t1,s2,t2 for linkage")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("gen", help="seeded random instances")
    p.add_argument("kind", choices=["sym-comp", "semi-comp", "bipartite",
                                    "hypergraph", "eulerian-linkage"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--max-inner", type=int, dest="max_inner", default=3)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=3)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--e", type=int, default=3)
    p.add_argument("--cycles", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("survey", help="CSV of packing and cut sizes")
    p.add_argument("--family", default="symmetric", choices=["symmetric", "semi-comp"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--limit-n", type=int, dest="limit_n")
    p.add_argument("--limit-m", type=int, dest="limit_m")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_survey)

    p = sub.add_parser("decompose", help="Hamiltonian decomposition of a cycle blow-up")
    p.add_argument("t", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decompose)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StrongpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
