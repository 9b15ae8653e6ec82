"""``strongpack exact``: the exhaustive solvers (lambda, kappa, strong arc
decomposition) and the minimum strong cut."""

from . import EXIT_OK, _limits, _read, _terminals, _write_out


def add_arguments(p) -> None:
    p.add_argument("--mode", required=True, choices=["lambda", "kappa", "sad", "cut"])
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", default="")
    p.add_argument("--limit-n", type=int, dest="limit_n")
    p.add_argument("--limit-m", type=int, dest="limit_m")
    p.add_argument("--out")


def run(args) -> int:
    from .. import digraph as dg
    from .. import exact as ex

    d = dg.read_digraph(_read(args.graph))
    limits = _limits(args)
    if args.mode in ("lambda", "kappa"):
        from .. import verify as vf

        terminals = _terminals(args.terminals)
        fn = ex.exact_lambda if args.mode == "lambda" else ex.exact_kappa
        value, packing = fn(d, terminals, limits)
        print(f"value={value}")
        _write_out(vf.write_packing(packing), args.out)
    elif args.mode == "sad":
        flag, witness = ex.has_strong_arc_decomposition(d, limits)
        print(f"strong_arc_decomposition={flag}")
        if flag:
            from .. import verify as vf

            packing = vf.Packing(d, frozenset(range(d.n)), vf.MODE_ARC, witness)
            _write_out(vf.write_packing(packing), args.out)
    else:  # cut
        cert = ex.min_strong_cut(d, _terminals(args.terminals))
        print(f"size={cert.size} witness={cert.witness[0]},{cert.witness[1]}")
        _write_out(" ".join(f"{u}>{v}" for u, v in sorted(cert.arcs)) + "\n", args.out)
    return EXIT_OK
