"""``strongpack exact``: the exhaustive solvers (lambda, kappa, strong arc
decomposition) and the minimum strong cut."""

from .. import exact as ex
from . import EXIT_OK, _read, _terminals, _write_out

OPTIONS = {"--mode": {"required": True, "choices": ["lambda", "kappa", "sad", "cut"]},
           "--graph": {"required": True}, "--terminals": {"default": ""},
           "--limit-n": {"type": int, "default": ex.DEFAULT_LIMITS.max_vertices},
           "--limit-m": {"type": int, "default": ex.DEFAULT_LIMITS.max_arcs}, "--out": {}}


def run(args) -> int:
    from .. import _core

    d = _core.read_digraph(_read(args.graph))
    limits = ex.SolverLimits(args.limit_n, args.limit_m)
    if args.mode in ("lambda", "kappa"):
        from .. import verify as vf

        terminals = _terminals(args.terminals)
        fn = ex.exact_lambda if args.mode == "lambda" else ex.exact_kappa
        value, packing = fn(d, terminals, limits)
        _write_out(f"value={value}\n")
        _write_out(vf.write_packing(packing), args.out)
    elif args.mode == "sad":
        flag, witness = ex.has_strong_arc_decomposition(d, limits)
        _write_out(f"strong_arc_decomposition={flag}\n")
        if flag:
            from .. import verify as vf

            packing = vf.Packing(d, frozenset(range(d.n)), vf.MODE_ARC, witness)
            _write_out(vf.write_packing(packing), args.out)
    else:  # cut
        cert = ex.min_strong_cut(d, _terminals(args.terminals))
        _write_out(f"size={cert.size} witness={cert.witness[0]},{cert.witness[1]}\n")
        _write_out(" ".join(f"{u}>{v}" for u, v in sorted(cert.arcs)) + "\n", args.out)
    return EXIT_OK
