"""``strongpack gen``: seed-deterministic random instances."""

from . import EXIT_OK, _write_out

OPTIONS = {"kind": {"choices": ["sym-comp", "semi-comp", "bipartite", "hypergraph",
                                 "eulerian-linkage"]},
           "--seed": {"type": int, "default": 0}, "--t": {"type": int, "default": 3},
           "--max-inner": {"type": int, "default": 3}, "--a": {"type": int, "default": 2},
           "--b": {"type": int, "default": 3}, "--n": {"type": int, "default": 6},
           "--e": {"type": int, "default": 3}, "--cycles": {"type": int, "default": 2},
           "--out": {}}


def run(args) -> int:
    import random

    from .. import composition as cp
    from .. import digraph as dg
    from .. import generators as gen

    rng = random.Random(args.seed)
    if args.kind in ("sym-comp", "semi-comp"):
        symmetric = args.kind == "sym-comp"
        text = cp.write_composition(gen.random_composition(args.t, args.max_inner, rng, symmetric))
    elif args.kind == "bipartite":
        text = dg.write_digraph(gen.random_bipartite_host(args.a, args.b))
    elif args.kind == "hypergraph":
        from .. import reductions as red

        text = red.write_hypergraph(gen.random_hypergraph(args.n, args.e, rng))
    else:  # eulerian-linkage
        text = dg.write_digraph(gen.random_eulerian(args.n, args.cycles, rng))
    _write_out(text, args.out)
    return EXIT_OK
