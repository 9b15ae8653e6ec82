"""``strongpack gen``: seed-deterministic random instances."""

from . import EXIT_OK, _write_out


def add_arguments(p) -> None:
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


def run(args) -> int:
    import random

    from .. import composition as cp
    from .. import digraph as dg
    from .. import generators as gen

    rng = random.Random(args.seed)
    if args.kind == "sym-comp":
        text = cp.write_composition(gen.random_symmetric_composition(args.t, args.max_inner, rng))
    elif args.kind == "semi-comp":
        text = cp.write_composition(gen.random_semicomplete_composition(args.t, args.max_inner, rng))
    elif args.kind == "bipartite":
        text = dg.write_digraph(gen.random_bipartite_host(args.a, args.b))
    elif args.kind == "hypergraph":
        from .. import reductions as red

        text = red.write_hypergraph(gen.random_hypergraph(args.n, args.e, rng))
    else:  # eulerian-linkage
        text = dg.write_digraph(gen.random_eulerian(args.n, args.cycles, rng))
    _write_out(text, args.out)
    return EXIT_OK
