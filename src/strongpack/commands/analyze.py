"""``strongpack analyze``: a digraph's order, size, strong-component count
and class predicate flags."""

from . import EXIT_OK, _read


def add_arguments(p) -> None:
    p.add_argument("--graph", required=True)


def run(args) -> int:
    from .. import digraph as dg

    d = dg.read_digraph(_read(args.graph))
    comps = dg.strong_components(d)
    print(f"n={d.n} m={d.m} scc={len(comps)}")
    print(f"strong={dg.is_strong(d) if d.n else False}")
    print(f"symmetric={dg.is_symmetric(d)}")
    print(f"semicomplete={dg.is_semicomplete(d)}")
    print(f"eulerian={dg.is_eulerian(d)}")
    print(f"quasi_transitive={dg.is_quasi_transitive(d)}")
    return EXIT_OK
