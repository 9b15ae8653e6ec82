"""``strongpack analyze``: a digraph's order, size, strong-component count
and class predicate flags."""

from . import EXIT_OK, _read, _write_out

OPTIONS = {"--graph": {"required": True}}


def run(args) -> int:
    from .. import digraph as dg

    d = dg.read_digraph(_read(args.graph))
    comps = dg.strong_components(d)
    _write_out(f"n={d.n} m={d.m} scc={len(comps)}\n"
               f"strong={dg.is_strong(d) if d.n else False}\n"
               f"symmetric={dg.is_symmetric(d)}\n"
               f"semicomplete={dg.is_semicomplete(d)}\n"
               f"eulerian={dg.is_eulerian(d)}\n"
               f"quasi_transitive={dg.is_quasi_transitive(d)}\n")
    return EXIT_OK
