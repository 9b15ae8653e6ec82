"""``strongpack pack``: a constructive packing of a composition or of a
complete bipartite or quasi-transitive digraph."""

from ..errors import PreconditionError
from . import EXIT_OK, _read, _terminals, _write_out


def add_arguments(p) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph")
    source.add_argument("--composition")
    p.add_argument("--terminals", required=True, help="comma-separated ids")
    p.add_argument("--strategy", default="auto",
                   choices=["auto", "bipartite", "symmetric", "semicomplete", "qt"])
    p.add_argument("--out")


def run(args) -> int:
    from .. import composition as cp
    from .. import digraph as dg
    from .. import packing as pk

    terminals = _terminals(args.terminals)
    if args.composition:
        spec = cp.read_composition(_read(args.composition))
        strategy = args.strategy
        if strategy == "auto":
            strategy = "symmetric" if dg.is_symmetric(spec.outer) else "semicomplete"
        if strategy == "symmetric":
            packing = pk.pack_symmetric_composition(spec, terminals)
        elif strategy == "semicomplete":
            packing = pk.pack_semicomplete_composition(spec, terminals)
        else:
            raise PreconditionError(
                f"strategy {strategy!r} needs a plain graph input")
    else:
        d = dg.read_digraph(_read(args.graph))
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
    from ..digraph import complete_bipartite_digraph

    if d.n < 2:
        return None
    a = d.n - d.out_degree(0)
    if a < d.n and d == complete_bipartite_digraph(a, d.n - a):
        return a, d.n - a
    return None
