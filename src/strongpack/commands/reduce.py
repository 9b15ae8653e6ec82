"""``strongpack reduce``: a hardness gadget with a JSON provenance sidecar
that maps every vertex to its role."""

import sys

from ..errors import PreconditionError
from . import EXIT_OK, _read, _terminals, _write_file, _write_out


def add_arguments(p) -> None:
    p.add_argument("--from", dest="source", required=True,
                   choices=["hypergraph", "linkage", "setcover-issp", "setcover-assp"])
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--endpoints", default="", help="s1,t1,s2,t2 for linkage")
    p.add_argument("--out")


def run(args) -> int:
    import json

    from .. import digraph as dg
    from .. import reductions as red

    if args.source == "hypergraph":
        h = red.read_hypergraph(_read(args.input))
        out = red.hypergraph_gadget(h, args.ell)
    elif args.source == "linkage":
        d = dg.read_digraph(_read(args.input))
        ends = _terminals(args.endpoints)
        if len(ends) != 4:
            raise PreconditionError("--endpoints needs exactly 4 ids s1,t1,s2,t2")
        out = red.linkage_gadget(d, *ends, args.k, args.ell)
    elif args.source == "setcover-issp":
        out = red.cover_packing_gadget_internal(red.read_bipartite(_read(args.input)))
    else:  # setcover-assp
        out = red.cover_packing_gadget_arc(red.read_bipartite(_read(args.input)))
    _write_out(dg.write_digraph(out.digraph), args.out)
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
