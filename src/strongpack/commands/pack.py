"""``strongpack pack``: a constructive packing of a composition, or of a
digraph through the composition its co-components form.  For a digraph,
the strategies ``auto``, ``bipartite`` and ``qt`` are that one path.  Each
part is rendered as it passes its check; nothing is written before the last."""

from ..errors import PreconditionError
from . import EXIT_OK, _read, _terminals, _write_out

OPTIONS = {"--graph": {"exclusive": True}, "--composition": {"exclusive": True},
           "--terminals": {"required": True, "help": "comma-separated ids"},
           "--strategy": {"default": "auto",
                          "choices": ["auto", "bipartite", "symmetric", "semicomplete", "qt"]},
           "--out": {}}


def run(args) -> int:
    from .. import composition as cp
    from .. import digraph as dg
    from .. import packing as pk

    terminals = _terminals(args.terminals)
    if args.composition:
        spec = cp.read_composition(_read(args.composition))
        symmetric = {"auto": None, "symmetric": True, "semicomplete": False}  # outer class
        if args.strategy not in symmetric:
            raise PreconditionError(
                f"strategy {args.strategy!r} needs a plain graph input")
        packing = pk._pack(spec, terminals, symmetric[args.strategy], stream=True)
    else:
        d = dg.read_digraph(_read(args.graph))
        if args.strategy in ("symmetric", "semicomplete"):
            raise PreconditionError(
                f"strategy {args.strategy!r} needs a composition input")
        packing = pk._pack(pk.canonical_decomposition_strong_qt(d), terminals, host=d, stream=True)
    _write_out(pk.write_packing(packing), args.out)
    return EXIT_OK
