"""``strongpack verify``: re-check a packing file against its host."""

from . import EXIT_OK, EXIT_PRECONDITION, _read, _terminals, _write_out

OPTIONS = {"--graph": {"required": True}, "--terminals": {"required": True}, "packing": {}}


def run(args) -> int:
    from .. import _core
    from .. import verify as vf

    d = _core.read_digraph(_read(args.graph))
    packing = vf.read_packing(_read(args.packing), d, _terminals(args.terminals))
    verdict = vf.verify_packing(packing)
    if verdict.ok:
        _write_out(f"ok parts={len(packing.parts)} mode={packing.mode}\n")
        return EXIT_OK
    _write_out(f"violation: {verdict.reason} parts={verdict.parts} witness={verdict.witness}\n")
    return EXIT_PRECONDITION
