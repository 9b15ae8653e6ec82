"""``strongpack verify``: re-check a packing file against its host."""

from . import EXIT_OK, EXIT_PRECONDITION, _read, _terminals


def add_arguments(p) -> None:
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("packing")


def run(args) -> int:
    from .. import digraph as dg
    from .. import verify as vf

    d = dg.read_digraph(_read(args.graph))
    packing = vf.read_packing(_read(args.packing), d, _terminals(args.terminals))
    verdict = vf.verify_packing(packing)
    if verdict.ok:
        print(f"ok parts={len(packing.parts)} mode={packing.mode}")
        return EXIT_OK
    print(f"violation: {verdict.reason} parts={verdict.parts} witness={verdict.witness}")
    return EXIT_PRECONDITION
