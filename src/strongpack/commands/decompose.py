"""``strongpack decompose``: the Hamiltonian decomposition of a directed
cycle blown up by independent vertices, one cycle per line."""

from . import EXIT_OK, _write_out

OPTIONS = {"t": {"type": int}, "r": {"type": int}, "--out": {}}


def run(args) -> int:
    from .. import hamilton

    dec = hamilton.decompose_cycle_blowup(args.t, args.r)
    lines = [" ".join(map(str, order)) for order in dec.orders()]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK
