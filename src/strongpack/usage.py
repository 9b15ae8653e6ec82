"""Help and error text of the command line, from argparse.

``cli.main`` reads a well-formed op from its subcommand's ``OPTIONS``
table itself, and imports this module only for any other argv: help,
``--version``, a misspelt command, abbreviations, ``--flag=value``, ``--``
and every usage error.  The parser here is built from the same tables, so
argparse stays the only source of help and error bytes.
"""

from __future__ import annotations

import argparse
import importlib

# Each subcommand's help line, in the order of ``cli.COMMANDS``.
HELP = ("digraph class report", "construct a packing", "check a packing file",
        "exhaustive solvers", "generate a hardness gadget", "seeded random instances",
        "CSV of packing and cut sizes", "Hamiltonian decomposition of a cycle blow-up")


def parse_args(commands, argv):
    """argparse's namespace for ``argv``; help, the version and a usage
    error end in ``SystemExit`` as usual."""
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return build_parser(commands, command).parse_args(argv)


def build_parser(commands, command=None) -> argparse.ArgumentParser:
    """Every subcommand with its help line, but the arguments only on
    ``command``'s subparser, so only that subcommand's module is imported.
    The rows of its ``OPTIONS`` marked ``exclusive`` form one required
    group of mutually exclusive options."""
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="strongpack",
        description="packings of arc-disjoint strong subgraphs in digraph "
                    "compositions, exact small-instance solvers, and "
                    "hardness-gadget generation")
    ap.add_argument("--version", action="version",
                    version=f"strongpack {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in zip(commands, HELP, strict=True):
        p = sub.add_parser(name, help=text)
        if name == command:
            module = importlib.import_module(f".commands.{name}", __package__)
            exclusive = [flag for flag, kw in module.OPTIONS.items() if kw.get("exclusive")]
            group = p.add_mutually_exclusive_group(required=True) if exclusive else p
            for flag, kw in module.OPTIONS.items():
                kw = {key: value for key, value in kw.items() if key != "exclusive"}
                (group if flag in exclusive else p).add_argument(flag, **kw)
            p.set_defaults(fn=module.run)
    return ap
