"""Command-line interface.

Subcommands: analyze, pack, verify, exact, reduce, gen, survey and
decompose.  Each one's arguments and handler live in the module of the
same name under ``commands``, and an op imports only the module of the
subcommand it names, which imports the library modules it runs when it
is called: with bytecode caching off, every op compiles each line it
imports.  Exit codes: 0 success, 2 precondition violation, bad arguments
or an unwritable output path, 3 parse error or an unreadable input file,
4 size-limit refusal.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .commands import EXIT_LIMIT, EXIT_PARSE, EXIT_PRECONDITION
from .errors import (GraphFormatError, PreconditionError, SizeLimitError,
                     StrongpackError)

# Each subcommand with its help line, in the order of the help text.
COMMANDS = {
    "analyze": "digraph class report",
    "pack": "construct a packing",
    "verify": "check a packing file",
    "exact": "exhaustive solvers",
    "reduce": "generate a hardness gadget",
    "gen": "seeded random instances",
    "survey": "CSV of packing and cut sizes",
    "decompose": "Hamiltonian decomposition of a cycle blow-up",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand with its help line, but the arguments only on
    ``command``'s subparser, so only that subcommand's module is imported.
    When ``command`` names no subcommand (``--version``, ``--help``, none
    or a misspelt one) none is imported: argparse stops at this parser."""
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="strongpack",
        description="packings of arc-disjoint strong subgraphs in digraph "
                    "compositions, exact small-instance solvers, and "
                    "hardness-gadget generation")
    ap.add_argument("--version", action="version",
                    version=f"strongpack {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if name == command:
            module = importlib.import_module(f".commands.{name}", __package__)
            module.add_arguments(p)
            p.set_defaults(fn=module.run)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except StrongpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
