"""One module per subcommand, and what they share.

Each module here gives its subcommand's arguments (``add_arguments``) and
handler (``run``); ``cli`` imports only the module of the subcommand an op
names.  The helpers below read inputs, write outputs and parse the common
flags.  Nothing in this package imports ``cli``: under ``python -m
strongpack.cli`` that module runs as ``__main__``, and importing it by name
would compile it a second time.
"""

from __future__ import annotations

import sys

from ..errors import GraphFormatError, PreconditionError

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_PARSE = 3
EXIT_LIMIT = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except OSError as exc:
        raise GraphFormatError(str(exc))


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc.strerror or exc}")


def _write_out(text: str, out: str | None) -> None:
    if out:
        _write_file(out, text)
    else:
        sys.stdout.write(text)


def _terminals(arg: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",") if x != ""]
    except ValueError:
        raise PreconditionError(f"bad terminal list {arg!r}")


def _limits(args):
    """The solver limits the flags ask for, each unset flag at its default."""
    from ..exact import DEFAULT_LIMITS, SolverLimits

    return SolverLimits(
        DEFAULT_LIMITS.max_vertices if args.limit_n is None else args.limit_n,
        DEFAULT_LIMITS.max_arcs if args.limit_m is None else args.limit_m)
