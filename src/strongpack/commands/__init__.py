"""One module per subcommand, and what they share.

Each module here gives its subcommand's options table ``OPTIONS`` (each
flag or positional name with its argparse keywords; the rows marked
``exclusive`` form a required group of mutually exclusive flags) and its
handler ``run``.  The helpers below read inputs, write outputs and parse
the common flags.  Nothing here imports ``cli``, which runs as ``__main__``
under ``python -m strongpack.cli``: an import by name would compile it twice.
"""

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


def _write_out(text: str, out: str | None = None) -> None:
    """``text`` to the file ``out``, else to stdout, which nothing else writes;
    stdout is flushed here, so a reader gone is refused like a closed stdout."""
    if out:
        return _write_file(out, text)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (AttributeError, BrokenPipeError):  # closed at start (None), or its reader gone:
        sys.stdout = None  # the rest goes nowhere, and ``entry`` flushes no stdout
        raise PreconditionError("cannot write stdout") from None


def _terminals(arg: str) -> list[int]:
    try:
        return [int(x) for x in arg.split(",") if x != ""]
    except ValueError:
        raise PreconditionError(f"bad terminal list {arg!r}")

