"""Command-line interface: ``main`` reads a well-formed op from the
``OPTIONS`` table of its subcommand's module under ``commands``, and
argparse, in ``usage``, reads any other argv.  Exit codes: 0 success, 2
precondition violation, bad arguments or an unwritable output path or
stdout, 3 parse error or an unreadable input file, 4 size-limit refusal."""

import atexit
import gc
import importlib
import os
import sys
from types import SimpleNamespace

# The subcommands, in the order of the help text.
COMMANDS = ("analyze", "pack", "verify", "exact", "reduce", "gen", "survey", "decompose")


def _parse(argv):
    """argparse's namespace for ``<command> (--flag value | positional)*``
    with each flag an exact name from the command's ``OPTIONS`` given once,
    no value starting with ``-``, and each argument valid; else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    module = importlib.import_module(f".commands.{argv[0]}", __package__)
    rows = module.OPTIONS
    positionals = iter([name for name in rows if name[0] != "-"])
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, value = (token, next(tokens, "-")) if token[:1] == "-" else (
            next(positionals, "-"), token)
        if name not in rows or name in given or value[:1] == "-":
            return None
        given[name] = value
    exclusive = [name for name, kw in rows.items() if kw.get("exclusive")]
    if exclusive and sum(name in given for name in exclusive) != 1:
        return None
    args = SimpleNamespace(command=argv[0], fn=module.run)
    for name, kw in rows.items():
        value = kw.get("default")
        if name in given:
            try:
                value = kw.get("type", str)(given[name])
            except ValueError:
                return None
            if value not in kw.get("choices", [value]):
                return None
        elif kw.get("required") or name[0] != "-":
            return None
        setattr(args, kw.get("dest", name.lstrip("-").replace("-", "_")), value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        from .usage import parse_args

        args = parse_args(COMMANDS, argv)
    from .commands import EXIT_LIMIT, EXIT_PARSE, EXIT_PRECONDITION
    from .errors import GraphFormatError, PreconditionError, SizeLimitError, StrongpackError

    try:
        return args.fn(args)
    except GraphFormatError as exc:
        code, line = EXIT_PARSE, f"parse error: {exc}"
    except (SizeLimitError, MemoryError, OverflowError) as exc:  # a size no list can hold
        code, line = EXIT_LIMIT, f"size limit: {str(exc) or 'out of memory'}"
    except PreconditionError as exc:
        code, line = EXIT_PRECONDITION, f"precondition violated: {exc}"
    except StrongpackError as exc:
        code, line = EXIT_PRECONDITION, f"error: {exc}"
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):  # closed at start (None) or unwritable (2</dev/null):
        sys.stderr = None  # the line goes nowhere, and ``entry`` flushes no stderr
    return code


def entry() -> None:
    """Run ``main`` as a process: no cyclic collector, no interpreter teardown."""
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError:  # a closed pipe: the interpreter reports it at exit
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
