"""The table parse of the command line against argparse.

``cli._parse`` reads a well-formed op from its subcommand's ``OPTIONS``
table and declines anything else, which ``usage.parse_args`` (argparse,
built from the same tables) then reads.  For every argv drawn here the
table parse either declines or gives exactly argparse's namespace: the
same attributes with the same values and the same handler."""

import contextlib
import importlib
import io

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from hypothesis.strategies import composite

from strongpack.cli import COMMANDS, _parse
from strongpack.usage import parse_args

TABLES = {name: importlib.import_module(f"strongpack.commands.{name}").OPTIONS
          for name in COMMANDS}
FLAGS = sorted({flag for rows in TABLES.values() for flag in rows if flag[0] == "-"})
# tokens no well-formed op holds, or holds only as a value
ODD = ["-", "-3", "-x", "--", "-h", "--help", "--version", "", "x", "7", " 7", "+2", "3.5",
       "٣", "nope", "pack"]


def argparse_vars(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse_args(COMMANDS, argv))
        except SystemExit:
            return None


def _value(draw, kw):
    if "choices" in kw:
        return draw(st.sampled_from(kw["choices"]))
    if kw.get("type") is int:
        return str(draw(st.integers(0, 9)))
    return draw(st.sampled_from(["g.dg", "0,1", "p.pack", "out.txt"]))


@composite
def ops(draw, command):
    """(argv, clean): an op of ``command`` with its required flags and
    positionals, mostly one of its exclusive flags, and some optional ones,
    in a drawn order.  It is clean, that is well-formed, unless drawn
    coins dropped a required argument, gave no or both exclusive flags or
    spoiled a value: a bad int or choice, or an int written oddly."""
    rows = TABLES[command]
    exclusive = [flag for flag, kw in rows.items() if kw.get("exclusive")]
    needed = [name for name, kw in rows.items() if kw.get("required") or name[0] != "-"]
    chosen = set(draw(st.sampled_from([exclusive[:1], exclusive[1:], [], exclusive])))
    dropped = {draw(st.sampled_from(needed))} if needed and not draw(st.integers(0, 4)) else set()
    items = [(name, _value(draw, kw)) for name, kw in rows.items()
             if name in chosen or name in needed and name not in dropped
             or name not in exclusive + needed and draw(st.booleans())]
    spoiled = items and not draw(st.integers(0, 4))
    if spoiled:
        i = draw(st.integers(0, len(items) - 1))
        items[i] = (items[i][0], draw(st.sampled_from(["nope", "x", "3.5", " 7", "+2", "٣", ""])))
    clean = not dropped and not spoiled and len(chosen) == (1 if exclusive else 0)
    flags = draw(st.permutations([item for item in items if item[0][0] == "-"]))
    # positionals keep their order among themselves but go anywhere between flags
    slots = sorted(draw(st.integers(0, len(flags))) for item in items if item[0][0] != "-")
    positionals = iter(value for name, value in items if name[0] != "-")
    argv = [command]
    for i, pair in enumerate([*flags, ()]):
        argv += [next(positionals) for slot in slots if slot == i]
        argv += pair
    return argv, clean


@composite
def argvs(draw):
    """(argv, clean): an op as ``ops`` draws it, changed by up to three
    drawn edits (clean only with none), or a token that names no command."""
    command = draw(st.sampled_from([*COMMANDS, "bogus", "pac", "-h", "--version", ""]))
    if command not in COMMANDS:
        tail = draw(st.lists(st.sampled_from(["pack", "--out", "x"]), max_size=2))
        return [command, *tail], False
    argv, clean = draw(ops(command))
    edits = draw(st.lists(st.sampled_from(
        ["drop", "insert", "replace", "prefix", "equals", "repeat", "unpair", "own"]),
        max_size=3)) if draw(st.integers(0, 2)) else []
    for edit in edits:
        flagged = [i for i, token in enumerate(argv) if token in FLAGS and i + 1 < len(argv)]
        if edit == "drop" and len(argv) > 1:
            del argv[draw(st.integers(1, len(argv) - 1))]
        elif edit == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD + FLAGS)))
        elif edit == "replace":
            argv[draw(st.integers(0, len(argv) - 1))] = draw(st.sampled_from(ODD + FLAGS))
        elif edit == "own":  # any flag of this subcommand, with a good value
            flag = draw(st.sampled_from([name for name in TABLES[command] if name[0] == "-"]))
            argv += [flag, _value(draw, TABLES[command][flag])]
        elif flagged:
            i = draw(st.sampled_from(flagged))
            if edit == "prefix":
                argv[i] = argv[i][:draw(st.integers(2, len(argv[i]) - 1))]
            elif edit == "equals":
                argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
            elif edit == "unpair":
                del argv[i:i + 2]
            else:  # repeat
                argv += argv[i:i + 2]
    return argv, clean and not edits


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_table_parse_declines_or_equals_argparse(drawn):
    argv, clean = drawn
    table = _parse(argv)
    expected = argparse_vars(argv)
    event("table" if table is not None else "argparse accepts" if expected else "error")
    if clean:
        assert table is not None, argv
    if table is not None:
        assert vars(table) == expected, argv
        assert table.fn is expected["fn"]


@pytest.mark.parametrize("argv", [
    ["analyze", "--graph", "g.dg"],
    ["pack", "--terminals", "0,4", "--composition", "f.comp", "--strategy", "qt"],
    ["verify", "p.pack", "--graph", "g.dg", "--terminals", "0,1"],
    ["exact", "--mode", "kappa", "--graph", "g.dg", "--limit-n", "14", "--limit-m", "48"],
    ["reduce", "--from", "linkage", "--input", "g.dg", "--endpoints", "0,1,2,3", "--ell", "3"],
    ["gen", "--max-inner", "4", "sym-comp", "--seed", "5"],
    ["survey", "--family", "semi-comp", "--trials", "500", "--out", "s.csv"],
    ["decompose", "3", "--out", "d.txt", "4"],
], ids=lambda argv: argv[0])
def test_table_answers_each_subcommand(argv):
    table = _parse(argv)
    assert table is not None and vars(table) == argparse_vars(argv)
