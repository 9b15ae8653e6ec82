"""Differential tests of ``read_digraph``, ``read_composition`` and
``read_packing`` against plain per-line reference readers kept here.  The
package's digraph reader runs one tight loop that parses each distinct id
field once, and reads any line that loop cannot take (a new field, a blank
or comment line, a syntax error) in the loop's except arm; the composition
reader cuts its text at the separators and hands each block to it.  The
references call ``int`` on every field of every line.  On every drawn text
both give an equal result, or a ``GraphFormatError`` (or a
``PreconditionError`` from ``CompositionSpec``) with the same text and the
same line number.  The drawn texts sit at the tight loop's edge: tabs, runs
of spaces, leading and trailing blanks, "\r\n" and "\r" line ends, ids
spelt "+3", "007" or "1_0", negative and out-of-range ids, loops, duplicate
arcs, comment and blank lines between arcs, and header counts one off.
The digraph reader takes a text's lines one slice at a time, so the digraph
texts are also read with slices of a few characters, whose cuts fall
everywhere a line can end."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack import _core
from strongpack.errors import GraphFormatError, PreconditionError

pytestmark = pytest.mark.filterwarnings("ignore::hypothesis.errors.NonInteractiveExampleWarning")


def _data_rows(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def reference_read_digraph(text):
    return reference_digraph(list(_data_rows(text)))


def reference_digraph(rows):
    header, arcs = None, []
    for lineno, fields in rows:
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError("expected header 'n m'", lineno)
            try:
                header = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError("header fields must be integers", lineno)
        elif len(fields) != 2:
            raise GraphFormatError("expected arc line 'u v'", lineno)
        else:
            try:
                arcs.append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise GraphFormatError("arc endpoints must be integers", lineno)
    if header is None:
        raise GraphFormatError("empty digraph file")
    n, m = header
    if len(arcs) != m:
        raise GraphFormatError(f"header promises {m} arcs, found {len(arcs)}")
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    for u, v in arcs:
        if u == v:
            raise GraphFormatError(f"loop arc ({u}, {u}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"arc ({u}, {v}) out of range for n={n}")
    return sp.Digraph(n, arcs)


def reference_read_composition(text):
    rows = list(_data_rows(text))
    if not rows:
        raise GraphFormatError("empty composition file")
    (lineno, fields), blocks = rows[0], [[]]
    try:
        [t] = map(int, fields)
    except ValueError:
        raise GraphFormatError("first line must be the outer order t", lineno)
    for row in rows[1:]:
        if row[1] == ["---"]:
            blocks.append([])
        else:
            blocks[-1].append(row)
    outer = reference_digraph(blocks[0])
    if outer.n != t:
        raise GraphFormatError(f"outer digraph has {outer.n} vertices, expected {t}")
    found = len(blocks) - 1
    inners = [reference_digraph(block) for block in blocks[1:1 + max(0, min(found, t))]]
    if found != t:
        raise GraphFormatError(f"expected {t} inner digraphs, found {found}")
    return sp.CompositionSpec(outer, inners)


def reference_read_packing(text, host, terminals):
    rows = _data_rows(text)
    first = next(rows, None)
    if first is None:
        raise GraphFormatError("empty packing file")
    head_line, head_fields = first
    head = dict(item.split("=", 1) for item in head_fields if "=" in item)
    if "parts" not in head or "mode" not in head:
        raise GraphFormatError("expected header 'parts=<count> mode=<arc|internal>'", head_line)
    try:
        count = int(head["parts"])
    except ValueError:
        raise GraphFormatError("expected header 'parts=<count> mode=<arc|internal>'", head_line)
    if head["mode"] not in ("arc", "internal"):
        raise GraphFormatError(f"unknown mode {head['mode']!r}", head_line)
    parts = []
    for lineno, fields in rows:
        arcs = set()
        for token in fields if fields != ["-"] else []:
            ends = token.split(">")
            try:
                if len(ends) != 2:
                    raise ValueError(token)
                arcs.add((int(ends[0]), int(ends[1])))
            except ValueError:
                raise GraphFormatError(f"bad arc token {token!r}", lineno)
        parts.append(frozenset(arcs))
    if len(parts) != count:
        raise GraphFormatError(f"header promises {count} parts, found {len(parts)}")
    # the drawn terminals are always valid: that check is not under test
    return sp.Packing(host, frozenset(terminals), head["mode"], tuple(parts))


def outcome(read, *args):
    """("ok", result), ("error", message, line) or ("refused", message)."""
    try:
        return ("ok", read(*args))
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line)
    except PreconditionError as exc:
        return ("refused", str(exc))


# -- drawing texts ---------------------------------------------------------------

FILLERS = ["", "   ", "\t", "# a comment", "  # indented comment", "\t#tab comment",
           "#no space"]


@composite
def spelling(draw, value, plain=False):
    """A field that ``int`` reads as ``value``: plain, zero-padded, signed
    or with an underscore between digits."""
    text = str(abs(value))
    if plain:
        return str(value)
    pad = draw(st.sampled_from(["", "", "0", "00"]))
    if len(text) > 1 and draw(st.booleans()):
        text = text[0] + "_" + text[1:]
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + pad + text


@composite
def separator(draw, plain=False):
    return " " if plain else draw(st.sampled_from([" ", "  ", "\t", " \t "]))


@composite
def document(draw, data_lines, plain=False):
    """The data lines with filler lines between them, leading and trailing
    blanks on some lines and a drawn line ending.  A ``plain`` document has
    no filler and no blank around a line, as ``write_digraph`` writes."""
    lines = []
    for line in data_lines:
        if plain:
            lines.append(line)
            continue
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + line + trail)
    if not plain:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@composite
def digraph_lines(draw, faults=True, plain=False, max_n=12, min_n=0):
    """The header and arc lines of a digraph text, before ``document``."""
    n = draw(st.integers(min_value=-1 if faults else min_n, max_value=max_n))
    span = max(n, 1)
    low, high = (-1, span + 1) if faults else (0, span - 1)
    pairs = draw(st.lists(st.tuples(st.integers(low, high), st.integers(low, high)),
                          max_size=12))
    if not faults:
        pairs = [(u, v) for u, v in pairs if u != v and n > 1]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []  # duplicates
    m = len(pairs) + (draw(st.sampled_from([0, 0, 0, 1, -1])) if faults else 0)
    lines = [draw(spelling(n, plain)) + draw(separator(plain)) + draw(spelling(m, plain))]
    for u, v in pairs:
        lines.append(draw(spelling(u, plain)) + draw(separator(plain)) + draw(spelling(v, plain)))
    if faults and draw(st.booleans()):
        bad = draw(st.sampled_from(["1 2 3", "7", "0 x", "x 0", "1.0 2", "0 1 # tail", "---"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


@composite
def digraph_texts(draw, faults=True):
    plain = draw(st.booleans())
    return draw(document(draw(digraph_lines(faults, plain)), plain))


@composite
def composition_texts(draw, faults=True):
    """A composition text whose blocks are drawn digraph texts, cut by "---"
    or by a separator line with blanks around its "---"."""
    plain = draw(st.booleans())
    t = draw(st.integers(min_value=0 if faults else 2, max_value=4))
    blocks = [draw(digraph_lines(faults, plain, max_n=4, min_n=1)) for _ in range(t + 1)]
    if not faults:
        blocks[0] = [f"{t} 0"]  # an outer digraph on t vertices and no arc
    if faults and draw(st.booleans()):
        blocks = blocks[:draw(st.integers(1, len(blocks)))]  # too few or too many blocks
    cuts = ["---"] if plain else ["---", "---", " --- ", "---\t"]
    lines = [draw(spelling(t, plain))] + blocks[0]
    for block in blocks[1:]:
        lines += [draw(st.sampled_from(cuts))] + block
    return draw(document(lines, plain))


@composite
def packing_texts(draw, faults=True):
    n = draw(st.integers(min_value=2, max_value=6))
    host = sp.Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    count = draw(st.integers(min_value=0, max_value=4))
    low, high = (-1, n + 1) if faults else (0, n - 1)
    parts = []
    for _ in range(count):
        pairs = draw(st.lists(st.tuples(st.integers(low, high), st.integers(low, high)),
                              max_size=6))
        tokens = [draw(spelling(u)) + ">" + draw(spelling(v)) for u, v in pairs]
        parts.append(draw(separator()).join(tokens) or "-")
    promised = count + (draw(st.sampled_from([0, 0, 0, 1, -1])) if faults else 0)
    head = draw(st.sampled_from([f"parts={promised} mode=arc", f"mode=internal parts={promised}",
                                 f"parts={promised}\tmode=arc extra"]))
    if faults and draw(st.integers(0, 5)) == 0:
        head = draw(st.sampled_from(["parts=x mode=arc", "mode=arc", f"parts={promised} mode=odd",
                                     "parts=1", "nothing here"]))
    lines = [head] + parts
    if faults and draw(st.booleans()):
        bad = draw(st.sampled_from(["0>1 1-2", "0>1>2", ">1", "0>", "a>b", "0>1 x"]))
        lines.insert(draw(st.integers(1, len(lines))), bad)
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True))
    return draw(document(lines)), host, terminals


SETTINGS = settings(max_examples=250, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(digraph_texts())
def test_read_digraph_matches_the_reference(text):
    assert outcome(sp.read_digraph, text) == outcome(reference_read_digraph, text)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 64])
@settings(SETTINGS, max_examples=100)
@given(digraph_texts())
def test_read_digraph_matches_the_reference_in_small_slices(size, text):
    with mock.patch.object(_core, "_SLICE", size):
        assert outcome(sp.read_digraph, text) == outcome(reference_read_digraph, text)


@SETTINGS
@given(digraph_texts(faults=False))
def test_valid_digraph_texts_parse(text):
    got = outcome(sp.read_digraph, text)
    assert got[0] == "ok" and got == outcome(reference_read_digraph, text)


@SETTINGS
@given(composition_texts())
def test_read_composition_matches_the_reference(text):
    assert outcome(sp.read_composition, text) == outcome(reference_read_composition, text)


@SETTINGS
@given(composition_texts(faults=False))
def test_valid_composition_texts_parse(text):
    got = outcome(sp.read_composition, text)
    assert got[0] == "ok" and got == outcome(reference_read_composition, text)


@SETTINGS
@given(packing_texts())
def test_read_packing_matches_the_reference(case):
    text, host, terminals = case
    assert outcome(sp.read_packing, text, host, terminals) == \
        outcome(reference_read_packing, text, host, terminals)


@SETTINGS
@given(packing_texts(faults=False))
def test_valid_packing_texts_parse(case):
    text, host, terminals = case
    got = outcome(sp.read_packing, text, host, terminals)
    assert got[0] == "ok" and got == outcome(reference_read_packing, text, host, terminals)


@pytest.mark.parametrize("text, expected", [
    ("8 2\n007 +3\n1 2\n", ("ok", sp.Digraph(8, [(7, 3), (1, 2)]))),
    ("3 2\r\n0\t1\r\n0 1\r\n", ("ok", sp.Digraph(3, [(0, 1)]))),
    ("-1 0\n", ("error", "vertex count must be nonnegative", None)),
    ("3 1\n1 1\n", ("error", "loop arc (1, 1) not allowed", None)),
    ("3 1\n0 3\n", ("error", "arc (0, 3) out of range for n=3", None)),
    ("3 2\n0 1\n", ("error", "header promises 2 arcs, found 1", None)),
    ("3 1\n# c\n0 1 2\n", ("error", "line 3: expected arc line 'u v'", 3)),
    ("3 1\n\n0 y\n", ("error", "line 3: arc endpoints must be integers", 3)),
    ("12 2\r1_0 +3\r-0 011\r", ("ok", sp.Digraph(12, [(10, 3), (0, 11)]))),
    ("3 2\n0 1\n0 1\n", ("ok", sp.Digraph(3, [(0, 1)]))),
    ("3 1\n0 1\n\n", ("ok", sp.Digraph(3, [(0, 1)]))),
    ("3 2\n0 1\n1 1\n", ("error", "loop arc (1, 1) not allowed", None)),
    ("3 2\n0 1\n1 -1\n", ("error", "arc (1, -1) out of range for n=3", None)),
    ("3 0\n0 1\n", ("error", "header promises 0 arcs, found 1", None)),
    ("", ("error", "empty digraph file", None)),
    # lines that the tight loop hands to its except arm
    ("3 2\n0 1\n# 0 1\n1 0\n", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    ("3 2\n0 1\n#0 1\n1 0\n", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    ("3 2\n0 1\n0 1 # c\n", ("error", "line 3: expected arc line 'u v'", 3)),
    ("# c\n\n  # d\n3 1\n0 1\n", ("ok", sp.Digraph(3, [(0, 1)]))),
    ("# c\n\n3 1\n0 1 2\n", ("error", "line 4: expected arc line 'u v'", 4)),
    ("# c\n3 x\n", ("error", "line 2: header fields must be integers", 2)),
    ("3 3\n0 1\n1 0\n0 0\n", ("error", "loop arc (0, 0) not allowed", None)),
    ("3 3\n0 0\n1 0\n0 5\n", ("error", "loop arc (0, 0) not allowed", None)),
    ("3 3\n0 1\n0 5\n1 1\n", ("error", "arc (0, 5) out of range for n=3", None)),
])
def test_hand_picked_digraph_texts(text, expected):
    assert outcome(sp.read_digraph, text) == outcome(reference_read_digraph, text) == expected


@pytest.mark.parametrize("size, text, opens, expected", [
    # a "\r\n" whose "\r" ends the first ``size`` characters
    (3, "3 2\r\n0 1\r\n1 0\r\n", "0 1", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    (4, "3 2\r\n0 1\r\n1 0\r\n", "0 1", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    (6, "3 2\r\n0 1\r\r\n1 0\r\n", "1 0", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    # a slice that opens with a comment, a blank line or a syntax error
    (5, "3 2\n0 1\n# c\n1 0\n", "# c", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    (5, "3 2\n0 1\n\n1 0\n", "", ("ok", sp.Digraph(3, [(0, 1), (1, 0)]))),
    (5, "3 2\n0 1\n0 x\n", "0 x", ("error", "line 3: arc endpoints must be integers", 3)),
    (5, "3 2\n0 1\n1 0 2\n", "1 0 2", ("error", "line 3: expected arc line 'u v'", 3)),
    # the header past the first slice, and header counts one off past it
    (2, "# c\n3 1\n\n0 1\n", "3 1", ("ok", sp.Digraph(3, [(0, 1)]))),
    (2, "# c\n3 x\n", "3 x", ("error", "line 2: header fields must be integers", 2)),
    (2, "3 3\n0 1\n1 2\n", "1 2", ("error", "header promises 3 arcs, found 2", None)),
    (2, "3 1\n0 1\n1 2\n", "1 2", ("error", "header promises 1 arcs, found 2", None)),
    # the first bad arc in file order, found after the last slice
    (2, "3 3\n0 1\n1 1\n0 5\n", "0 5", ("error", "loop arc (1, 1) not allowed", None)),
    (2, "3 3\n0 1\n1 0\n1 1\n", "1 1", ("error", "loop arc (1, 1) not allowed", None)),
])
def test_hand_picked_slice_boundaries(size, text, opens, expected):
    with mock.patch.object(_core, "_SLICE", size):
        assert opens in [lines[0] for lines in _core._slices(text)][1:]
        assert outcome(sp.read_digraph, text) == outcome(reference_read_digraph, text) == expected


@pytest.mark.parametrize("text, expected", [
    ("2\n2 2\n0 1\n1 0\n---\n1 0\n---\n2 0\n",
     ("ok", sp.CompositionSpec(sp.directed_cycle(2), (sp.Digraph(1), sp.Digraph(2))))),
    ("2\n2 2\n0 1\n1 0\n --- \n1 0\n---\t\n2 0\n",
     ("ok", sp.CompositionSpec(sp.directed_cycle(2), (sp.Digraph(1), sp.Digraph(2))))),
    ("2\n2 2\n0 1\n1 0\n---\n1 0\n", ("error", "expected 2 inner digraphs, found 1", None)),
    ("2\n3 0\n---\n1 0\n---\n1 0\n",
     ("error", "outer digraph has 3 vertices, expected 2", None)),
    ("2\n2 0\n---\n---\n1 0\n", ("error", "empty digraph file", None)),
    ("1\n1 0\n---\n1 0\n", ("refused", "outer digraph needs at least 2 vertices")),
    ("x\n", ("error", "line 1: first line must be the outer order t", 1)),
    # comments and blanks before, between and inside the blocks
    ("# c\n2\n2 2\n0 1\n# 0 1\n1 0\n# c\n---\n\n1 0\n---\n# c\n2 0\n",
     ("ok", sp.CompositionSpec(sp.directed_cycle(2), (sp.Digraph(1), sp.Digraph(2))))),
    ("2\n2 2\n0 1\n1 0\n# c\n---\n1 0\n---\n# c\n2 1\n0 x\n",
     ("error", "line 11: arc endpoints must be integers", 11)),
    ("2\n# ---\n2 0\n---\n1 0\n---\n1 0\n",
     ("ok", sp.CompositionSpec(sp.Digraph(2), (sp.Digraph(1), sp.Digraph(1))))),
    ("2\n2 0\n---\n1 0\n---\n1 0\n---\nx\n",
     ("error", "expected 2 inner digraphs, found 3", None)),  # the block after t is not read
])
def test_hand_picked_composition_texts(text, expected):
    assert outcome(sp.read_composition, text) == \
        outcome(reference_read_composition, text) == expected
