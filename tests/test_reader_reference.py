"""Differential tests of ``read_digraph`` and ``read_packing`` against plain
per-line reference readers kept here.  The package readers parse each
distinct field once and look it up after that; the references call ``int``
on every field of every line.  On every drawn text both give an equal
``Digraph`` or ``Packing``, or a ``GraphFormatError`` with the same text
and the same line number."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.strategies import composite

import strongpack as sp
from strongpack.errors import GraphFormatError

pytestmark = pytest.mark.filterwarnings("ignore::hypothesis.errors.NonInteractiveExampleWarning")


def _data_rows(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def reference_read_digraph(text):
    header, arcs = None, []
    for lineno, fields in _data_rows(text):
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
    """("ok", result) or ("error", message, line)."""
    try:
        return ("ok", read(*args))
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line)


# -- drawing texts ---------------------------------------------------------------

FILLERS = ["", "   ", "\t", "# a comment", "  # indented comment", "\t#tab comment",
           "#no space"]


@composite
def spelling(draw, value):
    """A field that ``int`` reads as ``value``: plain, zero-padded or signed."""
    text = str(abs(value))
    pad = draw(st.sampled_from(["", "", "0", "00"]))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    return sign + pad + text


@composite
def separator(draw):
    return draw(st.sampled_from([" ", "  ", "\t", " \t "]))


@composite
def document(draw, data_lines):
    """The data lines with filler lines between them, leading and trailing
    blanks on some lines and a drawn line ending."""
    lines = []
    for line in data_lines:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        trail = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + line + trail)
    lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@composite
def digraph_texts(draw, faults=True):
    n = draw(st.integers(min_value=-1 if faults else 0, max_value=6))
    span = max(n, 1)
    low, high = (-1, span + 1) if faults else (0, span - 1)
    pairs = draw(st.lists(st.tuples(st.integers(low, high), st.integers(low, high)),
                          max_size=12))
    if not faults:
        pairs = [(u, v) for u, v in pairs if u != v and n > 1]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []  # duplicates
    m = len(pairs) + (draw(st.sampled_from([0, 0, 0, 1, -1])) if faults else 0)
    lines = [draw(spelling(n)) + draw(separator()) + draw(spelling(m))]
    for u, v in pairs:
        lines.append(draw(spelling(u)) + draw(separator()) + draw(spelling(v)))
    if faults and draw(st.booleans()):
        bad = draw(st.sampled_from(["1 2 3", "7", "0 x", "x 0", "1.0 2", "0 1 # tail"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return draw(document(lines))


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


@SETTINGS
@given(digraph_texts(faults=False))
def test_valid_digraph_texts_parse(text):
    got = outcome(sp.read_digraph, text)
    assert got[0] == "ok" and got == outcome(reference_read_digraph, text)


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
])
def test_hand_picked_digraph_texts(text, expected):
    assert outcome(sp.read_digraph, text) == outcome(reference_read_digraph, text) == expected
