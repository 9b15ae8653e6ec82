"""The line rule shared by the five text readers: blank lines and lines
whose first field starts with '#' are skipped, any line ending is
accepted, and an error names the physical line it is on."""

import pytest

import strongpack as sp
from strongpack.errors import GraphFormatError

C3 = sp.directed_cycle(3)

# format -> (reader, the data lines of a valid file, a bad last line and
# the error it gives)
FORMATS = {
    "digraph": (sp.read_digraph, ["3 3", "0 1", "1 2", "2 0"],
                "2 x", "arc endpoints must be integers"),
    "composition": (sp.read_composition,
                    ["2", "2 2", "0 1", "1 0", "---", "1 0", "---", "2 1", "0 1"],
                    "0 x", "arc endpoints must be integers"),
    "packing": (lambda text: sp.read_packing(text, C3, [0, 1]),
                ["parts=1 mode=arc", "0>1 1>2 2>0"], "0-1", "bad arc token '0-1'"),
    "hypergraph": (sp.read_hypergraph, ["4 2", "0 1", "2 3"],
                   "2 y", "edge lines must hold integers"),
    "bipartite": (sp.read_bipartite, ["2 1 2", "0 0", "1 0"],
                  "1 x", "edge fields must be integers"),
}


def _interleave(lines, extra):
    return [ln for line in lines for ln in (extra, line)]


# variant -> the text of a file with these data lines
VARIANTS = {
    "blank-lines": lambda lines: "\n".join(_interleave(lines, "  ")) + "\n\n",
    "comments": lambda lines: "\n".join(_interleave(lines, "# c")) + "\n",
    "indented-comments": lambda lines: "\n".join(_interleave(lines, "\t # c")) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
}

COMPOSITION_VARIANTS = {
    "comment-before-t": "# my comp\n2\n2 2\n0 1\n1 0\n---\n1 0\n---\n2 1\n0 1\n",
    "comment-ending-in-separator": "2\n2 2\n0 1\n1 0\n---\n1 0\n# inner ---\n"
                                   "---\n2 1\n0 1\n",
    "separator-with-trailing-space": "2\n2 2\n0 1\n1 0\n--- \n1 0\n---\t\n2 1\n0 1\n",
}

CASES = [(fmt, variant(FORMATS[fmt][1]))
         for fmt in FORMATS for variant in VARIANTS.values()]
CASES += [("composition", text) for text in COMPOSITION_VARIANTS.values()]
IDS = [f"{fmt}-{name}" for fmt in FORMATS for name in VARIANTS]
IDS += [f"composition-{name}" for name in COMPOSITION_VARIANTS]


@pytest.mark.parametrize("fmt, text", CASES, ids=IDS)
def test_skipped_lines_do_not_change_the_result(fmt, text):
    read, lines, _, _ = FORMATS[fmt]
    assert read(text) == read("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", FORMATS)
def test_error_after_a_comment_names_its_physical_line(fmt):
    read, lines, bad, message = FORMATS[fmt]
    text = "\n".join(_interleave(lines[:-1] + [bad], "  # c")) + "\n"
    line = 2 * len(lines)
    with pytest.raises(GraphFormatError) as err:
        read(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"
