"""The record contract: every record of the package is an immutable named
tuple with a fixed positional field order, value equality, value hashing
(unless a field cannot be hashed) and a ``Name(field=...)`` repr."""

import re

import pytest

import strongpack as sp

C3_ARCS = frozenset({(0, 1), (1, 2), (2, 0)})

# (record, field order, a function building the field values afresh)
RECORDS = [
    (sp.Packing, ("host", "terminals", "mode", "parts"),
     lambda: (sp.directed_cycle(3), frozenset({0, 1}), "arc", (C3_ARCS,))),
    (sp.Verdict, ("ok", "reason", "parts", "witness"),
     lambda: (False, "arc not in host", (0,), (0, 2))),
    (sp.ExceptionalVerdict, ("member", "name", "witness"),
     lambda: (True, "triple-2", (0, 1, 2, 3, 4, 5))),
    (sp.SolverLimits, ("max_vertices", "max_arcs"), lambda: (12, 30)),
    (sp.CutCertificate, ("arcs", "witness"), lambda: (frozenset({(0, 1)}), (0, 1))),
    (sp.CutRelationReport, ("c1", "c2", "holds"), lambda: (1, 2, True)),
    (sp.BlowupDecomposition, ("t", "r", "rows"), lambda: (2, 1, ((0,), (0,)))),
    (sp.ReductionOutput, ("digraph", "terminals", "ell", "provenance"),
     lambda: (sp.directed_cycle(2), frozenset({0, 1}), 2, {0: "x", 1: "y"})),
    (sp.CompositionSpec, ("outer", "inners", "original_ids"),
     lambda: (sp.directed_cycle(2), (sp.empty_digraph(1), sp.empty_digraph(2)), (2, 0, 1))),
    (sp.Hypergraph, ("n", "edges"), lambda: (3, (frozenset({0, 1}), frozenset({2})))),
    (sp.BipartiteGraph, ("c", "b", "edges"), lambda: (2, 1, frozenset({(0, 0), (1, 0)}))),
]


@pytest.mark.parametrize("record, fields, values", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(record, fields, values):
    rec = record(*values())
    assert record._fields == fields
    assert tuple(getattr(rec, f) for f in fields) == values()

    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values()[0])

    again = record(*values())
    assert again == rec
    if record is not sp.ReductionOutput:  # its provenance dict cannot be hashed
        assert hash(again) == hash(rec)

    pattern = re.escape(record.__name__) + r"\(" + ", ".join(f"{f}=.*" for f in fields) + r"\)"
    assert re.fullmatch(pattern, repr(rec))
