"""Span tracing for the in-process run, installed from outside the package.

``Tracer.install`` replaces each traced public function on every
``strongpack`` module attribute that is bound to it (``from x import f``
creates one binding per importing module, and callers look up those), and
``Digraph.__init__`` on the class.  Nothing in the package is edited; the
originals come back on ``uninstall``.

A span is (name, start, end, parent, op, info).  Spans are kept in memory;
``layer_metrics`` turns one pass worth of spans into the per-layer numbers.
A layer's self time is its spans' durations minus the time their child
spans cover.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter

from strongpack import _kernel
from strongpack import composition, digraph, exact, flows, hamilton, packing

LAYERS = ("cli", "digraph", "composition", "hamilton", "packing", "kernel",
          "exact", "flows")
ELL_BUCKETS = ("2", "3", "4", "5", "6", "7plus")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: str
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arcs_info(args, kwargs, result):
    return len(getattr(args[0], "arcs", ()))


def _bytes_info(args, kwargs, result):
    return len(args[0])


def _kernel_info(args, kwargs, result):
    return (args[3], result is not None)


# (module, attribute, span name, info function)
TARGETS = (
    (digraph, "read_digraph", "digraph.read", _bytes_info),
    (digraph, "write_digraph", "digraph.write", None),
    (digraph, "strong_components", "digraph.scc", None),
    (digraph, "is_strong", "digraph.predicates", None),
    (digraph, "is_symmetric", "digraph.predicates", None),
    (digraph, "is_semicomplete", "digraph.predicates", None),
    (digraph, "is_quasi_transitive", "digraph.predicates", None),
    (digraph, "is_eulerian", "digraph.predicates", None),
    (composition, "compose", "composition.compose", None),
    (composition, "canonical_decomposition_strong_qt", "composition.canonical_qt", None),
    (composition, "read_composition", "composition.read", _bytes_info),
    (hamilton, "hamilton_semicomplete", "hamilton.cycle", None),
    (hamilton, "decompose_cycle_blowup", "hamilton.blowup", None),
    (packing, "pack_semicomplete_composition", "packing.pack", None),
    (packing, "pack_symmetric_composition", "packing.pack", None),
    (packing, "pack_quasi_transitive", "packing.pack", None),
    (packing, "pack_bipartite", "packing.pack", None),
    (packing, "is_in_exceptional", "packing.exceptional", None),
    (packing, "verify_packing", "packing.verify", None),
    (packing, "write_packing", "packing.write", None),
    (packing, "read_packing", "packing.read", None),
    (_kernel, "search_arc_disjoint", "kernel.search", _kernel_info),
    (_kernel, "search_internally_disjoint", "kernel.search", _kernel_info),
    (exact, "exact_lambda", "exact.solve", None),
    (exact, "exact_kappa", "exact.solve", None),
    (exact, "has_strong_arc_decomposition", "exact.solve", None),
    (exact, "min_strong_cut", "exact.solve", None),
    (exact, "steiner_cut_undirected", "exact.solve", None),
    (flows, "min_arc_cut", "flows.min_cut", None),
    (flows, "vertex_capacitated_connectivity", "flows.vertex_conn", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = ""

    def span(self, name, fn, info=None):
        """``fn`` wrapped so that each call records a span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                detail = info(args, kwargs, result) if info else None
                spans[index] = Span(name, start, end, parent, self.op, detail)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "strongpack" or name.startswith("strongpack."))]
        for home, attr, name, info in TARGETS:
            original = getattr(home, attr)
            wrapper = self.span(name, original, info)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        init = digraph.Digraph.__init__
        self._restore.append((digraph.Digraph, "__init__", init))
        digraph.Digraph.__init__ = self.span("digraph.construct", init, _arcs_info)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], pass_wall: float) -> dict[str, float]:
    """Per-layer numbers for one traced pass.  ``pass_wall`` is the pass's
    wall time; what no root span covers is the harness's own time."""
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    for s, t in zip(spans, own):
        m[s.name.split(".")[0] + ".self_s"] += t
    m["digraph.construct_calls"] = count("digraph.construct")
    m["digraph.construct_arcs"] = sum(s.info or 0 for s in spans
                                      if s.name == "digraph.construct")
    m["digraph.construct_s"] = total("digraph.construct")
    m["digraph.read_s"] = total("digraph.read")
    m["digraph.read_bytes"] = sum(s.info or 0 for s in spans if s.name == "digraph.read")
    m["digraph.write_s"] = total("digraph.write")
    m["digraph.scc_calls"] = count("digraph.scc")
    m["digraph.scc_s"] = total("digraph.scc")
    m["digraph.predicates_s"] = total("digraph.predicates")
    m["composition.compose_calls"] = count("composition.compose")
    m["composition.compose_s"] = total("composition.compose")
    m["composition.canonical_qt_s"] = total("composition.canonical_qt")
    m["composition.read_s"] = total("composition.read")
    m["hamilton.cycle_s"] = total("hamilton.cycle")
    m["hamilton.blowup_calls"] = count("hamilton.blowup")
    m["hamilton.blowup_s"] = total("hamilton.blowup")
    m["packing.pack_s"] = sum(t for s, t in zip(spans, own) if s.name == "packing.pack")
    m["packing.exceptional_s"] = total("packing.exceptional")
    m["packing.verify_calls"] = count("packing.verify")
    m["packing.verify_s"] = total("packing.verify")
    m["packing.write_s"] = total("packing.write")
    m["packing.read_s"] = total("packing.read")

    kernel = [s for s in spans if s.name == "kernel.search"]
    m["kernel.calls"] = len(kernel)
    m["kernel.s"] = sum(s.duration for s in kernel)
    found = sum(1 for s in kernel if s.info[1])
    m["kernel.found_frac"] = found / len(kernel) if kernel else 0.0
    m["kernel.max_call_s"] = max((s.duration for s in kernel), default=0.0)
    for bucket in ELL_BUCKETS:
        m[f"kernel.calls_by_ell.{bucket}"] = 0
        m[f"kernel.s_by_ell.{bucket}"] = 0.0
    for s in kernel:
        ell = s.info[0]
        bucket = str(ell) if ell < 7 else "7plus"
        m[f"kernel.calls_by_ell.{bucket}"] += 1
        m[f"kernel.s_by_ell.{bucket}"] += s.duration

    def under_exact(i):
        while i >= 0:
            if spans[i].name == "exact.solve":
                return True
            i = spans[i].parent
        return False

    m["exact.ell_attempts"] = sum(1 for i, s in enumerate(spans)
                                  if s.name == "kernel.search" and under_exact(s.parent))
    m["flows.min_cut_calls"] = count("flows.min_cut")
    m["flows.min_cut_s"] = total("flows.min_cut")
    m["flows.vertex_conn_s"] = total("flows.vertex_conn")

    m["harness.self_s"] = pass_wall - sum(s.duration for s in spans if s.parent < 0)
    m["trace.wall_s"] = pass_wall
    return m


def retained_mb(build) -> float:
    """tracemalloc-retained size of what ``build()`` returns, in MB."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del obj
    return (after - before) / 1e6

