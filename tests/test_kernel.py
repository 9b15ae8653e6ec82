"""The search kernel's own contract: its size cap, its recorded name, its
node counts and counters, and its depth."""

import random
import sys

import pytest

import strongpack as sp
from strongpack import _kernel
from strongpack import generators as gen
from strongpack.errors import SizeLimitError


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_refuses_65_vertices_with_size_limit_error(search):
    assert _kernel.MAX_VERTICES == 64
    with pytest.raises(SizeLimitError, match="65 vertices"):
        search(65, [(0, 1), (1, 0)], 0b11, 2)


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_accepts_64_vertices(search):
    arcs = [(0, 1), (1, 0)]
    assert search(64, arcs, 0b11, 1) == [[0, 1]]
    assert search(64, arcs, 0b11, 2) is None


def test_backend_is_pure():
    assert sp.kernel_backend() == "pure"


def _complete(n):
    return [(u, v) for u in range(n) for v in range(n) if u != v]


# (graph seed, n, extra edges, terminal count) of the pinned exact hosts,
# each rebuilt as random_strong_symmetric(n, extra, Random(seed)) with
# sorted(rng.sample(range(n), k)) as terminals, and the nodes the search
# visits at ell = 2, 3, ... up to the packing number (every one found).
PINNED_NODES = {
    (5, 12, 8, 4): [38140],
    (45, 10, 12, 3): [43, 12004],
    (199, 10, 12, 3): [43, 60, 5222],
    (274, 9, 13, 3): [43, 43, 162, 9145],
}


def _pinned_host(seed, n, extra, k):
    rng = random.Random(seed)
    d = gen.random_strong_symmetric(n, extra, rng)
    return d, sorted(d.arcs), sum(1 << t for t in rng.sample(range(n), k))


@pytest.mark.parametrize("key", sorted(PINNED_NODES))
def test_pinned_node_counts(key):
    d, arcs, s_mask = _pinned_host(*key)
    nodes = []
    for ell in range(2, len(PINNED_NODES[key]) + 2):
        counters = {}
        found = _kernel.search_arc_disjoint(d.n, arcs, s_mask, ell, counters=counters)
        assert found is not None
        nodes.append(counters["nodes"])
    assert nodes == PINNED_NODES[key]


def test_counters_are_deterministic_and_accumulate():
    d, arcs, s_mask = _pinned_host(45, 10, 12, 3)
    first, second = {}, {}
    for counters in (first, second):
        _kernel.search_arc_disjoint(d.n, arcs, s_mask, 3, counters=counters)
    assert first == second
    assert first["nodes"] == 12004 and first["degree"] + first["feasibility"] > 0
    _kernel.search_arc_disjoint(d.n, arcs, s_mask, 2, counters=first)
    assert first["nodes"] == 12004 + 43


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_counters_do_not_change_the_result(search):
    d, arcs, s_mask = _pinned_host(199, 10, 12, 3)
    counters = {}
    found = search(d.n, arcs, s_mask, 3, counters=counters)
    assert search(d.n, arcs, s_mask, 3) == found
    assert counters["nodes"] > 0 and set(counters) == {"nodes", "degree", "feasibility"}


def test_root_refutation_visits_no_node():
    # terminal 1 has one out-arc, so two classes cannot both leave it
    counters = {}
    assert _kernel.search_arc_disjoint(3, [(0, 1), (1, 0), (0, 2), (2, 0)],
                                       0b11, 2, counters=counters) is None
    assert counters == {"nodes": 0, "degree": 1, "feasibility": 0}


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_search_deeper_than_the_recursion_limit(search):
    # K40 with every vertex a terminal: 1,560 levels (arcs, or terminal-
    # terminal arcs as variables) on the path to the first packing
    n = 40
    arcs = _complete(n)
    assert len(arcs) > sys.getrecursionlimit()
    counters = {}
    parts = search(n, arcs, (1 << n) - 1, 1, counters=counters)
    assert parts is not None and counters["nodes"] > 1000
    d = sp.Digraph(n, [arcs[i] for i in parts[0]])
    assert sp.is_strong(d)
