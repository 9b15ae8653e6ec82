"""The search kernel's own contract: its size cap, its recorded name, its
node counts, found parts and counters, and its depth."""

import hashlib
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
    (5, 12, 8, 4): [28040],
    (45, 10, 12, 3): [43, 716],
    (199, 10, 12, 3): [43, 54, 1161],
    (274, 9, 13, 3): [43, 43, 76, 1960],
}

# SHA-256 prefixes of repr(parts) for the same hosts and ells, recorded
# before the dominance rule: pruning changes the node counts, not the parts
PINNED_PARTS = {
    (5, 12, 8, 4): ["418ba0eafcdc054c"],
    (45, 10, 12, 3): ["2af4c1b5a7257aa9", "7c012798c9d6e1d1"],
    (199, 10, 12, 3): ["99e28d472877ac2f", "07bb9e0fa6d41d22", "6807cd669148de68"],
    (274, 9, 13, 3): ["05ed371a1a099459", "e62fa8eeabde9f33", "e3cbf628e5288e18",
                      "9c4c6d6ce6ebee61"],
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


@pytest.mark.parametrize("key", sorted(PINNED_PARTS))
def test_pinned_parts(key):
    d, arcs, s_mask = _pinned_host(*key)
    digests = []
    for ell in range(2, len(PINNED_PARTS[key]) + 2):
        parts = _kernel.search_arc_disjoint(d.n, arcs, s_mask, ell)
        digests.append(hashlib.sha256(repr(parts).encode()).hexdigest()[:16])
    assert digests == PINNED_PARTS[key]


def test_counters_are_deterministic_and_accumulate():
    d, arcs, s_mask = _pinned_host(45, 10, 12, 3)
    first, second = {}, {}
    for counters in (first, second):
        _kernel.search_arc_disjoint(d.n, arcs, s_mask, 3, counters=counters)
    assert first == second
    assert first["nodes"] == 716 and first["degree"] + first["feasibility"] > 0
    assert first["dominated"] > 0
    _kernel.search_arc_disjoint(d.n, arcs, s_mask, 2, counters=first)
    assert first["nodes"] == 716 + 43


@pytest.mark.parametrize("search", [_kernel.search_arc_disjoint,
                                    _kernel.search_internally_disjoint])
def test_counters_do_not_change_the_result(search):
    d, arcs, s_mask = _pinned_host(199, 10, 12, 3)
    counters = {}
    found = search(d.n, arcs, s_mask, 3, counters=counters)
    assert search(d.n, arcs, s_mask, 3) == found
    assert counters["nodes"] > 0 and set(counters) == {"nodes", "degree", "feasibility",
                                                     "dominated"}


def test_root_refutation_visits_no_node():
    # terminal 1 has one out-arc, so two classes cannot both leave it
    counters = {}
    assert _kernel.search_arc_disjoint(3, [(0, 1), (1, 0), (0, 2), (2, 0)],
                                       0b11, 2, counters=counters) is None
    assert counters == {"nodes": 0, "degree": 1, "feasibility": 0, "dominated": 0}


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


def test_internal_search_on_owned_vertices_stays_small():
    # at an arc between two vertices that one class already spans, the
    # "unused" branch is dominated; without that rule the split host of
    # this one takes over 7 million nodes
    edges = [(int(e[0]), int(e[1])) for e in
             "01 02 03 05 06 12 14 15 24 26 27 35 36 45 47 56 57".split()]
    d = sp.biorientation(8, edges)
    terminals = [0, 2, 3, 5, 6]
    s_mask = sum(1 << t for t in terminals)
    counters = {}
    parts = _kernel.search_internally_disjoint(d.n, sorted(d.arcs), s_mask, 3,
                                               counters=counters)
    assert parts is not None and counters["nodes"] <= 5000
    value, packing = sp.exact_kappa(d, terminals, sp.SolverLimits(14, 48))
    assert value == 3 and sp.verify_packing(packing)


def test_size_cap_applies_to_the_callers_host():
    # the bioriented 64-cycle is within the cap; its split host has 126
    n = 64
    d = sp.biorientation(n, [(i, (i + 1) % n) for i in range(n)])
    parts = _kernel.search_internally_disjoint(n, sorted(d.arcs), 1 | 1 << 32, 2)
    assert parts is not None and len(parts) == 2
