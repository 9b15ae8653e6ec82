import itertools

import pytest

import strongpack as sp


@pytest.fixture
def c3():
    return sp.directed_cycle(3)


@pytest.fixture
def k23():
    return sp.complete_bipartite_digraph(2, 3)


@pytest.fixture
def strong_tournament4():
    return sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 1)])


def all_hamiltonian_cycles(d):
    """Exhaustive enumeration, normalized to start at vertex 0."""
    found = []
    for perm in itertools.permutations(range(1, d.n)):
        order = (0,) + perm
        if all(d.has_arc(order[i], order[(i + 1) % d.n]) for i in range(d.n)):
            found.append(order)
    return found


def check_hamiltonian_cycle(d, order):
    """Check that the vertex order visits every vertex of ``d`` once and
    that each step, the last back to the first, is an arc of ``d``."""
    assert sorted(order) == list(range(d.n))
    for u, v in zip(order, order[1:] + order[:1]):
        assert d.has_arc(u, v), (u, v)


def reference_blowup(t, r):
    """The directed t-cycle with every vertex replaced by r independent
    ones, built by the product rather than read off a decomposition."""
    return sp.lexicographic_product(sp.directed_cycle(t), sp.empty_digraph(r))


def check_decomposes_host(dec):
    """Check a cycle blow-up decomposition on the host it claims to
    decompose: every vertex order is a Hamiltonian cycle of that host, and
    the cycles' arc sets partition its t*r*r arcs.  Returns the host."""
    host = reference_blowup(dec.t, dec.r)
    orders = list(dec.orders())
    assert len(orders) == dec.r
    used = set()
    for order in orders:
        assert sorted(order) == list(range(host.n))
        arcs = set(zip(order, order[1:] + order[:1]))
        assert arcs <= host.arcs
        assert not arcs & used
        used |= arcs
    assert used == host.arcs
    assert len(used) == dec.t * dec.r * dec.r
    return host


def exceptional_member(i):
    return sp.EXCEPTIONAL_COMPOSITIONS[i][1]
