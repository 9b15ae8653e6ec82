"""Hamiltonian cycles in semicomplete digraphs and Hamiltonian
decompositions of directed-cycle blow-ups.

The blow-up of a directed t-cycle by r independent vertices has vertices
(i, j) for i < t, j < r and all arcs (i, j) -> (i+1 mod t, j').  Its arc set
splits into r Hamiltonian cycles whenever such a decomposition exists; the
construction here assigns to colour c a cyclic-shift matching at every
interface, encoded by a t x r matrix whose rows are permutations of Z_r
(so colours never collide and every arc is used) and whose column sums are
coprime to r (so each colour closes into a single cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .composition import lexicographic_product
from .digraph import Digraph, directed_cycle, empty_digraph, is_semicomplete, is_strong
from .errors import InfeasibleError, PreconditionError, UnsupportedCaseError


def _cycle_arcs(order: tuple[int, ...]):
    """The arcs of the closed walk through ``order``, in order."""
    return zip(order, order[1:] + order[:1])


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle of ``host`` given as a vertex order."""

    host: Digraph
    order: tuple[int, ...]

    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset(_cycle_arcs(self.order))

    def check(self) -> None:
        if sorted(self.order) != list(range(self.host.n)):
            raise PreconditionError("order must visit every vertex exactly once")
        out = self.host.out
        for u, v in _cycle_arcs(self.order):
            if not out[u] >> v & 1:
                raise PreconditionError(f"cycle uses missing arc {(u, v)}")


@dataclass(frozen=True)
class HamDecomposition:
    """Hamiltonian cycles over one host whose arc sets partition its arcs."""

    host: Digraph
    cycles: tuple[HamCycle, ...]

    def check(self) -> None:
        seen = [0] * self.host.n
        for cyc in self.cycles:
            cyc.check()
            for u, v in _cycle_arcs(cyc.order):
                if seen[u] >> v & 1:
                    raise PreconditionError("cycles share an arc")
                seen[u] |= 1 << v
        if tuple(seen) != self.host.out:
            raise PreconditionError("cycles do not cover the host arc set")


def hamilton_semicomplete(d: Digraph) -> HamCycle:
    """Hamiltonian cycle of a strong semicomplete digraph.

    Grows a cycle by vertex insertion.  When some outside vertex has both
    an in- and an out-neighbor on the cycle, it can be spliced between two
    consecutive cycle vertices.  Otherwise every outside vertex strictly
    dominates or is strictly dominated by the cycle, and strongness yields
    an arc from the dominated side to the dominating side through which a
    pair of vertices joins at once.  Vertices are taken in increasing id
    order, so the output is deterministic.
    """
    if d.n < 2:
        raise PreconditionError("need at least 2 vertices")
    if not is_semicomplete(d):
        raise PreconditionError("digraph is not semicomplete")
    if not is_strong(d):
        raise PreconditionError("digraph is not strong")

    cycle = _seed_cycle(d)
    outside = [v for v in range(d.n) if v not in cycle]
    while outside:
        inserted = False
        for v in outside:
            pos = _insertion_point(d, cycle, v)
            if pos is not None:
                cycle.insert(pos + 1, v)
                outside.remove(v)
                inserted = True
                break
        if inserted:
            continue
        # every remaining vertex one-way dominates or is dominated by the cycle
        dominating = [v for v in outside if all(d.has_arc(v, c) for c in cycle)]
        dominated = [v for v in outside if all(d.has_arc(c, v) for c in cycle)]
        bridge = None
        for b in sorted(dominated):
            for a in sorted(dominating):
                if d.has_arc(b, a):
                    bridge = (b, a)
                    break
            if bridge:
                break
        if bridge is None:
            raise PreconditionError("digraph is not strong")  # unreachable on valid input
        b, a = bridge
        cycle.insert(1, a)
        cycle.insert(1, b)
        outside.remove(a)
        outside.remove(b)
    out = HamCycle(d, tuple(cycle))
    out.check()
    return out


def _seed_cycle(d: Digraph) -> list[int]:
    for u, v in sorted(d.arcs):
        if d.has_arc(v, u):
            return [u, v]
    # no 2-cycle: a strong tournament, which contains a directed triangle
    for x in range(d.n):
        for y in range(d.n):
            if x == y or not d.has_arc(x, y):
                continue
            for z in range(d.n):
                if z in (x, y):
                    continue
                if d.has_arc(y, z) and d.has_arc(z, x):
                    return [x, y, z]
    raise PreconditionError("digraph is not strong")


def _insertion_point(d: Digraph, cycle: list[int], v: int):
    k = len(cycle)
    for i in range(k):
        if d.has_arc(cycle[i], v) and d.has_arc(v, cycle[(i + 1) % k]):
            return i
    return None


def blowup_host(t: int, r: int) -> Digraph:
    """The directed t-cycle with every vertex replaced by r independent ones."""
    return lexicographic_product(directed_cycle(t), empty_digraph(r))


def shift_rows(t: int, r: int) -> list[list[int]]:
    """The t x r shift matrix behind ``decompose_cycle_blowup``.

    Row i column c is the cyclic shift colour c applies between layers i
    and i+1.  Rows are permutations of Z_r and each column sums to a value
    coprime to r.  No such matrix exists when t is odd and r = 2 (mod 4):
    every row sums to r/2 (mod r), so the column total over all colours is
    t*r/2, which is odd times an odd multiple of r/2 and cannot be covered
    by r odd column sums.  For r = 2 that obstruction is absolute (every
    perfect matching between 2-sets is a shift), so no decomposition of any
    kind exists; for larger such r a decomposition needs non-shift
    matchings, which this construction does not attempt.
    """
    if t < 2:
        raise PreconditionError("need t >= 2")
    if r < 1:
        raise PreconditionError("need r >= 1")
    if r == 1:
        return [[0]] * t

    ident = list(range(r))
    negate = [(-c) % r for c in range(r)]
    one_minus = [(1 - c) % r for c in range(r)]

    def pairs(count):
        rows = []
        for _ in range(count // 2):
            rows.append(ident)
            rows.append(negate)
        return rows

    if t % 2 == 0:
        rows = [ident, one_minus] + pairs(t - 2)
    elif r % 2 == 1:
        third = [(1 - 2 * c) % r for c in range(r)]
        rows = [ident, ident, third] + pairs(t - 3)
    elif r % 4 == 0:
        second, third = _odd_t_base(r)
        rows = [ident, second, third] + pairs(t - 3)
    elif r == 2:
        raise InfeasibleError(
            "no Hamiltonian decomposition exists for an odd cycle blown up "
            "by 2 (the doubled odd cycle has no pair of arc-disjoint strong "
            "spanning subgraphs)")
    else:
        raise UnsupportedCaseError(
            f"odd t with r = {r} (2 mod 4) needs non-shift matchings; "
            f"not constructed here")

    for row in rows:
        assert sorted(row) == ident
    for c in range(r):
        assert gcd(sum(rows[i][c] for i in range(t)) % r, r) == 1
    return rows


def _odd_t_base(r: int) -> tuple[list[int], list[int]]:
    """Two permutations p, q of Z_r with c + p[c] + q[c] coprime to r for
    every c (r divisible by 4).  Found by a deterministic column search."""
    sol: list[tuple[list[int], list[int]]] = []

    def backtrack(col, p, q, used_p, used_q):
        if sol:
            return
        if col == r:
            sol.append((p[:], q[:]))
            return
        for a in range(r):
            if used_p >> a & 1:
                continue
            for b in range(r):
                if used_q >> b & 1:
                    continue
                if gcd((col + a + b) % r, r) != 1:
                    continue
                p.append(a)
                q.append(b)
                backtrack(col + 1, p, q, used_p | 1 << a, used_q | 1 << b)
                p.pop()
                q.pop()
                if sol:
                    return

    backtrack(0, [], [], 0, 0)
    if not sol:
        raise UnsupportedCaseError(f"no shift base found for r={r}")
    return sol[0]


def decompose_cycle_blowup(t: int, r: int) -> HamDecomposition:
    """Partition the arcs of the cycle blow-up into r Hamiltonian cycles.

    Vertex (i, j) has id i*r + j.  Raises InfeasibleError for the two
    genuinely undecomposable shapes (odd t with r=2) and
    UnsupportedCaseError when t is odd and r = 2 (mod 4) with r >= 6.
    """
    rows = shift_rows(t, r)
    host = blowup_host(t, r)
    cycles = []
    for c in range(r):
        order = []
        i, j = 0, 0
        for _ in range(t * r):
            order.append(i * r + j)
            j = (j + rows[i][c]) % r
            i = (i + 1) % t
        cycles.append(HamCycle(host, tuple(order)))
    out = HamDecomposition(host, tuple(cycles))
    out.check()
    return out


def decompose_complete_bipartite_balanced(a: int) -> HamDecomposition:
    """The complete bipartite digraph with equal sides as a 2-cycle blow-up."""
    if a < 1:
        raise PreconditionError("need a >= 1")
    return decompose_cycle_blowup(2, a)
