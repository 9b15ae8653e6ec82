"""Hamiltonian cycles in semicomplete digraphs and Hamiltonian
decompositions of directed-cycle blow-ups.

The blow-up of a directed t-cycle by r independent vertices has vertices
(i, j) for i < t, j < r and all arcs (i, j) -> (i+1 mod t, j').  Its arcs
from layer i to layer i+1 are the r shift matchings j -> j + s (mod r).  A
decomposition into r Hamiltonian cycles is held as its shift rows alone: a
t x r matrix whose entry (i, c) is the shift colour c uses from layer i to
layer i+1.  No host digraph is built.  ``BlowupDecomposition.check`` proves
the decomposition arithmetically:

* every row is a permutation of Z_r, so the r colours use r distinct
  matchings at each interface, and these cover its r^2 arcs exactly once;
* every column sums to a unit mod r.  Once around the blow-up, colour c
  maps (0, j) to (0, j + s) with s its column sum.  That return map is one
  r-cycle, so the colour's walk visits all t*r vertices: a Hamiltonian cycle.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, NamedTuple

from .digraph import Digraph, _lowest, is_semicomplete, is_strong, mask_of
from .errors import (InfeasibleError, PreconditionError, StrongpackError,
                     UnsupportedCaseError)


def hamilton_semicomplete(d: Digraph) -> tuple[int, ...]:
    """Hamiltonian cycle of a strong semicomplete digraph, as the order in
    which it visits the vertices.

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

    out, inn = d.out, d.in_masks()
    cycle = _seed_cycle(out, inn)
    on = mask_of(cycle)
    outside = [v for v in range(d.n) if not on >> v & 1]
    while outside:
        for v in outside:
            pos = _insertion_point(cycle, out[v], inn[v])
            if pos is not None:
                cycle.insert(pos + 1, v)
                break
        else:
            # every remaining vertex one-way dominates or is dominated by the
            # cycle: join the lowest dominated b with an arc into the
            # dominating set, and its lowest out-neighbour a there
            dominating = mask_of(v for v in outside if out[v] & on == on)
            v = next((b for b in outside if inn[b] & on == on and out[b] & dominating),
                     None)
            if v is None:
                raise PreconditionError("digraph is not strong")  # unreachable on valid input
            a = _lowest(out[v] & dominating)
            cycle[1:1] = [v, a]
            on |= 1 << a
            outside.remove(a)
        on |= 1 << v
        outside.remove(v)
    if sorted(cycle) != list(range(d.n)) or any(
            not out[u] >> v & 1 for u, v in zip(cycle, cycle[1:] + cycle[:1])):
        raise StrongpackError("constructed vertex order is not a Hamiltonian cycle")
    return tuple(cycle)


def _seed_cycle(out: tuple[int, ...], inn: list[int]) -> list[int]:
    """The 2-cycle of the lowest u on one and the lowest such partner,
    else the first directed triangle x, y, z in id order."""
    for u, (x, y) in enumerate(zip(out, inn)):
        if x & y:
            return [u, _lowest(x & y)]
    # no 2-cycle: a strong tournament, which contains a directed triangle
    for x, succ in enumerate(out):
        for y in range(len(out)):
            if succ >> y & 1 and out[y] & inn[x]:
                return [x, y, _lowest(out[y] & inn[x])]
    raise PreconditionError("digraph is not strong")


def _insertion_point(cycle: list[int], out_v: int, inn_v: int):
    """The first i with cycle[i] -> v -> cycle[i+1], or None."""
    k = len(cycle)
    for i in range(k):
        if inn_v >> cycle[i] & 1 and out_v >> cycle[(i + 1) % k] & 1:
            return i
    return None


class BlowupDecomposition(NamedTuple):
    """r Hamiltonian cycles partitioning the arcs of the directed t-cycle
    blown up by r independent vertices, as shift rows: colour c goes from
    (i, j) to (i+1 mod t, j + rows[i][c] mod r)."""

    t: int
    r: int
    rows: tuple[tuple[int, ...], ...]

    def check(self) -> None:
        """Raise StrongpackError unless every row is a permutation of Z_r
        (each arc is used exactly once) and every column sums to a unit
        mod r (each colour is one Hamiltonian cycle)."""
        t, r, rows = self.t, self.r, self.rows
        if len(rows) != t:
            raise StrongpackError(f"{len(rows)} shift rows for {t} interfaces")
        for i, row in enumerate(rows):
            if sorted(row) != list(range(r)):
                raise StrongpackError(f"interface {i}: shifts {list(row)} are not "
                                      f"a permutation of Z_{r}, so colours share arcs")
        for c in range(r):
            total = sum(row[c] for row in rows) % r
            if gcd(total, r) != 1:
                raise StrongpackError(f"colour {c}: shifts sum to {total}, not a unit "
                                      f"mod {r}, so it is not one Hamiltonian cycle")

    def orders(self) -> Iterator[tuple[int, ...]]:
        """Each colour's cycle as a vertex order from (0, 0); vertex (i, j)
        has id i*r + j."""
        r = self.r
        for c in range(r):
            order, j = [], 0
            for _ in range(r):
                for i, row in enumerate(self.rows):
                    order.append(i * r + j)
                    j = (j + row[c]) % r
            yield tuple(order)


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
        return [ident, one_minus] + pairs(t - 2)
    if r % 2 == 1:
        third = [(1 - 2 * c) % r for c in range(r)]
        return [ident, ident, third] + pairs(t - 3)
    if r % 4 == 0:
        second, third = _odd_t_base(r)
        return [ident, second, third] + pairs(t - 3)
    if r == 2:
        raise InfeasibleError(
            "no Hamiltonian decomposition exists for an odd cycle blown up "
            "by 2 (the doubled odd cycle has no pair of arc-disjoint strong "
            "spanning subgraphs)")
    raise UnsupportedCaseError(
        f"odd t with r = {r} (2 mod 4) needs non-shift matchings; "
        f"not constructed here")


def _odd_t_base(r: int) -> tuple[list[int], list[int]]:
    """Two permutations p, q of Z_r with c + p[c] + q[c] coprime to r for
    every c (r divisible by 4): the first found by a depth-first search
    that fills columns in order and tries (p[c], q[c]) in lexicographic
    order, on an explicit stack so that large r cannot overflow Python's."""

    def choices(col, used_p, used_q):
        for a in range(r):
            if not used_p >> a & 1:
                for b in range(r):
                    if not used_q >> b & 1 and gcd((col + a + b) % r, r) == 1:
                        yield a, b

    p: list[int] = []
    q: list[int] = []
    used_p = used_q = 0
    stack = [choices(0, 0, 0)]
    while stack:
        pick = next(stack[-1], None)
        if pick is None:
            stack.pop()
            if p:
                used_p ^= 1 << p.pop()
                used_q ^= 1 << q.pop()
            continue
        a, b = pick
        p.append(a)
        q.append(b)
        if len(p) == r:
            return p, q
        used_p |= 1 << a
        used_q |= 1 << b
        stack.append(choices(len(p), used_p, used_q))
    raise UnsupportedCaseError(f"no shift base found for r={r}")


def decompose_cycle_blowup(t: int, r: int) -> BlowupDecomposition:
    """Partition the arcs of the cycle blow-up into r Hamiltonian cycles,
    checked arithmetically before it is returned.

    Raises InfeasibleError for the genuinely undecomposable shapes (odd t
    with r = 2) and UnsupportedCaseError when t is odd and r = 2 (mod 4)
    with r >= 6.
    """
    dec = BlowupDecomposition(t, r, tuple(tuple(row) for row in shift_rows(t, r)))
    dec.check()
    return dec
