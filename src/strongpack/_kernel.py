"""Search kernel for the exact packing decisions.

Two backtracking decision procedures with a fixed branching order, so their
outputs are deterministic:

* ``search_arc_disjoint``: are there ``ell`` pairwise arc-disjoint strongly
  connected subgraphs each containing every terminal?  Backtracking assigns
  each arc to one of the ``ell`` colour classes or leaves it unused.

* ``search_internally_disjoint``: additionally no two subgraphs may share a
  non-terminal vertex.  Because a non-terminal can then serve at most one
  class, the search labels non-terminal vertices (and the few arcs joining
  two terminals) instead of individual arcs, which collapses the space.

Both searches prune a class as soon as the terminals (plus whatever the
class already committed to) can no longer sit inside one strongly connected
component of "committed union still-available" material, and both stop as
soon as every class is already complete.  Graphs above ``MAX_VERTICES`` are
refused with ``SizeLimitError``; the public solvers enforce far smaller
limits anyway.

All reachability work runs on out/in-neighborhood bitmasks.
"""

from __future__ import annotations

from .errors import SizeLimitError

MAX_VERTICES = 64


def backend() -> str:
    """Name of the search kernel recorded in benchmark results; always
    'pure' (the package is pure Python)."""
    return "pure"


def _reach(adj_a, adj_b, start):
    """Closure of ``start`` under the union of two mask adjacencies."""
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            i = low.bit_length() - 1
            nxt |= adj_a[i] | adj_b[i]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _in_one_scc(adj_out, adj_in, extra_out, extra_in, pivot_bit, targets):
    """True iff every target vertex lies in the pivot's strong component."""
    fwd = _reach(adj_out, extra_out, pivot_bit)
    if targets & ~fwd:
        return False
    bwd = _reach(adj_in, extra_in, pivot_bit)
    return not (targets & ~bwd)


def search_arc_disjoint(n, arcs, s_mask, ell):
    """Find ``ell`` arc-disjoint terminal-spanning strong subgraphs.

    Returns a list of ``ell`` lists of arc indices, or None.  Deterministic:
    arcs are branched in input order, colour classes tried in ascending
    order (never opening class c+1 before class c has an arc), "unused"
    last.
    """
    m = len(arcs)
    if n > MAX_VERTICES:
        raise SizeLimitError(f"{n} vertices exceeds the exact search's limit "
                             f"of {MAX_VERTICES}")
    pivot_bit = s_mask & -s_mask

    und_out = [0] * n
    und_in = [0] * n
    for u, v in arcs:
        und_out[u] |= 1 << v
        und_in[v] |= 1 << u

    cls_out = [[0] * n for _ in range(ell + 1)]
    cls_in = [[0] * n for _ in range(ell + 1)]
    cls_verts = [0] * (ell + 1)
    complete = [False] * (ell + 1)
    label = [0] * m
    zeros = [0] * n

    state = {"used": 0, "done": 0}

    def class_complete(c):
        t = s_mask | cls_verts[c]
        return _in_one_scc(cls_out[c], cls_in[c], zeros, zeros, pivot_bit, t)

    def class_feasible(c):
        t = s_mask | cls_verts[c]
        return _in_one_scc(cls_out[c], cls_in[c], und_out, und_in, pivot_bit, t)

    def degree_ok(v):
        # every class that touches v (or will, via the terminals) still
        # needs an in and an out arc there unless it already has one
        need_out = need_in = 0
        vbit = 1 << v
        for c in range(1, ell + 1):
            if complete[c]:
                continue
            if (s_mask | cls_verts[c]) & vbit:
                if not cls_out[c][v]:
                    need_out += 1
                if not cls_in[c][v]:
                    need_in += 1
        return (need_out <= bin(und_out[v]).count("1")
                and need_in <= bin(und_in[v]).count("1"))

    def all_feasible():
        for c in range(1, ell + 1):
            if not complete[c] and not class_feasible(c):
                return False
        return True

    def solve(idx):
        if state["done"] == ell:
            # success: arcs from idx on stay unused
            for i in range(idx, m):
                label[i] = 0
            return True
        if idx == m:
            return False
        u, v = arcs[idx]
        ubit, vbit = 1 << u, 1 << v
        und_out[u] &= ~vbit
        und_in[v] &= ~ubit

        cap = min(state["used"] + 1, ell)
        for c in range(1, cap + 1):
            if complete[c]:
                continue
            opened = cls_verts[c] == 0
            old_verts = cls_verts[c]
            cls_out[c][u] |= vbit
            cls_in[c][v] |= ubit
            cls_verts[c] |= ubit | vbit
            if opened:
                state["used"] += 1
            finished = class_complete(c)
            if finished:
                complete[c] = True
                state["done"] += 1
            label[idx] = c
            if degree_ok(u) and degree_ok(v) and all_feasible() and solve(idx + 1):
                return True
            if finished:
                complete[c] = False
                state["done"] -= 1
            if opened:
                state["used"] -= 1
            cls_out[c][u] &= ~vbit
            cls_in[c][v] &= ~ubit
            cls_verts[c] = old_verts
        label[idx] = 0
        if degree_ok(u) and degree_ok(v) and all_feasible() and solve(idx + 1):
            return True
        und_out[u] |= vbit
        und_in[v] |= ubit
        return False

    # root-level degree check: unused classes still need arcs at terminals
    s = s_mask
    while s:
        low = s & -s
        s ^= low
        if not degree_ok(low.bit_length() - 1):
            return None
    if not all_feasible():
        return None
    if not solve(0):
        return None
    parts = [[] for _ in range(ell)]
    for idx in range(m):
        if label[idx]:
            parts[label[idx] - 1].append(idx)
    return parts


def search_internally_disjoint(n, arcs, s_mask, ell):
    """Find ``ell`` arc-disjoint strong subgraphs meeting pairwise exactly
    in the terminal set.

    Variables are the non-terminal vertices followed by the terminal-to-
    terminal arcs; each gets a class 1..ell or 0 (unused).  A class's
    subgraph is every arc both of whose endpoints it owns (terminals are
    shared), so classes never share an arc or an inner vertex.

    Returns ``ell`` lists of arc indices or None.  Deterministic.
    """
    m = len(arcs)
    if n > MAX_VERTICES:
        raise SizeLimitError(f"{n} vertices exceeds the exact search's limit "
                             f"of {MAX_VERTICES}")
    pivot_bit = s_mask & -s_mask

    base_out = [0] * n  # arcs with at least one non-terminal endpoint
    base_in = [0] * n
    ss_arcs = []        # indices of terminal-terminal arcs
    for idx, (u, v) in enumerate(arcs):
        if (s_mask >> u & 1) and (s_mask >> v & 1):
            ss_arcs.append(idx)
        else:
            base_out[u] |= 1 << v
            base_in[v] |= 1 << u

    free_verts = [v for v in range(n) if not (s_mask >> v & 1)]
    nvars = len(free_verts) + len(ss_arcs)

    ss_label = [-1] * len(ss_arcs)  # -1 unassigned, 0 unused, 1..ell
    cls_vmask = [0] * (ell + 1)
    unassigned_mask = 0
    for v in free_verts:
        unassigned_mask |= 1 << v

    state = {"used": 0, "done": 0, "unassigned": unassigned_mask}
    complete = [False] * (ell + 1)
    zeros = [0] * n

    def build(c, potential):
        """Adjacency of class c, optionally including unassigned material."""
        allowed = s_mask | cls_vmask[c]
        if potential:
            allowed |= state["unassigned"]
        out = [0] * n
        inn = [0] * n
        a = allowed
        while a:
            low = a & -a
            a ^= low
            u = low.bit_length() - 1
            out[u] = base_out[u] & allowed
            inn[u] = base_in[u] & allowed
        for k, idx in enumerate(ss_arcs):
            lab = ss_label[k]
            if lab == c or (potential and lab == -1):
                u, v = arcs[idx]
                out[u] |= 1 << v
                inn[v] |= 1 << u
        return out, inn

    def class_complete(c):
        out, inn = build(c, potential=False)
        t = s_mask | cls_vmask[c]
        return _in_one_scc(out, inn, zeros, zeros, pivot_bit, t)

    def class_feasible(c):
        out, inn = build(c, potential=True)
        t = s_mask | cls_vmask[c]
        return _in_one_scc(out, inn, zeros, zeros, pivot_bit, t)

    def all_feasible():
        for c in range(1, ell + 1):
            if not complete[c] and not class_feasible(c):
                return False
        return True

    def assign(pos, value):
        if pos < len(free_verts):
            v = free_verts[pos]
            state["unassigned"] &= ~(1 << v)
            if value > 0:
                cls_vmask[value] |= 1 << v
        else:
            ss_label[pos - len(free_verts)] = value

    def unassign(pos, value):
        if pos < len(free_verts):
            v = free_verts[pos]
            state["unassigned"] |= 1 << v
            if value > 0:
                cls_vmask[value] &= ~(1 << v)
        else:
            ss_label[pos - len(free_verts)] = -1

    def solve(pos):
        if state["done"] == ell:
            return True
        if pos == nvars:
            return False
        cap = min(state["used"] + 1, ell)
        for c in range(1, cap + 1):
            if complete[c]:
                continue
            opened = cls_vmask[c] == 0 and not _class_used_ss(c)
            assign(pos, c)
            if opened:
                state["used"] += 1
            finished = class_complete(c)
            if finished:
                complete[c] = True
                state["done"] += 1
            if all_feasible():
                if state["done"] == ell or solve(pos + 1):
                    return True
            if finished:
                complete[c] = False
                state["done"] -= 1
            if opened:
                state["used"] -= 1
            unassign(pos, c)
        assign(pos, 0)
        if all_feasible() and solve(pos + 1):
            return True
        unassign(pos, 0)
        return False

    def _class_used_ss(c):
        return any(lab == c for lab in ss_label)

    if not all_feasible():
        return None
    if not solve(0):
        return None

    ss_set = set(ss_arcs)
    parts = []
    for c in range(1, ell + 1):
        allowed = s_mask | cls_vmask[c]
        chosen = []
        for idx, (u, v) in enumerate(arcs):
            if idx in ss_set:
                continue
            if (allowed >> u & 1) and (allowed >> v & 1):
                chosen.append(idx)
        for k, idx in enumerate(ss_arcs):
            if ss_label[k] == c:
                chosen.append(idx)
        parts.append(sorted(chosen))
    return parts
