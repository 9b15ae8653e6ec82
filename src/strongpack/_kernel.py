"""Search kernel for the exact packing decisions.

One backtracking decision procedure with a fixed branching order, so its
outputs and node counts are deterministic: are there ``ell`` pairwise
arc-disjoint strongly connected subgraphs each containing every terminal?
It assigns each arc to one of the ``ell`` colour classes or leaves it
unused.  ``search_arc_disjoint`` runs it on the caller's host.

``search_internally_disjoint`` adds that no two subgraphs share a
non-terminal vertex, and runs the same search on the split host: a
non-terminal v keeps id v as its entry and gets an exit, joined by the one
split arc v -> exit(v), and every arc u->w becomes exit(u) -> w (terminals
stay single).  A class that holds an arc into or out of v must hold the
split arc, since it is v's only way on or back, so two classes never share
v; contracting the split arcs turns each class back into a strong subgraph
of the host.  The split arcs come first, so the search settles which
class, if any, owns each non-terminal before it looks at the other arcs.
Hosts above ``MAX_VERTICES`` are refused with ``SizeLimitError``; the cap
applies to the caller's host, so a split host may go above it.

The search prunes a class as soon as its targets (the terminals plus every
vertex the class already touches) can no longer sit inside one strongly
connected component of "committed union still-available" arcs, and stops
as soon as every class is complete.  It also skips a dominated "unused"
branch: at arc u->v, when a class offered earlier at the same level already
has u and v among its targets.  Any packing below "unused" stays a packing
once u->v joins that class, since the class keeps its vertex set, and that
class's subtree was searched first, so the skipped subtree holds none.
This leaves every result as it was and lowers only the node counts.

The search is iterative: the path from the root is kept in arrays indexed
by depth (one level per arc), so a host with thousands of arcs needs no
recursion.  A node is one visit of a level, root included; a caller-owned
``counters`` dict receives the node count and the prunes by reason,
``degree``, ``feasibility`` and ``dominated``.

The search reuses its parent's pruning work.  Each open class
c keeps the pivot terminal's forward and backward closures F_c and B_c in
its potential graph (class arcs plus the pool of undecided arcs), whose
strong component S_c = F_c & B_c must hold the class's targets; the
classes not yet opened share one such pair for the bare pool.

* Colouring u->v into c leaves c's potential graph unchanged, so c stays
  feasible iff u and v are in S_c.
* Removing u->v from the pool changes S_c only if u is in F_c and v in B_c:
  a closed walk through the pivot that uses u->v puts u in F_c and v in B_c.
  Otherwise the closures are kept as they are.  They may then be supersets
  of the true ones, but their intersection stays exactly S_c, and a
  superset only makes this test recheck more often.
* A recheck recomputes F from the pivot and stops as soon as v is reached:
  then F is unchanged, since everything u->v led to is still reachable.
  Likewise B stops once u is reached.  A closure that runs to the end is
  exact and replaces the cached one.

The class-only closures behind the completion test only grow: adding u->v
extends F from v when u is in F and v is not, and B from u symmetrically.
Every change is undone on backtrack, the closures through a trail.

All reachability work runs on out/in-neighborhood bitmasks, which are
Python ints of any width.
"""

from __future__ import annotations

from .errors import SizeLimitError

MAX_VERTICES = 64


def backend() -> str:
    """Name of the search kernel recorded in benchmark results; always
    'pure' (the package is pure Python)."""
    return "pure"


def _closure(adj_a, adj_b, frontier, seen=0, stop=0):
    """``seen`` grown by ``frontier`` and everything reachable from it
    under the union of two mask adjacencies, or None as soon as a vertex
    of ``stop`` is reached."""
    seen |= frontier
    while frontier:
        if frontier & stop:
            return None
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            nxt |= adj_a[i] | adj_b[i]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def _check_size(n):
    if n > MAX_VERTICES:
        raise SizeLimitError(f"{n} vertices exceeds the exact search's limit "
                             f"of {MAX_VERTICES}")


def _record(counters, nodes, degree, feasibility, dominated):
    if counters is not None:
        for key, value in (("nodes", nodes), ("degree", degree),
                           ("feasibility", feasibility), ("dominated", dominated)):
            counters[key] = counters.get(key, 0) + value


def search_arc_disjoint(n, arcs, s_mask, ell, counters=None):
    """Find ``ell`` arc-disjoint terminal-spanning strong subgraphs.

    Returns a list of ``ell`` lists of arc indices, or None.  Deterministic:
    arcs are branched in input order, colour classes tried in ascending
    order (never opening class c+1 before class c has an arc), "unused"
    last.
    """
    _check_size(n)
    return _search(n, arcs, s_mask, ell, counters)


def search_internally_disjoint(n, arcs, s_mask, ell, counters=None):
    """Find ``ell`` arc-disjoint strong subgraphs meeting pairwise exactly
    in the terminal set: the arc-disjoint search on the split host (see
    the module docstring).  Returns ``ell`` sorted lists of arc indices, or
    None.  Deterministic."""
    _check_size(n)
    inner = [v for v in range(n) if not s_mask >> v & 1]
    k = len(inner)
    exit_of = list(range(n))
    for i, v in enumerate(inner):
        exit_of[v] = n + i
    split = [(v, exit_of[v]) for v in inner] + [(exit_of[u], v) for u, v in arcs]
    found = _search(n + k, split, s_mask, ell, counters)
    if found is None:
        return None
    return [[i - k for i in part if i >= k] for part in found]


def _search(n, arcs, s_mask, ell, counters):
    """The search of the module docstring; the callers check the size."""
    m = len(arcs)
    pivot = s_mask & -s_mask
    zeros = [0] * n
    pool_out = [0] * n
    pool_in = [0] * n
    for u, v in arcs:
        pool_out[u] |= 1 << v
        pool_in[v] |= 1 << u

    # Per class 1..ell; index 0 stands for every class not opened yet.
    k = ell + 1
    cls_out = [[0] * n for _ in range(k)]
    cls_in = [[0] * n for _ in range(k)]
    has_out = [0] * k       # vertices with an out-arc in the class
    has_in = [0] * k
    cf = [pivot] * k        # pivot's closures in the class graph
    cb = [pivot] * k
    pf = [0] * k            # ... in the class graph plus the pool
    pb = [0] * k
    complete = [False] * k
    used = done = 0
    nodes = degree_prunes = feasibility_prunes = dominated = 0

    frames = [None] * m     # per depth: the arc and what its branches share
    next_branch = [0] * m
    undo = [None] * m       # what the branch taken at each depth changed
    trail = []              # (class, pf, pb) overwritten below some depth

    def after_removal(c, u, v):
        """Class c's closures once u->v has left the pool: True when the
        cached ones stand, False when the targets no longer fit in one
        strong component, else the new pair."""
        f, b = pf[c], pb[c]
        if not (f >> u & 1 and b >> v & 1):
            return True
        targets = s_mask | has_out[c] | has_in[c]
        exact_f = _closure(cls_out[c], pool_out, pivot, stop=1 << v)
        if exact_f is not None:
            if targets & ~exact_f:
                return False
            f = exact_f
        exact_b = _closure(cls_in[c], pool_in, pivot, stop=1 << u)
        if exact_b is not None:
            b = exact_b
        if targets & ~(f & b):
            return False
        return True if exact_f is exact_b is None else (f, b)

    def grow(c, u, v):
        """Class c's closures in its own graph once u->v joins it, and
        whether they then hold all its targets.  The closures only grow,
        and the new arc matters only from the endpoint they already hold."""
        ubit, vbit = 1 << u, 1 << v
        f, b = cf[c], cb[c]
        if f & ubit and not f & vbit:
            f = _closure(cls_out[c], zeros, vbit, f)
        if b & vbit and not b & ubit:
            b = _closure(cls_in[c], zeros, ubit, b)
        return f, b, not (s_mask | has_out[c] | has_in[c] | ubit | vbit) & ~(f & b)

    def revert(idx):
        nonlocal used, done
        c, was_used, finished, saved, mark = undo[idx]
        undo[idx] = None
        while len(trail) > mark:
            j, pf[j], pb[j] = trail.pop()
        if c:
            u, v = arcs[idx]
            cls_out[c][u] &= ~(1 << v)
            cls_in[c][v] &= ~(1 << u)
            has_out[c], has_in[c], cf[c], cb[c], pf[c], pb[c] = saved
            used = was_used
            if finished:
                complete[c] = False
                done -= 1

    try:
        # root: every class still needs an arc each way at every terminal
        for t in range(n):
            if s_mask >> t & 1 and ell > min(pool_out[t].bit_count(),
                                             pool_in[t].bit_count()):
                degree_prunes += 1
                return None
        pf[0] = _closure(pool_out, zeros, pivot)
        pb[0] = _closure(pool_in, zeros, pivot)
        if s_mask & ~(pf[0] & pb[0]):
            feasibility_prunes += 1
            return None

        idx = 0
        while True:
            nodes += 1
            if done == ell:
                break
            if idx < m:
                u, v = arcs[idx]
                ubit, vbit = 1 << u, 1 << v
                pool_out[u] &= ~vbit
                pool_in[v] &= ~ubit
                live = [c for c in range(1, used + 1) if not complete[c]]
                # slack of the degree test at u and v: arcs left in the
                # pool minus the live classes that still lack one there
                # (a class not opened yet lacks both at every terminal)
                su, sv = s_mask >> u & 1, s_mask >> v & 1
                spare = ell - used
                out_u = pool_out[u].bit_count() - spare * su
                in_u = pool_in[u].bit_count() - spare * su
                out_v = pool_out[v].bit_count() - spare * sv
                in_v = pool_in[v].bit_count() - spare * sv
                for c in live:
                    ho, hi = has_out[c], has_in[c]
                    lack_out, lack_in = (s_mask | hi) & ~ho, (s_mask | ho) & ~hi
                    out_u -= lack_out >> u & 1
                    in_u -= lack_in >> u & 1
                    out_v -= lack_out >> v & 1
                    in_v -= lack_in >> v & 1
                todo = live + [used + 1, 0] if spare else live + [0]
                checks = live + [0] if spare else live
                frames[idx] = (u, v, ubit, vbit, todo, checks, [None] * k,
                               out_u, in_u, out_v, in_v)
                next_branch[idx] = 0
            else:
                idx -= 1
            # take the next branch that passes at the deepest level left
            while idx >= 0:
                if undo[idx] is not None:
                    revert(idx)
                (u, v, ubit, vbit, todo, checks, memo,
                 out_u, in_u, out_v, in_v) = frames[idx]
                p = next_branch[idx]
                while p < len(todo):
                    c = todo[p]
                    p += 1
                    finished = None     # not worked out unless needed
                    if c:
                        new = c > used
                        src = 0 if new else c
                        ho, hi = has_out[c], has_in[c]
                        # colouring keeps c's potential graph, so c stays
                        # feasible iff u and v are in its strong component
                        # (a class that completes passes this too)
                        own_ok = not (ubit | vbit) & ~(pf[src] & pb[src])
                        # degree slack: c's lacks at u and v before the arc
                        # come back, those after it (an in-arc at u, an
                        # out-arc at v) count unless c completes
                        if new:
                            d_out_u = d_in_u = s_mask >> u & 1
                            d_out_v = d_in_v = s_mask >> v & 1
                        else:
                            lack_out, lack_in = (s_mask | hi) & ~ho, (s_mask | ho) & ~hi
                            d_out_u = lack_out >> u & 1
                            d_in_u = lack_in >> u & 1
                            d_out_v = lack_out >> v & 1
                            d_in_v = lack_in >> v & 1
                        after_u, after_v = not hi & ubit, not ho & vbit
                        if own_ok and (in_u + d_in_u < after_u or out_v + d_out_v < after_v):
                            f, b, finished = grow(c, u, v)
                            if finished:
                                after_u = after_v = 0
                        degree = (out_u + d_out_u >= 0 and in_v + d_in_v >= 0
                                  and in_u + d_in_u >= after_u and out_v + d_out_v >= after_v)
                    elif any(not (ubit | vbit) & ~(s_mask | has_out[j] | has_in[j])
                             for j in todo[:-1]):
                        # a class offered first already spans u and v
                        dominated += 1
                        continue
                    else:
                        new, own_ok = False, True
                        degree = out_u >= 0 and in_u >= 0 and out_v >= 0 and in_v >= 0
                    if not degree:
                        degree_prunes += 1
                        continue
                    if not own_ok:
                        feasibility_prunes += 1
                        continue
                    # the other live classes lose the arc from their pool,
                    # and so do the unopened ones unless c was the last
                    excluded = (c, 0) if new and c == ell else (c,) if c else ()
                    for j in checks:
                        if j in excluded:
                            continue
                        got = memo[j]
                        if got is None:
                            got = memo[j] = after_removal(j, u, v)
                        if got is False:
                            break
                    else:
                        break
                    feasibility_prunes += 1
                else:
                    pool_out[u] |= vbit
                    pool_in[v] |= ubit
                    idx -= 1
                    continue
                # take branch c
                if c and finished is None:
                    f, b, finished = grow(c, u, v)
                undo[idx] = (c, used, finished,
                             (has_out[c], has_in[c], cf[c], cb[c], pf[c], pb[c]),
                             len(trail))
                if c:
                    if new:
                        pf[c], pb[c] = pf[0], pb[0]
                        used = c
                    cls_out[c][u] |= vbit
                    cls_in[c][v] |= ubit
                    has_out[c] |= ubit
                    has_in[c] |= vbit
                    cf[c], cb[c] = f, b
                    if finished:
                        complete[c] = True
                        done += 1
                for j in checks:
                    if j in excluded:
                        continue
                    got = memo[j]
                    if got is not True:
                        trail.append((j, pf[j], pb[j]))
                        pf[j], pb[j] = got
                next_branch[idx] = p
                idx += 1
                break
            else:
                return None
    finally:
        _record(counters, nodes, degree_prunes, feasibility_prunes, dominated)

    # success: arcs below the current depth stay unused
    parts = [[] for _ in range(ell)]
    for depth in range(idx):
        c = undo[depth][0]
        if c:
            parts[c - 1].append(depth)
    return parts


