"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every expected value here is either hand-checkable or produced by an
independent brute-force oracle inside the test.
"""

import itertools
import random
import time

import pytest

import strongpack as sp
from strongpack.errors import InfeasibleError
from strongpack.exact import SolverLimits
from strongpack.generators import (random_composition, random_inner, random_strong_semicomplete,
                                   random_strong_symmetric)

from conftest import check_decomposes_host, reference_blowup
from oracles import (cover_packing_number, has_disjoint_paths, is_two_colorable, lambda_k,
                     min_semi_degree, min_strong_cut_exhaustive)

WIDE = SolverLimits(max_vertices=10, max_arcs=48)


def report(num, ok, text, started=None, budget=None):
    note = ""
    if started is not None:
        elapsed = time.perf_counter() - started
        note = f" [{elapsed:.2f}s of {budget:.0f}s budget]"
        ok = ok and elapsed < budget
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}{note}")
    assert ok, f"criterion {num} failed: {text}{note}"


def test_criterion_01_bipartite_packing_equality():
    """Complete bipartite hosts: the construction yields exactly a parts,
    every terminal set packs at least a, and the k-minimum equals a."""
    started = time.perf_counter()
    checked = 0
    for a in range(1, 5):
        for b in range(a, 5):
            packing = sp.pack_bipartite(a, b)
            assert len(packing.parts) == a
            assert sp.verify_packing(packing).ok
            if a + b > 7:
                continue
            host = sp.complete_bipartite_digraph(a, b)
            per_k = {k: [] for k in range(2, a + b + 1)}
            for k in range(2, a + b + 1):
                for S in itertools.combinations(range(a + b), k):
                    value = sp.exact_lambda(host, S, WIDE)[0]
                    assert value >= a, (a, b, S, value)
                    per_k[k].append(value)
                    checked += 1
            for k, values in per_k.items():
                assert min(values) == a, (a, b, k)
    report(1, True, f"bipartite packings exact on {checked} terminal sets",
           started, 60)


def test_criterion_02_blowup_decomposition_grid():
    """Cycle blow-ups split into r Hamiltonian cycles covering all t*r*r
    arcs exactly once; the two genuinely undecomposable shapes (odd cycle
    doubled) are refused rather than faked."""
    started = time.perf_counter()
    decomposed = refused = 0
    for t in range(2, 6):
        for r in range(1, 6):
            if t % 2 == 1 and r == 2:
                with pytest.raises(InfeasibleError):
                    sp.decompose_cycle_blowup(t, r)
                # the refusal is honest: the doubled host really has no
                # pair of arc-disjoint strong spanning subgraphs
                assert sp.has_strong_arc_decomposition(reference_blowup(t, r))[0] is False
                refused += 1
                continue
            dec = sp.decompose_cycle_blowup(t, r)
            dec.check()
            assert check_decomposes_host(dec).m == t * r * r
            decomposed += 1
    report(2, True, f"{decomposed} grids decomposed, {refused} impossible "
                    f"shapes refused with proof", started, 1)


def test_criterion_03_exceptional_hosts_versus_random():
    """No strong arc decomposition on the three exceptional compositions;
    decompositions found on random non-exceptional semicomplete
    compositions with smallest layer 2."""
    started = time.perf_counter()
    for _, member in sp.EXCEPTIONAL_COMPOSITIONS:
        flag, _ = sp.has_strong_arc_decomposition(member, WIDE)
        assert flag is False
    rng = random.Random(1803)
    found = 0
    while found < 10:
        t = rng.choice([3, 4])
        outer = random_strong_semicomplete(t, rng)
        cand = sp.CompositionSpec(outer, [random_inner(rng.randint(2, 3), 0.1, rng)
                                          for _ in range(t)])
        if cand.n0 != 2 or cand.n > 9:
            continue
        host = sp.compose(cand)
        if host.m > WIDE.max_arcs:
            continue
        if sp.is_in_exceptional(host).member:
            continue
        flag, halves = sp.has_strong_arc_decomposition(host, WIDE)
        assert flag is True, (cand.outer, [h.n for h in cand.inners])
        a, b = halves
        assert a | b == host.arcs and not (a & b)
        found += 1
    report(3, True, f"3 exceptional hosts refuted, {found} random hosts "
                    f"decomposed", started, 300)


def test_criterion_04_composition_packings_random():
    """Symmetric-outer and semicomplete-outer compositions: the
    construction returns n0 verified parts and never beats the exact
    packing number."""
    started = time.perf_counter()
    rng = random.Random(46)
    done_sym = done_semi = 0
    while done_sym < 20 or done_semi < 20:
        symmetric = (done_sym < 20 and (done_semi >= 20 or rng.random() < 0.5))
        t = rng.choice([2, 3])
        if symmetric:
            outer = random_strong_symmetric(t, rng.randint(0, 1), rng)
            spec = sp.CompositionSpec(outer, [random_inner(rng.randint(1, 3), 0.15, rng)
                                              for _ in range(t)])
        else:
            spec = random_composition(t, 3, rng, symmetric=False)
        if spec.n > 9:
            continue
        host = sp.compose(spec)
        if host.m > 26:
            continue
        if not symmetric and sp.is_in_exceptional(host).member:
            continue
        k = rng.randint(2, host.n)
        terminals = sorted(rng.sample(range(host.n), k))
        if symmetric:
            packing = sp.pack_symmetric_composition(spec, terminals)
        else:
            packing = sp.pack_semicomplete_composition(spec, terminals)
        assert len(packing.parts) == spec.n0
        assert sp.verify_packing(packing).ok
        exact = sp.exact_lambda(host, terminals, WIDE)[0]
        assert spec.n0 <= exact, (spec.outer, [h.n for h in spec.inners],
                                  terminals, exact)
        if symmetric:
            done_sym += 1
        else:
            done_semi += 1
    report(4, True, f"{done_sym} symmetric and {done_semi} semicomplete "
                    f"composition packings verified against the exact solver",
           started, 600)


def test_criterion_05_uniform_triangle_blowup_sharpness():
    """The triangle blow-up by r packs exactly r parts, matching the
    minimum semi-degree; for r=3 the exact solver agrees."""
    for r in (3, 4):
        spec = sp.CompositionSpec(sp.directed_cycle(3),
                                  tuple(sp.empty_digraph(r) for _ in range(3)))
        host = sp.compose(spec)
        packing = sp.pack_semicomplete_composition(spec, [0, r])
        assert len(packing.parts) == r
        assert sp.verify_packing(packing).ok
        assert min_semi_degree(host) == r
        if r == 3:
            assert sp.exact_lambda(host, range(host.n), WIDE)[0] == 3
            assert lambda_k(host, 2, WIDE) == 3
    report(5, True, "triangle blow-ups by 3 and 4 are tight")


def test_criterion_06_hypergraph_gadget_iff_exhaustive():
    """2-colorability matches the internal packing target on every
    hypergraph with up to 4 vertices and 3 edges, for targets 2 and 3."""
    started = time.perf_counter()
    checked = 0
    for n in range(1, 5):
        subsets = [frozenset(c) for r in range(1, n + 1)
                   for c in itertools.combinations(range(n), r)]
        for e in range(1, 4):
            for edges in itertools.combinations(subsets, e):
                h = sp.Hypergraph(n, edges)
                colorable = is_two_colorable(h)
                for ell in (2, 3):
                    out = sp.hypergraph_gadget(h, ell)
                    kappa = sp.exact_kappa(out.digraph, out.terminals, WIDE)[0]
                    assert (kappa >= ell) == colorable, (n, edges, ell)
                    checked += 1
    report(6, True, f"gadget equivalence exhaustive over {checked} cases",
           started, 600)


LINKAGE_INSTANCES = [
    # (digraph, s1, t1, s2, t2, expected linkage)
    (sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 1, 2, 3, True),
    (sp.Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 2, 1, 3, False),
    (sp.Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 0, 1, 3, 4, True),
    (sp.Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 0, 4, 3, 1, False),
    (sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 1, 2, 3, True),
    (sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 2, 1, 3, False),
]


def test_criterion_07_linkage_gadget_iff_handmade():
    """Hand-built Eulerian instances, positive and negative: vertex-disjoint
    connections exist exactly when the gadget reaches packing 2, and the
    gadget stays Eulerian."""
    assert len(LINKAGE_INSTANCES) >= 5
    positives = negatives = 0
    for d, s1, t1, s2, t2, expect in LINKAGE_INSTANCES:
        assert sp.is_eulerian(d)
        assert has_disjoint_paths(d, s1, t1, s2, t2) == expect
        out = sp.linkage_gadget(d, s1, t1, s2, t2, 2, 2)
        assert sp.is_eulerian(out.digraph)
        kappa = sp.exact_kappa(out.digraph, out.terminals, WIDE)[0]
        assert (kappa >= 2) == expect, (s1, t1, s2, t2, kappa)
        positives += expect
        negatives += not expect
    report(7, True, f"{positives} positive and {negatives} negative linkage "
                    f"instances agree with the gadget")


def test_criterion_08_cover_packing_gadgets_exhaustive():
    """Disjoint-cover count equals both gadget packing numbers on every
    two-sided graph with up to 3 vertices per side."""
    started = time.perf_counter()
    checked = 0
    for c in range(0, 4):
        for b in range(1, 4):
            cells = [(x, y) for x in range(c) for y in range(b)]
            for bits in range(1 << len(cells)):
                edges = [cells[i] for i in range(len(cells)) if bits >> i & 1]
                g = sp.BipartiteGraph(c, b, edges)
                want = cover_packing_number(g)
                internal = sp.cover_packing_gadget_internal(g)
                arc = sp.cover_packing_gadget_arc(g)
                assert sp.exact_kappa(internal.digraph, internal.terminals, WIDE)[0] == want
                assert sp.exact_lambda(arc.digraph, arc.terminals, WIDE)[0] == want
                checked += 1
    report(8, True, f"cover-packing equalities exhaustive over {checked} "
                    f"graphs", started, 600)


def test_criterion_09_cut_relations_random_symmetric():
    """On random strong symmetric hosts the packing number never exceeds
    the directed cut, the directed cut never exceeds twice the undirected
    cut, and the flow cut matches subset enumeration."""
    from strongpack.generators import random_strong_symmetric
    rng = random.Random(905)
    checked = 0
    while checked < 50:
        n = rng.randint(4, 8)
        d = random_strong_symmetric(n, rng.randint(0, 3), rng)
        if d.m > 26:
            continue
        k = rng.randint(2, min(5, n))
        terminals = sorted(rng.sample(range(n), k))
        lam = sp.exact_lambda(d, terminals)[0]
        cert = sp.min_strong_cut(d, terminals)
        c1 = sp.steiner_cut_undirected(d, terminals)
        assert lam <= cert.size, (checked, terminals)
        assert cert.size <= 2 * c1, (checked, terminals)
        assert cert.size == min_strong_cut_exhaustive(d, terminals), (checked,)
        checked += 1
    report(9, True, f"{checked} random symmetric hosts satisfy both cut "
                    f"inequalities and the flow/enumeration agreement")


def test_criterion_10_oracle_sanity_random():
    """Internal packing never beats arc packing, arc packing shrinks as
    terminals grow and never beats the terminal degree bound; with every
    vertex terminal it also respects the host degree bound."""
    rng = random.Random(1006)
    trials = 0
    while trials < 200:
        n = rng.randint(3, 8)
        pool = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(pool)
        d = sp.Digraph(n, pool[:rng.randint(2, 16)])
        k = rng.randint(2, n)
        terminals = sorted(rng.sample(range(n), k))
        lam = sp.exact_lambda(d, terminals)[0]
        kap = sp.exact_kappa(d, terminals)[0]
        assert kap <= lam, (d, terminals)
        assert lam <= sp.terminal_semi_degree(d, terminals), (d, terminals)
        if k >= 3:
            smaller = terminals[:-1]
            assert lam <= sp.exact_lambda(d, smaller)[0], (d, terminals)
        assert sp.exact_lambda(d, range(n))[0] <= min_semi_degree(d), d
        trials += 1
    report(10, True, "200 random instances show zero oracle violations")
