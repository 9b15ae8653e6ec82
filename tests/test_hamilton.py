import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongpack as sp
from strongpack import packing
from strongpack.errors import InfeasibleError, PreconditionError, StrongpackError
from strongpack.hamilton import shift_rows

from conftest import (all_hamiltonian_cycles, check_decomposes_host,
                      check_hamiltonian_cycle, reference_blowup)


class TestHamiltonSemicomplete:
    def test_three_cycle(self, c3):
        order = sp.hamilton_semicomplete(c3)
        assert set(order) == {0, 1, 2}
        check_hamiltonian_cycle(c3, order)

    def test_strong_tournament(self, strong_tournament4):
        order = sp.hamilton_semicomplete(strong_tournament4)
        check_hamiltonian_cycle(strong_tournament4, order)
        # cross-check against exhaustive enumeration
        normalized = order[order.index(0):] + order[:order.index(0)]
        assert normalized in all_hamiltonian_cycles(strong_tournament4)

    def test_complete_biorientation_k3(self):
        d = sp.biorientation(3, [(0, 1), (1, 2), (0, 2)])
        check_hamiltonian_cycle(d, sp.hamilton_semicomplete(d))

    def test_two_vertices(self):
        order = sp.hamilton_semicomplete(sp.biorientation(2, [(0, 1)]))
        assert sorted(order) == [0, 1]

    def test_deterministic(self, strong_tournament4):
        a = sp.hamilton_semicomplete(strong_tournament4)
        b = sp.hamilton_semicomplete(strong_tournament4)
        assert a == b

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_enumeration_on_rotated_tournaments(self, n):
        # circulant-style strong tournaments: i beats i+1 .. i+(n-1)//2
        arcs = []
        for i in range(n):
            for step in range(1, (n - 1) // 2 + 1):
                arcs.append((i, (i + step) % n))
            if n % 2 == 0:
                if i < (i + n // 2) % n:
                    arcs.append((i, (i + n // 2) % n))
        d = sp.Digraph(n, arcs)
        if not (sp.is_semicomplete(d) and sp.is_strong(d)):
            pytest.skip("construction not strong for this n")
        order = sp.hamilton_semicomplete(d)
        check_hamiltonian_cycle(d, order)
        at0 = order.index(0)
        normalized = order[at0:] + order[:at0]
        assert normalized in all_hamiltonian_cycles(d)

    def test_rejects_non_semicomplete(self):
        with pytest.raises(PreconditionError):
            sp.hamilton_semicomplete(sp.directed_cycle(4))

    def test_rejects_non_strong(self):
        tt3 = sp.Digraph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(PreconditionError):
            sp.hamilton_semicomplete(tt3)


class TestBlowupDecomposition:
    def test_minimal_case(self):
        dec = sp.decompose_cycle_blowup(2, 1)
        assert list(dec.orders()) == [(0, 1)]

    def test_two_by_two_matches_brute_force(self):
        dec = sp.decompose_cycle_blowup(2, 2)
        dec.check()
        host = check_decomposes_host(dec)
        # enumerate every partition of the 8 arcs into two Hamiltonian cycles
        cycles = all_hamiltonian_cycles(host)
        arcsets = {frozenset(zip(c, c[1:] + c[:1])): c for c in cycles}
        partitions = []
        for a in arcsets:
            b = host.arcs - a
            if b in arcsets:
                partitions.append({a, b})
        got = {frozenset(zip(o, o[1:] + o[:1])) for o in dec.orders()}
        assert got in partitions

    @pytest.mark.parametrize("t,r", [(t, r) for t in range(2, 6) for r in range(1, 6)
                                     if not (t % 2 == 1 and r == 2)])
    def test_grid_is_exact_decomposition(self, t, r):
        dec = sp.decompose_cycle_blowup(t, r)
        assert (dec.t, dec.r) == (t, r)
        dec.check()  # arithmetic: Latin rows, unit column sums
        # partition + Hamiltonicity of every cycle on the host itself
        assert check_decomposes_host(dec).m == t * r * r

    @pytest.mark.parametrize("t", [3, 5])
    def test_odd_cycle_doubling_is_refused(self, t):
        with pytest.raises(InfeasibleError):
            sp.decompose_cycle_blowup(t, 2)

    def test_odd_cycle_doubling_truly_has_none(self):
        # every spanning cycle of the doubled host picks one of two
        # matchings per interface, and complementary choices cannot both
        # close into single cycles when t is odd
        host = reference_blowup(3, 2)
        assert sp.has_strong_arc_decomposition(host)[0] is False

    def test_deterministic(self):
        a = sp.decompose_cycle_blowup(4, 3)
        b = sp.decompose_cycle_blowup(4, 3)
        assert list(a.orders()) == list(b.orders())

    def test_large_odd_t_base_search_does_not_recurse(self):
        # the column search for odd t and r = 0 (mod 4) once recursed per
        # column and overflowed the interpreter stack at r = 1000
        dec = sp.decompose_cycle_blowup(3, 1000)
        dec.check()
        assert len(dec.rows) == 3 and all(len(row) == 1000 for row in dec.rows)

    def test_check_refuses_shared_offset(self):
        # colours 0 and 1 use the same matching between layers 1 and 2
        rows = [list(row) for row in shift_rows(4, 3)]
        rows[1][0] = rows[1][1]
        dec = sp.BlowupDecomposition(4, 3, tuple(map(tuple, rows)))
        with pytest.raises(StrongpackError, match="interface 1"):
            dec.check()

    def test_check_refuses_non_unit_sum(self):
        # both interfaces shift colour c by c: Latin, but colour c's return
        # map adds 2c, which is never a unit mod 4
        dec = sp.BlowupDecomposition(2, 4, ((0, 1, 2, 3), (0, 1, 2, 3)))
        with pytest.raises(StrongpackError, match="colour 0"):
            dec.check()
        with pytest.raises(AssertionError):
            check_decomposes_host(dec)

    def test_check_survives_optimised_mode(self):
        # python -O strips assert statements; the check must not rely on them
        code = ("import strongpack as sp\n"
                "dec = sp.BlowupDecomposition(2, 4, ((0, 1, 2, 3), (0, 1, 2, 3)))\n"
                "try:\n    dec.check()\nexcept sp.StrongpackError:\n    print('refused')\n")
        src = str(Path(sp.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout == "refused\n"

    def test_symmetric_packing_builds_each_shape_once(self, monkeypatch):
        # a bioriented 4-cycle has four outer pairs: two with a smaller
        # layer of order 3 and two with one of order 2
        built = []

        def counting(t, r):
            built.append((t, r))
            return sp.decompose_cycle_blowup(t, r)

        monkeypatch.setattr(packing, "decompose_cycle_blowup", counting)
        outer = sp.biorientation(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = sp.CompositionSpec(outer, tuple(sp.empty_digraph(r) for r in (3, 3, 2, 4)))
        result = sp.pack_symmetric_composition(spec, [0, 3])
        assert len(result.parts) == 2
        assert sorted(built) == [(2, 2), (2, 3)]

    def test_rejects_small_t(self):
        with pytest.raises(PreconditionError):
            sp.decompose_cycle_blowup(1, 3)

    def test_shift_rows_are_latin_with_coprime_sums(self):
        from math import gcd
        for t in (2, 3, 4, 5, 6, 7):
            for r in (1, 3, 4, 5, 7, 8):
                rows = shift_rows(t, r)
                assert len(rows) == t
                for row in rows:
                    assert sorted(row) == list(range(r))
                for c in range(r):
                    total = sum(rows[i][c] for i in range(t)) % r
                    assert r == 1 or gcd(total, r) == 1


class TestBalancedBipartite:
    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_decomposes(self, a):
        dec = sp.decompose_cycle_blowup(2, a)
        dec.check()
        # host is the complete bipartite digraph under the layer-major ids
        assert check_decomposes_host(dec) == sp.complete_bipartite_digraph(a, a)

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            sp.decompose_cycle_blowup(2, 0)
