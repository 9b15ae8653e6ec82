"""Golden bytes: SHA-256 digests of the host and packing files that the
constructive packers write on seeded instances, and of the
``strongpack decompose T R`` output.

The digests in ``golden_packings.json`` pin the exact output format and
the exact choices the constructions make (cycle orders, part order, arc
order, shift rows).  A change to the digraph core, the packers or the
blow-up decompositions that alters a single byte fails here.  To record
the digests again after an intended format change, run
``PYTHONPATH=src python tests/test_golden.py > tests/golden_packings.json``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

import strongpack as sp
from strongpack import generators as gen
from strongpack.cli import main

GOLDEN = Path(__file__).with_name("golden_packings.json")
OUTER_ORDERS = (5, 12, 20)
DROPPED = {"n0six": 6, "n0ten": 10}     # n0 of the dropped-layer spine cases


def _sizes(rng, t):
    # at least 3 per layer and never 6, so n0 >= 3 and these digests pin
    # the Hamiltonian-spine construction (odd t with n0 = 6 would drop a
    # layer); n0 = 2 has its own cases
    sizes = [rng.randint(3, 9) for _ in range(t)]
    return [s if s != 6 else 7 for s in sizes]


def _qt_inner(size, rng):
    """Quasi-transitive, non-strong inner: arcs only from a random side A
    to the rest, with a connected underlying complement so the canonical
    decomposition recovers it as one part (else the independent set)."""
    side_a = {v for v in range(size) if rng.random() < 0.5}
    arcs = [(u, v) for (u, v) in gen.random_inner(size, 0.3, rng).arcs
            if u in side_a and v not in side_a]
    inner = sp.Digraph(size, arcs)
    adjacent = {frozenset(a) for a in inner.arcs}
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v in range(size):
            if v not in seen and frozenset((u, v)) not in adjacent:
                seen.add(v)
                todo.append(v)
    return inner if len(seen) == size else sp.empty_digraph(size)


def _case(kind, t):
    """(host, packing) for one seeded instance."""
    rng = random.Random(f"golden:{kind}:{t}")
    if kind == "semicomplete":
        outer = gen.random_strong_semicomplete(t, rng)
        spec = sp.CompositionSpec(outer, [gen.random_inner(s, 0.15, rng)
                                          for s in _sizes(rng, t)])
        ts = sorted(rng.sample(range(spec.n), 3))
        return sp.compose(spec), sp.pack_semicomplete_composition(spec, ts)
    if kind == "symmetric":
        outer = gen.random_strong_symmetric(t, 2, rng)
        spec = sp.CompositionSpec(outer, [gen.random_inner(s, 0.15, rng)
                                          for s in _sizes(rng, t)])
        ts = sorted(rng.sample(range(spec.n), 3))
        return sp.compose(spec), sp.pack_symmetric_composition(spec, ts)
    if kind == "qt":
        outer = gen.random_strong_semicomplete(t, rng, two_cycle_prob=0.0)
        spec = sp.CompositionSpec(outer, [_qt_inner(s, rng) for s in _sizes(rng, t)])
        perm = list(range(spec.n))
        rng.shuffle(perm)
        host = sp.relabel(sp.compose(spec), perm)
        ts = sorted(rng.sample(range(host.n), 3))
        return host, sp.pack_quasi_transitive(host, ts)
    if kind == "n0two":
        # t = 3 uses a C3 outer: a core search plus leftover vertices; odd
        # t >= 5 drops a layer from the spine; even t keeps all of them
        outer = sp.directed_cycle(3) if t == 3 else gen.random_strong_semicomplete(t, rng)
        sizes = [rng.randint(4, 9) for _ in range(t)]
        sizes[rng.randrange(t)] = 2
        spec = sp.CompositionSpec(outer, [gen.random_inner(s, 0.15, rng) for s in sizes])
        ts = sorted(rng.sample(range(spec.n), 3))
        return sp.compose(spec), sp.pack_semicomplete_composition(spec, ts)
    if kind in DROPPED:
        # odd t with n0 = 2 (mod 4) >= 6: the spine drops a layer, whose
        # vertices join through its lowest in- and out-neighbour layers
        n0 = DROPPED[kind]
        outer = gen.random_strong_semicomplete(t, rng)
        sizes = [rng.randint(n0, n0 + 3) for _ in range(t)]
        sizes[rng.randrange(t)] = n0
        spec = sp.CompositionSpec(outer, [gen.random_inner(s, 0.15, rng) for s in sizes])
        ts = sorted(rng.sample(range(spec.n), 3))
        return sp.compose(spec), sp.pack_semicomplete_composition(spec, ts)
    if kind == "bipartite":
        a, b = t, t + rng.randint(0, 7)
        ts = sorted(rng.sample(range(a + b), 3))
        return sp.complete_bipartite_digraph(a, b), sp.pack_bipartite(a, b, ts)
    raise ValueError(kind)


CASES = [(kind, t) for kind in ("semicomplete", "symmetric", "qt", "bipartite")
         for t in OUTER_ORDERS] + [("n0two", t) for t in (3, 5, 12)] + [
             (kind, t) for kind in DROPPED for t in (5, 7)]


def _digests(kind, t):
    host, packing = _case(kind, t)
    return {
        "host": hashlib.sha256(sp.write_digraph(host).encode()).hexdigest(),
        "packing": hashlib.sha256(sp.write_packing(packing).encode()).hexdigest(),
    }


# every decomposable shape with t <= 7, r <= 12 (odd t refuses r = 2 mod 4),
# plus larger multiples of four that go through the odd-t column search
DECOMPOSE = [(t, r) for t in range(2, 8) for r in range(1, 13)
             if not (t % 2 and r % 4 == 2)] + [(3, 40), (5, 64), (7, 100)]


def _decompose_digest(t, r):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decompose", str(t), str(r)]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("kind,t", CASES, ids=[f"{k}-t{t}" for k, t in CASES])
def test_output_bytes_match_golden(kind, t):
    golden = json.loads(GOLDEN.read_text())
    assert _digests(kind, t) == golden[f"{kind}-t{t}"]


@pytest.mark.parametrize("t,r", DECOMPOSE, ids=[f"t{t}-r{r}" for t, r in DECOMPOSE])
def test_decompose_bytes_match_golden(t, r):
    golden = json.loads(GOLDEN.read_text())
    assert _decompose_digest(t, r) == golden[f"decompose-t{t}-r{r}"]


if __name__ == "__main__":
    record = {f"{k}-t{t}": _digests(k, t) for k, t in CASES}
    record.update({f"decompose-t{t}-r{r}": _decompose_digest(t, r) for t, r in DECOMPOSE})
    json.dump(record, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
