"""Untimed checker for the outputs of benchmark ops.

``Checker.check`` classifies every op run as

* ``ok``: the output is present and correct;
* ``failed``: no usable result (traceback, exit 1, timeout, refusal or a
  missing output file);
* ``wrong``: a result was produced and it is incorrect (a packing that does
  not verify or has the wrong part count, an exceptional host accepted, a
  broken invariant).

``failed_frac`` counts both failed and wrong ops; a run is ``correct`` when
no op was wrong.  Hosts are rebuilt here from the generator's spec, without
the package's ``compose``, and every packing goes through
``verify_packing`` against that independent host.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

from strongpack import packing as pk
from strongpack.digraph import Digraph, complete_bipartite_digraph
from strongpack.errors import GraphFormatError, PreconditionError
from strongpack.exact import is_strong_cut, min_strong_cut, terminal_semi_degree

SURVEY_HEADER = ["instance", "n", "m", "k", "lambda_S", "c2", "c1", "status"]


@dataclass
class RunResult:
    """What one op run left behind: exit code (negative for a signal),
    captured streams, and whether the harness killed it on timeout."""

    returncode: int
    stdout: str
    stderr: str
    timed_out: bool = False


def independent_host(expect: dict) -> Digraph:
    """The host an op works on, built from the generator's description."""
    if "bipartite" in expect:
        return complete_bipartite_digraph(*expect["bipartite"])
    spec = expect["spec"]
    offs = [0]
    for h in spec.inners:
        offs.append(offs[-1] + h.n)
    arcs = set()
    for i, h in enumerate(spec.inners):
        arcs.update((offs[i] + u, offs[i] + v) for (u, v) in h.arcs)
    for i, p in spec.outer.arcs:
        arcs.update((x, y) for x in range(offs[i], offs[i + 1])
                    for y in range(offs[p], offs[p + 1]))
    perm = expect.get("perm")
    if perm is not None:
        arcs = {(perm[u], perm[v]) for (u, v) in arcs}
    return Digraph(offs[-1], arcs)


def _two_edge_connected(d: Digraph) -> bool:
    """Underlying graph connected with no bridge (n <= a few dozen)."""
    edges = {(min(u, v), max(u, v)) for (u, v) in d.arcs}

    def connected(skip):
        seen, todo = {0}, [0]
        while todo:
            u = todo.pop()
            for a, b in edges:
                if (a, b) != skip and u in (a, b):
                    w = b if u == a else a
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
        return len(seen) == d.n

    return connected(None) and all(connected(e) for e in edges)


class Checker:
    """Checks op outputs.  Verdicts on packing files are cached by output
    digest, so a repeated identical output is verified once per run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._verified: dict[tuple[str, str], tuple[str, str, int]] = {}
        self.values: dict[tuple[str, str], int] = {}

    def new_pass(self) -> None:
        self.values.clear()

    def check(self, op, run: RunResult) -> tuple[str, str]:
        kind = op.expect["kind"]
        if run.timed_out:
            return "failed", "timeout"
        if "Traceback (most recent call last)" in run.stderr or run.returncode == 1:
            return "failed", f"crash: {_last_line(run.stderr)}"
        if kind == "exceptional":
            return self._exceptional(op, run)
        if kind == "verify":
            return self._verify(op, run)
        if run.returncode != 0:
            return "failed", f"exit {run.returncode}: {_last_line(run.stderr)}"
        if kind == "sad":
            return self._sad(op, run)
        text = self._output(op)
        if text is None:
            return "failed", "missing output file"
        try:
            if kind == "pack":
                return self._packing(op, text, op.expect["parts"], pk.MODE_ARC)
            if kind in ("lambda", "kappa"):
                return self._lambda_kappa(op, run, text)
            if kind == "cut":
                return self._cut(op, run, text)
            if kind == "survey":
                return self._survey(op, text)
        except (GraphFormatError, PreconditionError, ValueError, KeyError) as exc:
            return "wrong", f"unreadable output: {exc}"
        raise ValueError(f"unknown op kind {kind!r}")

    # -- helpers ---------------------------------------------------------------

    def _output(self, op) -> str | None:
        path = self.workdir / op.out
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")

    def _packing(self, op, text, parts, mode, host=None, terminals=None):
        key = (op.id, hashlib.sha256(text.encode("utf-8")).hexdigest())
        if key not in self._verified:
            host = host if host is not None else independent_host(op.expect)
            ts = terminals if terminals is not None else op.expect["terminals"]
            packing = pk.read_packing(text, host, ts)
            verdict = pk.verify_packing(packing)
            if packing.mode != mode:
                self._verified[key] = ("wrong", f"mode {packing.mode}, expected {mode}", 0)
            elif not verdict.ok:
                self._verified[key] = ("wrong", f"packing does not verify: "
                                       f"{verdict.reason} parts={verdict.parts}", 0)
            else:
                self._verified[key] = ("ok", "", len(packing.parts))
        status, detail, count = self._verified[key]
        if status != "ok":
            return status, detail
        if count != parts:
            return "wrong", f"{count} parts, expected {parts}"
        return "ok", ""

    def _exceptional(self, op, run):
        member = op.expect["member"]
        if run.returncode == 2 and f"'{member}'" in run.stderr:
            return "ok", ""
        if run.returncode == 0:
            return "wrong", f"exceptional host '{member}' accepted"
        return "wrong", (f"exceptional host '{member}': exit {run.returncode}, "
                         f"member not named")

    def _verify(self, op, run):
        if op.expect["ok"]:
            want = f"ok parts={op.expect['parts']} "
            if run.returncode == 0 and run.stdout.startswith(want):
                return "ok", ""
            return "wrong", f"valid packing not accepted: {_last_line(run.stdout)}"
        if run.returncode == 2 and f"violation: {op.expect['reason']}" in run.stdout:
            return "ok", ""
        return "wrong", f"invalid packing not rejected: {_last_line(run.stdout)}"

    def _printed(self, run, key: str) -> str:
        for line in run.stdout.splitlines():
            if line.startswith(key + "="):
                return line
        raise ValueError(f"no '{key}=' line on stdout")

    def _lambda_kappa(self, op, run, text):
        kind = op.expect["kind"]
        d, ts = op.expect["host"], op.expect["terminals"]
        value = int(self._printed(run, "value").split("=", 1)[1])
        mode = pk.MODE_ARC if kind == "lambda" else pk.MODE_INTERNAL
        status, detail = self._packing(op, text, value, mode, d, ts)
        if status != "ok":
            return status, detail
        self.values[(op.expect["instance"], kind)] = value
        semi = terminal_semi_degree(d, ts)
        if value > semi:
            return "wrong", f"{kind}={value} > terminal semi-degree {semi}"
        cut = min_strong_cut(d, ts).size
        if value > cut:
            return "wrong", f"{kind}={value} > min strong cut {cut}"
        lam = self.values.get((op.expect["instance"], "lambda"))
        if kind == "kappa" and lam is not None and value > lam:
            return "wrong", f"kappa={value} > lambda={lam}"
        return "ok", ""

    def _cut(self, op, run, text):
        d, ts = op.expect["host"], frozenset(op.expect["terminals"])
        size = int(self._printed(run, "size").split()[0].split("=", 1)[1])
        arcs = []
        for token in text.split():
            u, v = token.split(">")
            arcs.append((int(u), int(v)))
        if len(set(arcs)) != size or not set(arcs) <= d.arcs:
            return "wrong", f"cut file has {len(set(arcs))} host arcs, printed size={size}"
        if not is_strong_cut(d, ts, arcs):
            return "wrong", "printed cut is not a strong cut"
        lam = self.values.get((op.expect["instance"], "lambda"))
        if lam is not None and lam > size:
            return "wrong", f"lambda={lam} > cut size {size}"
        return "ok", ""

    def _sad(self, op, run):
        d = op.expect["host"]
        flag = self._printed(run, "strong_arc_decomposition").split("=", 1)[1]
        # a symmetric host splits into two spanning strong parts exactly when
        # its underlying graph is 2-edge-connected (an orientation and its
        # reverse), so the answer has an independent oracle
        expected = _two_edge_connected(d)
        if flag != str(expected):
            return "wrong", f"strong_arc_decomposition={flag}, expected {expected}"
        if not expected:
            return "ok", ""
        text = self._output(op)
        if text is None:
            return "failed", "missing output file"
        try:
            return self._packing(op, text, 2, pk.MODE_ARC, d, range(d.n))
        except (GraphFormatError, PreconditionError, ValueError) as exc:
            return "wrong", f"unreadable output: {exc}"

    def _survey(self, op, text):
        rows = [r for r in csv.reader(ln for ln in text.splitlines()
                                      if not ln.startswith("#"))]
        if not rows or rows[0] != SURVEY_HEADER:
            return "wrong", "survey header missing"
        body = rows[1:]
        if len(body) != op.expect["trials"]:
            return "wrong", f"{len(body)} survey rows, expected {op.expect['trials']}"
        symmetric = op.expect["family"] == "symmetric"
        for row in body:
            rec = dict(zip(SURVEY_HEADER, row))
            if rec["status"] == "skipped":
                continue
            if rec["status"] != "ok":
                return "wrong", f"survey row {rec['instance']} status {rec['status']!r}"
            lam, c2 = int(rec["lambda_S"]), int(rec["c2"])
            if lam > c2:
                return "wrong", f"survey row {rec['instance']}: lambda_S={lam} > c2={c2}"
            if symmetric and c2 > 2 * int(rec["c1"]):
                return "wrong", f"survey row {rec['instance']}: c2={c2} > 2*c1"
        return "ok", ""


def _last_line(text: str) -> str:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    return lines[-1][:200] if lines else ""
