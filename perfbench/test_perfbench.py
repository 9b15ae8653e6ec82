"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that the checker catches broken outputs, that generation is
deterministic in the seed, and that a tiny run of each workload passes in
both the end-to-end and the traced mode.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from strongpack import packing as pk  # noqa: E402
from strongpack.composition import CompositionSpec  # noqa: E402
from strongpack.digraph import directed_cycle, empty_digraph  # noqa: E402

from check import Checker, RunResult  # noqa: E402
from workloads import WORKLOADS, Op, generate  # noqa: E402


def _pack_op(tmp_path, spec, text):
    (tmp_path / "out").mkdir(exist_ok=True)
    if text is not None:
        (tmp_path / "out" / "p.pack").write_text(text)
    return Op("p", ["pack"], {"kind": "pack", "spec": spec, "terminals": [0, 4],
                              "parts": spec.n0}, "out/p.pack")


def _spec():
    return CompositionSpec(directed_cycle(3), [empty_digraph(3)] * 3)


def test_checker_accepts_a_valid_packing(tmp_path):
    spec = _spec()
    text = pk.write_packing(pk.pack_semicomplete_composition(spec, [0, 4]))
    op = _pack_op(tmp_path, spec, text)
    assert Checker(tmp_path).check(op, RunResult(0, "", "")) == ("ok", "")


def test_checker_flags_an_arc_in_two_parts(tmp_path):
    spec = _spec()
    lines = pk.write_packing(pk.pack_semicomplete_composition(spec, [0, 4])).splitlines()
    lines[2] += " " + lines[1].split()[0]
    op = _pack_op(tmp_path, spec, "\n".join(lines) + "\n")
    status, detail = Checker(tmp_path).check(op, RunResult(0, "", ""))
    assert status == "wrong"
    assert "arc-disjoint" in detail


def test_checker_flags_a_missing_part(tmp_path):
    spec = _spec()
    packing = pk.pack_semicomplete_composition(spec, [0, 4])
    short = pk.Packing(packing.host, packing.terminals, packing.mode, packing.parts[:2])
    op = _pack_op(tmp_path, spec, pk.write_packing(short))
    assert Checker(tmp_path).check(op, RunResult(0, "", ""))[0] == "wrong"


def test_checker_flags_an_exceptional_host_that_exits_0(tmp_path):
    op = Op("exc", ["pack"], {"kind": "exceptional", "member": "triple-2"}, "out/e.pack")
    assert Checker(tmp_path).check(op, RunResult(0, "", ""))[0] == "wrong"
    named = "precondition violated: host is the exceptional composition 'triple-2'"
    assert Checker(tmp_path).check(op, RunResult(2, "", named)) == ("ok", "")


def test_checker_flags_a_missing_output_file(tmp_path):
    op = _pack_op(tmp_path, _spec(), None)
    assert Checker(tmp_path).check(op, RunResult(0, "", "")) == ("failed", "missing output file")


def test_checker_flags_a_traceback(tmp_path):
    op = _pack_op(tmp_path, _spec(), None)
    crash = "Traceback (most recent call last):\nValueError: boom\n"
    assert Checker(tmp_path).check(op, RunResult(1, "", crash))[0] == "failed"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic_in_the_seed(tmp_path, workload):
    first = generate(workload, 7, smoke=True).write(tmp_path / "a")
    again = generate(workload, 7, smoke=True).write(tmp_path / "b")
    other = generate(workload, 8, smoke=True).write(tmp_path / "c")
    assert first == again
    assert first != other


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
