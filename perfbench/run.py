#!/usr/bin/env python3
"""End-to-end benchmark of the strongpack CLI, with a traced per-layer run.

    python3 perfbench/run.py --workload pack-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30        # every workload
    python3 perfbench/run.py --compare BENCH_a.json BENCH_b.json

Run from a strongpack checkout: the program is imported from ``src/`` next
to this directory and every op runs as a fresh ``python -m strongpack.cli``
process, one at a time (a closed loop with one client).  Inputs are
generated from ``--seed`` (see ``workloads.py``) and every output is checked
untimed (see ``check.py``).

With ``--trace 0`` the fixed op list runs in passes until ``--seconds`` is
used up and the end-to-end metrics are reported, both in seconds and divided
by the time of a reference process that runs alongside.  With ``--trace 1`` the
same op list runs in process through ``strongpack.cli.main``, alternating a
plain pass and a traced pass, and the per-layer metrics are reported (see
``spans.py``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_BATCH_S = 0.25   # set-up repeats after each pass run for at least this long
OP_TIMEOUT_S = 60.0    # an op still running after this is killed and fails
STARTUP_RUNS = 7       # `--version` runs behind cli.startup_s
TAIL_BEYOND = 10       # op_tail_s: the highest percentile with this many ops above
REFERENCE_EVERY = 3    # one reference process before every this many ops

# The reference task: a fresh interpreter that imports the standard modules
# the CLI imports and runs a fixed pure-Python loop, so its time splits
# between start-up and computation much as an op's does.  It does not import
# strongpack.  The speed of this machine swings by 30-40% over minutes, and
# the reference's time moves with it, so op times divided by the run's
# median reference time (the *_ref metrics) stay steady.
REFERENCE = ("import argparse, csv, dataclasses, io, itertools, json, random\n"
             "s = 0\nfor i in range(150000):\n    s += i * i\n")

END_TO_END_UNITS = {"wall_ref": "ref", "op_p50_ref": "ref", "op_tail_ref": "ref",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def load_program():
    """Import strongpack from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "strongpack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no strongpack sources under {SRC}; "
                         f"run from a strongpack checkout")
    sys.path.insert(0, str(SRC))
    import strongpack

    if Path(strongpack.__file__).resolve().parent != (SRC / "strongpack").resolve():
        raise SystemExit(f"perfbench: imported strongpack from {strongpack.__file__}, "
                         f"not from {SRC}")
    return strongpack


def stamp(strongpack) -> dict:
    return {"backend": strongpack.kernel_backend(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def _median(values):
    return statistics.median(values) if values else 0.0


# -- running ops -----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# Ops are started by a small launcher process, not by the harness: Linux
# copies the spawning process's resident size into a child's peak RSS at fork
# and keeps it across exec, and the harness holds the generated inputs and
# the checker's hosts.  The launcher times each op, kills it on timeout and
# reports os.wait4's max RSS.
LAUNCHER = """
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(job["argv"], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killed = threading.Event()
        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(job["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "code": proc.returncode,
                      "maxrss_kb": usage.ru_maxrss, "killed": killed.is_set()}),
          flush=True)
"""


class Launcher:
    """Runs ``python -m strongpack.cli`` ops one at a time in ``workdir``."""

    def __init__(self, workdir: Path):
        self.log = workdir / "log"
        self.log.mkdir(exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], cwd=workdir,
                                     env=_child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, timeout: float = OP_TIMEOUT_S, program=("-m", "strongpack.cli")):
        """Runs ``python <program> *argv``.  Returns (wall seconds,
        RunResult, max RSS in KB)."""
        from check import RunResult

        out, err = self.log / "stdout", self.log / "stderr"
        job = {"argv": [sys.executable, *program, *argv],
               "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the op launcher exited")
        done = json.loads(line)
        result = RunResult(done["code"], out.read_text("utf-8", "replace"),
                           err.read_text("utf-8", "replace"), done["killed"])
        return done["wall"], result, done["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def run_inprocess(main, argv):
    """Run ``main(argv)`` with captured streams; an escaping exception is
    printed as a traceback and mapped to exit 1, like the interpreter."""
    from check import RunResult

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return RunResult(code, out.getvalue(), err.getvalue())


def _clear_outputs(ops, workdir: Path) -> None:
    for op in ops:
        if op.out:
            (workdir / op.out).unlink(missing_ok=True)
    (workdir / "out").mkdir(exist_ok=True)


class Tally:
    """Op outcomes across a run."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.problems: dict[str, str] = {}

    def add(self, checker, ops, results) -> None:
        checker.new_pass()
        for op, result in zip(ops, results):
            status, detail = checker.check(op, result)
            self.attempted += 1
            if status != "ok":
                self.failed += 1
                self.wrong += status == "wrong"
                self.problems.setdefault(op.id, f"{status}: {detail}")


# -- set-up ----------------------------------------------------------------------

class Setup:
    """Seeded generation plus writing of the inputs, timed per repeat.
    Every repeat must give the same digest of the input set."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.times: list[float] = []
        self.digest = None

    def repeat(self, directory: Path):
        from workloads import generate

        shutil.rmtree(directory / "in", ignore_errors=True)
        start = perf_counter()
        inputs = generate(self.workload, self.seed, self.smoke)
        digest = inputs.write(directory)
        self.times.append(perf_counter() - start)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise RuntimeError(f"{self.workload}: generation with seed {self.seed} "
                               f"is not deterministic")
        return inputs

    def batch(self, workdir: Path) -> None:
        """Repeats into a scratch directory for SETUP_BATCH_S, at least one.
        Batches run between passes, so setup_s samples the whole run rather
        than one stretch of it."""
        scratch = workdir / "setup"
        begin = perf_counter()
        while True:
            self.repeat(scratch)
            if perf_counter() - begin >= SETUP_BATCH_S:
                break
        shutil.rmtree(scratch, ignore_errors=True)


# -- end-to-end run --------------------------------------------------------------

def tail_index(count: int) -> int:
    """Sorted position of the highest percentile with TAIL_BEYOND ops above
    it (the maximum when there are fewer ops than that)."""
    return max(count - TAIL_BEYOND - 1, 0) if count > TAIL_BEYOND else count - 1


def end_to_end(inputs, workdir: Path, seconds: float, setup: Setup) -> dict:
    from check import Checker

    checker, tally = Checker(workdir), Tally()
    pass_walls, op_walls, rss, reference = [], [], [], []
    per_op = {op.id: [] for op in inputs.ops}
    with Launcher(workdir) as launcher:
        launcher.run(["--version"])  # warm the bytecode cache
        begin = perf_counter()
        while True:
            _clear_outputs(inputs.ops, workdir)
            results = []
            for i, op in enumerate(inputs.ops):
                if i % REFERENCE_EVERY == 0:
                    reference.append(launcher.run([], program=("-c", REFERENCE))[0])
                wall, result, maxrss = launcher.run(op.argv)
                per_op[op.id].append(wall)
                op_walls.append(wall)
                results.append(result)
                rss.append(maxrss)
            tally.add(checker, inputs.ops, results)
            pass_walls.append(sum(per_op[op.id][-1] for op in inputs.ops))
            setup.batch(workdir)
            if perf_counter() - begin + pass_walls[-1] > seconds:
                break
    # Each op's time is the median over passes, so a slow stretch of the
    # machine that hits one pass does not move the result.
    op_median = {k: _median(v) for k, v in per_op.items()}
    ranked = sorted(op_median.values())
    count = len(ranked)
    raw = {"wall_s": sum(ranked), "op_p50_s": _median(op_walls),
           "op_tail_s": ranked[tail_index(count)], "reference_s": _median(reference)}
    ref = raw["reference_s"]
    return {
        "metrics": {"wall_ref": raw["wall_s"] / ref,
                    "op_p50_ref": raw["op_p50_s"] / ref,
                    "op_tail_ref": raw["op_tail_s"] / ref,
                    "peak_rss_mb": max(rss) / 1024.0},
        "raw_seconds": raw,
        "reference_runs": len(reference),
        "passes": len(pass_walls),
        "pass_wall_s": pass_walls,
        "ops_per_pass": count,
        "op_tail_pct": 100.0 * (tail_index(count) + 1) / count,
        "op_wall_s": op_median,
        "tally": tally,
    }


# -- traced run ------------------------------------------------------------------

def _largest_host_builder(ops, workdir: Path):
    """A builder for the largest host any op reads, done the way the CLI
    does it (read, then compose for composition files)."""
    from strongpack.composition import compose, read_composition
    from strongpack.digraph import read_digraph

    best = (-1, None)
    for op in ops:
        for flag in ("--graph", "--composition"):
            if flag not in op.argv:
                continue
            text = (workdir / op.argv[op.argv.index(flag) + 1]).read_text()
            if flag == "--graph":
                arcs = int(text.split(None, 2)[1])
                build = (lambda t=text: read_digraph(t))
            else:
                spec = read_composition(text)
                arcs = sum(h.m for h in spec.inners) + sum(
                    spec.inners[i].n * spec.inners[p].n for i, p in spec.outer.arcs)
                build = (lambda t=text: compose(read_composition(t)))
            if arcs > best[0]:
                best = (arcs, build)
    return best[1]


def traced(inputs, workdir: Path, seconds: float) -> dict:
    from check import Checker
    import strongpack.cli as cli
    from spans import LAYERS, Tracer, layer_metrics, retained_mb

    with Launcher(workdir) as launcher:
        launcher.run(["--version"])
        startup = [launcher.run(["--version"])[0] for _ in range(STARTUP_RUNS)]
    build = _largest_host_builder(inputs.ops, workdir)
    retained = retained_mb(build) if build else 0.0

    checker, tally = Checker(workdir), Tally()
    tracer = Tracer()
    traced_main = tracer.span("cli.main", cli.main)
    plain_walls, per_pass = [], []

    def one_pass(tracing: bool) -> float:
        _clear_outputs(inputs.ops, workdir)
        tracer.clear()
        if tracing:
            tracer.install()
        results = []
        start = perf_counter()
        try:
            for op in inputs.ops:
                tracer.op = op.id
                results.append(run_inprocess(traced_main if tracing else cli.main, op.argv))
        finally:
            wall = perf_counter() - start
            tracer.uninstall()
        tally.add(checker, inputs.ops, results)
        return wall

    home = os.getcwd()
    os.chdir(workdir)
    begin = perf_counter()
    try:
        while True:
            # alternate which pass of a pair runs first, so that drift in
            # machine speed does not bias trace.overhead_frac
            order = (False, True) if len(plain_walls) % 2 == 0 else (True, False)
            pair = 0.0
            for tracing in order:
                wall = one_pass(tracing)
                pair += wall
                if tracing:
                    per_pass.append(layer_metrics(tracer.spans, wall))
                else:
                    plain_walls.append(wall)
            if perf_counter() - begin + pair > seconds:
                break
    finally:
        os.chdir(home)

    metrics = {"cli.startup_s": _median(startup), "digraph.retained_mb": retained}
    for key in per_pass[0]:
        metrics[key] = _median([m[key] for m in per_pass])
    plain = _median(plain_walls)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - plain) / plain
    middle = sorted(per_pass, key=lambda m: m["trace.wall_s"])[(len(per_pass) - 1) // 2]
    accounting = {"layers_self_s": sum(middle[f"{layer}.self_s"] for layer in LAYERS),
                  "harness_self_s": middle["harness.self_s"],
                  "wall_s": middle["trace.wall_s"]}
    return {"metrics": metrics, "passes": len(per_pass),
            "ops_per_pass": len(inputs.ops), "accounting": accounting, "tally": tally}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "kernel.s" or name.startswith("kernel.s_by_ell."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- one workload ----------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    strongpack = load_program()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup = Setup(workload, seed, smoke)
    try:
        inputs = setup.repeat(workdir)
        if trace:
            run = traced(inputs, workdir, seconds)
            units = {k: per_layer_unit(k) for k in run["metrics"]}
        else:
            setup.batch(workdir)
            run = end_to_end(inputs, workdir, seconds, setup)
            run["metrics"]["setup_s"] = _median(setup.times)
            run["setup_repeats"] = len(setup.times)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    tally = run.pop("tally")
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), **stamp(strongpack), "inputs_sha256": setup.digest,
        **run,
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "units": {k: units[k] for k in run["metrics"]},
    }


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    w = result["workload"]
    lines = [f"# {w} seed={result['seed']} backend={result['backend']} "
             f"python={result['python']} nproc={result['nproc']} "
             f"inputs_sha256={result['inputs_sha256'][:16]} "
             f"passes={result['passes']} ops/pass={result['ops_per_pass']}"]
    for key, value in result["metrics"].items():
        lines.append(f"{w:13s} {key:28s} {value:14.6g} {result['units'][key]}")
    for key, value in result.get("raw_seconds", {}).items():
        lines.append(f"{w:13s} {key:28s} {value:14.6g} s")
    lines.append(f"{w:13s} {'failed_frac':28s} {result['failed_frac']:14.6g} frac "
                 f"({result['failed']} of {result['attempted']} ops, "
                 f"{result['wrong']} wrong)")
    if "accounting" in result:
        acc = result["accounting"]
        lines.append(f"# median traced pass: layer self times {acc['layers_self_s']:.4f} s "
                     f"+ harness {acc['harness_self_s']:.4f} s = "
                     f"{acc['layers_self_s'] + acc['harness_self_s']:.4f} s of "
                     f"{acc['wall_s']:.4f} s wall")
    if "op_tail_pct" in result:
        lines.append(f"# wall and op_tail use each op's median over "
                     f"{result['passes']} passes; op_tail is p{result['op_tail_pct']:.1f} "
                     f"of {result['ops_per_pass']} ops ({TAIL_BEYOND} beyond); *_ref = "
                     f"seconds / reference_s (median of {result['reference_runs']} "
                     f"reference runs)")
    for op_id, problem in sorted(result["problems"].items()):
        lines.append(f"# not ok: {op_id}: {problem}")
    return lines


def summary_line(result: dict) -> str:
    return json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["metrics"].items()},
    })


def compare(path_a: str, path_b: str) -> int:
    """Print B relative to A metric by metric; refuse different backends."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    runs_a = a if "workload" not in a else {a["workload"]: a}
    runs_b = b if "workload" not in b else {b["workload"]: b}
    for w in sorted(set(runs_a) & set(runs_b)):
        ra, rb = runs_a[w], runs_b[w]
        if ra["backend"] != rb["backend"]:
            print(f"perfbench: refusing to compare {w}: kernel backend "
                  f"{ra['backend']!r} vs {rb['backend']!r}", file=sys.stderr)
            return 2
        for key in ra["metrics"]:
            if key in rb["metrics"]:
                va, vb = ra["metrics"][key], rb["metrics"][key]
                ratio = f"{vb / va:8.3f}x" if va else "       -"
                print(f"{w:13s} {key:28s} {va:14.6g} {vb:14.6g} {ratio} "
                      f"{ra['units'][key]}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op lists, for the harness self-tests")
    ap.add_argument("--out", help="write the stamped result JSON here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two result files written with --out")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    load_program()
    from workloads import WORKLOADS

    names = WORKLOADS if args.all else [args.workload]
    if names == [None] or any(w not in WORKLOADS for w in names):
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} (or use --all)")
    results = {}
    for w in names:
        results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
        print("\n".join(describe(results[w])), flush=True)
    if args.out:
        payload = results if args.all else results[names[0]]
        Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if not args.all:
        print(summary_line(results[names[0]]))
        return 0
    return 0 if all(r["wrong"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
