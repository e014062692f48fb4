"""The perf ledger's one command.

Suite (people)::

    PYTHONPATH=src python -m benchmarks.perf.run [--seed 7] [--workloads a,b]
        [--seconds 30] [--out FILE] [--smoke] [--selfcheck K]

runs the four workloads of ``workloads.py``, each in a fresh child process
(``child.py``), prints every metric by name with its unit, checks the
outputs and writes one versioned JSON ledger.  Exit status 1 if any
operation failed.

One measurement (the PR driver, see ``/BENCHMARK.json``)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

It is a closed loop with one client: one driver process, one partition at
a time.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
# runnable as a script from a bare checkout: no PYTHONPATH, no install
for _p in (str(ROOT), str(SRC)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.perf import compare  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    BY_NAME, E2E_UNITS, LAYER_UNITS, SCHEMA, WORKLOADS,
)

#: Hard limit on one child of the PR driver, which allows a run 180 s in
#: all; the suite allows ten times its timed window if that is longer.
CHILD_TIMEOUT_S = 170.0

#: glibc malloc settings of every child: keep freed memory (arrays up to
#: 32 MiB come from the heap, the heap is not trimmed) instead of handing
#: it back to the kernel after every block.  Like CPU pinning, this takes
#: a property of the sandbox out of the numbers: on ``parts256`` the
#: default allocator takes ~350 k minor page faults per rep, and in this VM
#: their cost swung between 1.2 and 5.7 s of system time from one rep to
#: the next, on top of a steady 4.5-5.0 s of user time (README, "Measurement
#: method").
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(2 << 30),
    "MALLOC_TOP_PAD_": str(64 << 20),
}


# -- fixtures -----------------------------------------------------------------

def fixture(workload, smoke, workdir):
    """Write the workload's graph and its ~1024-vertex twin as edge lists
    (once per work directory); returns ``(graph_path, twin_path)``.  The
    child is handed paths only: loading is part of what it measures."""
    from repro.graph import generators
    from repro.graph.io import write_edge_list

    seed = ({} if workload.graph_seed is None
            else {"seed": workload.graph_seed})

    def written(kind, args):
        path = os.path.join(workdir, f"{workload.name}-{kind}.el")
        if not os.path.exists(path):
            graph = getattr(generators, workload.generator)(*args, **seed)
            write_edge_list(graph, path)
        return path

    twin = written("twin", workload.twin_args)
    return (twin if smoke else written("full", workload.gen_args)), twin


# -- one child ----------------------------------------------------------------

def child_spec(workload, *, seed, seconds, trace, smoke, workdir,
               setup_reps, min_reps):
    """What ``child.measure`` is told: paths, configuration and sizes."""
    graph_path, twin_path = fixture(workload, smoke, workdir)
    tag = f"{workload.name}-{time.monotonic_ns()}"
    ckpt_root = os.path.join(workdir, f"ckpt-{tag}")
    os.makedirs(ckpt_root)
    return {
        "seed": seed, "seconds": seconds,
        "trace": bool(trace), "graph_path": graph_path,
        "twin_path": twin_path, "num_parts": workload.num_parts,
        "nprocs": workload.nprocs, "backend": workload.backend,
        "pinned": workload.pinned, "params": workload.params,
        "guards": workload.guards, "checkpoint": workload.checkpoint,
        "setup_reps": 1 if smoke else setup_reps,
        "min_reps": 1 if smoke else min_reps,
        "storm_rounds": 20 if smoke else 200,
        "unguarded_reps": 1 if smoke else 2,
        "ckpt_root": ckpt_root,
        "out": os.path.join(workdir, f"result-{tag}.json"),
    }


def run_child(workload, *, smoke, workdir, timeout=CHILD_TIMEOUT_S, **sizes):
    """Measure ``workload`` in a fresh process; returns the child's result
    dict.  A child that crashes, hangs or leaks counts as a failed
    operation — never as an exception here, never as a hang."""
    spec = child_spec(workload, smoke=smoke, workdir=workdir, **sizes)
    spec_path = spec["out"].replace("result-", "spec-")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    # own session: the procs backend forks rank processes, and a timeout
    # must take them down with the child
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.perf.child", spec_path],
        cwd=ROOT, env=env, start_new_session=True)
    problems = []
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        problems.append(f"child exceeded {timeout:.0f} s and was killed")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 and not problems:
        problems.append(f"child exited with status {proc.returncode}")
    leaked = glob.glob(f"/dev/shm/simmpi{proc.pid}x*")
    for path in leaked:
        os.unlink(path)
    if leaked:
        problems.append(f"{len(leaked)} /dev/shm segment(s) left behind")
    shutil.rmtree(spec["ckpt_root"], ignore_errors=True)

    try:
        with open(spec["out"]) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"error": "child wrote no result", "attempted": 1,
                  "failed": 0, "violations": []}
    if problems:
        result["failed"] += 1
        result["violations"] += problems
    result["config"] = {
        k: spec[k] for k in ("seed", "seconds", "num_parts", "nprocs",
                             "backend", "pinned", "params", "guards",
                             "checkpoint", "setup_reps", "min_reps")}
    result["config"]["graph"] = (
        f"{workload.generator}"
        f"{workload.twin_args if smoke else workload.gen_args}"
        f" seed={workload.graph_seed}")
    return result


# -- reporting ------------------------------------------------------------------

def print_metrics(name, result):
    print(f"== {name}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for line in result["violations"]:
        print(f"   VIOLATION {line}")
    if "error" in result:
        print(f"   ERROR {result['error']}")
        return
    groups = [(result["e2e"], E2E_UNITS)]
    if result["layers"] is not None:
        groups.append((result["layers"], LAYER_UNITS))
    for values, units in groups:
        for metric, unit in units.items():
            value = values[metric]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"   {metric:<36s} {shown:>14s} {unit}")
    for label, err in result["layer_errors"].items():
        print(f"   layer probe {label!r} failed: {err}")
    print(f"   reps {[round(w, 3) for w in result['rep_walls']]}")
    print(f"   parts_digest {result['parts_digest']}")


def fingerprint():
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def git_sha():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, text=True,
            capture_output=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None   # the PR driver's checkout is not a git repository


# -- modes ------------------------------------------------------------------------

def run_suite(names, args, workdir):
    """All of ``names`` once, end to end and traced; returns the ledger."""
    ledger = {
        "schema": SCHEMA, "created_utc": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(), "machine": fingerprint(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    for name in names:
        result = run_child(
            BY_NAME[name], seed=args.seed, seconds=args.seconds, trace=True,
            smoke=args.smoke, workdir=workdir, setup_reps=3, min_reps=5,
            timeout=max(CHILD_TIMEOUT_S, 10 * args.seconds))
        print_metrics(name, result)
        ledger["workloads"][name] = result
    ledger["correct"] = all(
        r["failed"] == 0 and "error" not in r
        for r in ledger["workloads"].values())
    return ledger


def write_ledger(ledger, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ledger written to {path}")


def selfcheck(names, args, workdir):
    """Two interleaved sets of K suite runs of the same code, compared."""
    out = args.out or str(HERE / "out" / "selfcheck")
    correct = True
    for i in range(args.selfcheck):
        for side in "AB":
            print(f"#### selfcheck run {i + 1}/{args.selfcheck}, set {side}")
            ledger = run_suite(names, args, workdir)
            correct &= ledger["correct"]
            write_ledger(ledger, os.path.join(out, side, f"run{i}.json"))
    status = compare.main(
        [os.path.join(out, "A"), os.path.join(out, "B"), "--same-code"])
    return status if correct else 1


def driver_line(workload, args, workdir):
    """One measurement in the PR driver's format (see module docstring)."""
    if args.trace:
        # the window is for the reference reps the traced run is compared
        # with; the traced run and the probes come on top of it
        sizes = dict(seconds=args.seconds / 3.0, setup_reps=1, min_reps=2)
    else:
        sizes = dict(seconds=args.seconds, setup_reps=3, min_reps=3)
    result = run_child(workload, seed=args.seed, trace=args.trace,
                       smoke=args.smoke, workdir=workdir, **sizes)
    print_metrics(workload.name, result)
    if "error" in result:
        return 1   # nothing measured: no result line
    values, units = ((result["layers"], LAYER_UNITS) if args.trace
                     else (result["e2e"], E2E_UNITS))
    # numbers only on this line: a layer metric that does not apply to the
    # workload (or whose probe failed, see the lines above) reads 0
    metrics = {m: {"value": values[m] if values[m] is not None else 0,
                   "unit": unit} for m, unit in units.items()}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7,
                    help="partitioner seed (PulpParams.seed)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="timed window per workload")
    ap.add_argument("--workloads", default=",".join(w.name for w in WORKLOADS))
    ap.add_argument("--workload", help="measure this one workload and print "
                    "the PR driver's result line")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: per-layer metrics instead")
    ap.add_argument("--out", help="ledger file (directory with --selfcheck)")
    ap.add_argument("--smoke", action="store_true",
                    help="1024-vertex twins, one rep: checks the harness")
    ap.add_argument("--selfcheck", type=int, metavar="K", default=0,
                    help="run the suite as two interleaved sets of K and "
                    "compare them")
    ap.add_argument("--workdir", default=str(HERE / ".work"),
                    help="parent of the (removed on exit) work directory")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0
    names = [args.workload] if args.workload else args.workloads.split(",")
    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choices: {list(BY_NAME)}")

    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    try:
        if args.workload:
            return driver_line(BY_NAME[args.workload], args, workdir)
        if args.selfcheck:
            return selfcheck(names, args, workdir)
        ledger = run_suite(names, args, workdir)
        write_ledger(ledger, args.out or str(HERE / "out" / "ledger.json"))
        return 0 if ledger["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
