"""Measurement child: one workload, one fresh process.

``python -m benchmarks.perf.child SPEC.json`` reads the spec ``run.py``
wrote, measures, and writes one JSON result to ``spec["out"]``.  The flow
is the same in every mode; only the sizes differ::

    start ─ pin? ─ import repro ─ setup reps ─ timed reps ─ [traced run + probes]

End-to-end numbers depend only on ``xtrapulp``, ``PulpParams``,
``CkptPolicy`` and ``graph.io``, and are taken with metering off (what
``xtrapulp()`` does on its own).  Everything under ``layers`` comes from
``probes.py`` and can fail without touching them.

An *operation* is one setup rep, one timed rep or the traced run; an
exception or a failed check makes it a failed operation.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # "child start" of setup_s: before any import

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback

#: A rep loop whose reps keep failing must still end.
MAX_REPS = 64


def calibrate():
    """Seconds for a fixed Python + NumPy loop.  Run before every rep, it
    says which speed regime the machine was in at that moment."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    a = np.arange(400_000, dtype=np.float64)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def peak_rss_mb():
    """High-water resident set of this process, MiB (``VmHWM``).

    Not ``ru_maxrss``: on Linux that one starts at the peak of the process
    that spawned this one, so it reported the driver's graph generation
    (354 MiB after ``social(2**17)``) for a 141 MiB ``ranks256`` child.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def partition(graph, spec, params, ckpt_dir, **overrides):
    """One ``xtrapulp`` call as the workload configures it.

    Returns ``(result, wall_s, cpu_s)``; the wall is ``perf_counter``
    around the whole call (build → gather → result).
    """
    from repro.core import xtrapulp
    from repro.ft.checkpoint import CkptPolicy

    kwargs = dict(nprocs=spec["nprocs"], params=params,
                  backend=spec["backend"], **spec["guards"])
    if spec["checkpoint"]:
        kwargs["checkpoint"] = CkptPolicy(ckpt_dir, every="phase")
    kwargs.update(overrides)
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = xtrapulp(graph, spec["num_parts"], **kwargs)
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0


def verify(graph, result, num_parts):
    """Check one partition; returns ``(violations, parts_digest, quality)``.

    The cut is recomputed here from the CSR arrays (arcs whose endpoints
    differ, each edge seen from both sides) and must equal the reported one.
    """
    import numpy as np

    parts = result.parts
    if parts.shape != (graph.n,):
        return [f"parts.shape {parts.shape} != ({graph.n},)"], None, None
    bad = []
    if parts.min() < 0 or parts.max() >= num_parts:
        bad.append(f"labels outside [0, {num_parts})")
    quality = result.quality()
    src = np.repeat(np.arange(graph.n), np.diff(graph.offsets))
    cut = int(np.count_nonzero(parts[src] != parts[graph.adj])) // 2
    mine = cut / graph.num_edges
    if not math.isclose(mine, quality.cut_ratio, rel_tol=1e-12):
        bad.append(f"recomputed cut_ratio {mine!r} != reported "
                   f"{quality.cut_ratio!r}")
    digest = hashlib.sha256(
        np.ascontiguousarray(parts, dtype=np.int64).tobytes()).hexdigest()
    return bad, digest, quality


def measure(spec):
    """Run the whole child flow for ``spec``; returns the result dict."""
    spec = dict(spec, unpinned_cpus=sorted(os.sched_getaffinity(0)))
    if spec["pinned"]:
        # the serial backend runs one rank at a time by design; unpinned it
        # measures the OS handing the baton between cores, not the program
        os.sched_setaffinity(0, {spec["unpinned_cpus"][-1]})
    import repro  # noqa: F401  (the import is part of setup_s)
    from repro.core import PulpParams
    from repro.graph.io import read_edge_list

    import_s = time.perf_counter() - T_START
    params = PulpParams(seed=spec["seed"], **spec["params"])
    twin = read_edge_list(spec["twin_path"])
    ckpt_root = spec["ckpt_root"]
    out = {"attempted": 0, "failed": 0, "violations": []}

    def fail(where, what):
        out["failed"] += 1
        out["violations"].append(f"{where}: {what}")

    # -- setup: what a CLI user pays before partitioning starts -----------
    graph = None
    setup_walls, load_walls = [], []
    for i in range(spec["setup_reps"]):
        out["attempted"] += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            graph = read_edge_list(spec["graph_path"])
            load_walls.append(time.perf_counter() - t0)
            partition(twin, spec, params, os.path.join(ckpt_root, "warm"),
                      nprocs=min(spec["nprocs"], 4))
            setup_walls.append(time.perf_counter() - t0)
        except Exception:
            fail(f"setup rep {i}", traceback.format_exc(limit=3))
        shutil.rmtree(os.path.join(ckpt_root, "warm"), ignore_errors=True)
    if not setup_walls:
        return dict(out, error="setup failed")

    # -- timed reps ---------------------------------------------------------
    walls, cpus, calibs = [], [], []
    digest = quality = result = peak_mb = None
    window, rep = 0.0, 0
    while rep < MAX_REPS and (window < spec["seconds"]
                              or rep < spec["min_reps"]):
        out["attempted"] += 1
        calibs.append(calibrate())
        ckpt_dir = os.path.join(ckpt_root, "rep")
        gc.collect()
        t0 = time.perf_counter()
        try:
            res, wall, cpu = partition(graph, spec, params, ckpt_dir)
            if peak_mb is None:
                # after the first rep, so it does not depend on the rep count
                peak_mb = peak_rss_mb()
            bad, dig, q = verify(graph, res, spec["num_parts"])
            if digest is not None and dig != digest:
                bad.append(f"parts digest {dig} != first rep's {digest}")
            if bad:
                fail(f"rep {rep}", "; ".join(bad))
            else:
                walls.append(wall)
                cpus.append(cpu)
                digest, quality, result = dig, q, res
        except Exception:
            fail(f"rep {rep}", traceback.format_exc(limit=3))
        window += time.perf_counter() - t0
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        rep += 1
    if not walls:
        return dict(out, error="no rep succeeded")

    best = min(walls)
    out.update(
        e2e={
            "setup_s": import_s + statistics.median(setup_walls),
            "partition_wall_s": best,
            "peak_rss_mb": peak_mb,
            "modeled_s": result.modeled_seconds,
            "cut_ratio": quality.cut_ratio,
            "vertex_balance": quality.vertex_balance,
        },
        import_s=import_s,
        setup_walls=setup_walls,
        rep_walls=walls,
        parts_digest=digest,
        layers=None,
        layer_errors={},
    )
    try:
        out["signature_digest"] = hashlib.sha256(
            repr(result.stats.signature()).encode()).hexdigest()
    except Exception as exc:
        out["signature_digest"] = None
        out["layer_errors"]["signature"] = f"{type(exc).__name__}: {exc}"

    # -- traced run + probes (never touch the numbers above) --------------
    if spec["trace"]:
        from benchmarks.perf import probes

        out["attempted"] += 1
        out["layers"], errors, wrong = probes.layer_metrics(
            spec, graph, params,
            dict(load_s=min(load_walls), walls=walls, cpus=cpus,
                 calibs=calibs, digest=digest),
            run=partition, verify=verify)
        out["layer_errors"].update(errors)
        if wrong:
            fail("traced run", "; ".join(wrong))
    return out


def main(argv):
    with open(argv[1]) as f:
        spec = json.load(f)
    result = measure(spec)
    with open(spec["out"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
