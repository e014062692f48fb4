"""Failure-detection overhead: what liveness + integrity guards cost.

Runs the full pipeline unguarded and guarded (watchdog armed with a
generous deadline + crc integrity) on both in-process backends and
measures the cost in the currency that matters at paper scale: **modeled
parallel time**.  The guards are
pure engine-side work — no extra collectives, no extra bytes — so the
modeled overhead must stay under ``OVERHEAD_CEILING`` (it is exactly 0 by
construction; the gate catches any future guard that leaks into the
metered record).  Wall-clock cost is reported informationally
(min-of-rounds, noisy on shared CI iron): an armed watchdog only adds a
supervisor polling beside the unchanged schedule, so it is mostly the
checksum scans.

The second half gates the *detection bound*: a run with an injected
indefinite hang under a ~1s deadline must finish — detected, killed,
resumed, bit-identical — in a small fraction of the injected stall.
"""

import tempfile
import time

import numpy as np

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.ft import CkptPolicy, FaultPlan, FaultSpec
from repro.ft.recovery import RetryPolicy, run_with_retries

PARTS = 8
NPROCS = 4
BACKENDS = ("serial", "threads")
GRAPHS = ("rmat", "webcrawl")
ROUNDS = 3
OVERHEAD_CEILING = 0.05   # guarded modeled time / unguarded, minus one
GUARD_DEADLINE = 30.0     # generous: must never fire on a healthy run
STALL = 25.0              # injected hang, far past the detection deadline
HANG_DEADLINE = 1.0
#: The recovered hung run must complete well inside the injected stall —
#: detection + kill + resume, not wait-it-out.
HANG_WALL_BOUND = STALL * 0.5


def _run(graph, backend, guarded):
    params = PulpParams(seed=42)
    kwargs = dict(watchdog=GUARD_DEADLINE, integrity="crc") if guarded else {}
    t0 = time.perf_counter()
    res = xtrapulp(graph, PARTS, nprocs=NPROCS, params=params,
                   backend=backend, **kwargs)
    return time.perf_counter() - t0, res


def test_watchdog_overhead(benchmark, suite_graph):
    table = ExperimentTable(
        "watchdog_overhead",
        ["graph", "backend", "config", "wall_s", "modeled_s",
         "modeled_overhead", "wall_overhead", "checksums", "signature_equal"],
        notes=f"{'/'.join(GRAPHS)}/small, {PARTS} parts on {NPROCS} ranks "
              f"of {'/'.join(BACKENDS)}; guarded = watchdog armed + crc "
              "integrity; acceptance: "
              f"modeled overhead < {OVERHEAD_CEILING:.0%} and the hang row "
              f"recovers in < {HANG_WALL_BOUND:.0f}s against a "
              f"{STALL:.0f}s injected stall",
    )

    def experiment():
        out = {}
        for name in GRAPHS:
            g = suite_graph(name, "small")
            for backend in BACKENDS:
                runs = {}
                for guarded in (False, True):
                    best = None
                    for _ in range(ROUNDS):
                        wall, res = _run(g, backend, guarded)
                        if best is None or wall < best[0]:
                            best = (wall, res)
                    runs[guarded] = best
                out[name, backend] = runs
        return out

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    for (name, backend), pair in runs.items():
        base_wall, base = pair[False]
        for guarded in (False, True):
            wall, res = pair[guarded]
            modeled_over = res.modeled_seconds / base.modeled_seconds - 1.0
            wall_over = wall / base_wall - 1.0
            sig_equal = res.stats.signature() == base.stats.signature()
            table.add(name, backend, "guarded" if guarded else "off",
                      round(wall, 4), round(res.modeled_seconds, 6),
                      round(modeled_over, 6), round(wall_over, 4),
                      res.stats.checksum_verifications, sig_equal)
            # the guards must not perturb the partition or the record...
            assert np.array_equal(res.parts, base.parts)
            assert sig_equal
            # ...or the modeled time the paper's figures are built from
            assert modeled_over < OVERHEAD_CEILING, (
                f"{name}/{backend}: guarded modeled time "
                f"{modeled_over:.1%} over unguarded (ceiling "
                f"{OVERHEAD_CEILING:.0%})"
            )
            if guarded:
                assert res.stats.checksum_verifications > 0

    # -- detection bound: a hung run ends in seconds, not in STALL ---------
    g = suite_graph(GRAPHS[0], "small")
    params = PulpParams(seed=42)
    base = xtrapulp(g, PARTS, nprocs=NPROCS, params=params, backend="serial")
    plan = FaultPlan([FaultSpec(1, "vertex_refine", 2, action="delay",
                                delay=STALL)])
    with tempfile.TemporaryDirectory() as d:
        t0 = time.perf_counter()
        res = run_with_retries(
            g, PARTS, checkpoint=CkptPolicy(dir=d), fault_plan=plan,
            retry=RetryPolicy(max_retries=2, sleep=lambda s: None),
            nprocs=NPROCS, params=params, backend="procs",
            watchdog=HANG_DEADLINE,
        )
        hang_wall = time.perf_counter() - t0
    assert np.array_equal(res.parts, base.parts)
    res_sig = [s for s in res.stats.signature() if s[1] != "checkpoint"]
    assert res_sig == base.stats.signature()
    (ev,) = res.stats.recoveries
    # wall_overhead column here = fraction of the injected stall actually
    # paid by the recovered run (1.0 would mean "waited it out")
    table.add(GRAPHS[0], "procs", f"hang+{HANG_DEADLINE:.0f}s-deadline",
              round(hang_wall, 4), round(res.modeled_seconds, 6),
              0.0, round(hang_wall / STALL, 4),
              res.stats.checksum_verifications, True)
    table.emit()

    assert ev.failure_class == "hang"
    assert hang_wall < HANG_WALL_BOUND, (
        f"hung run took {hang_wall:.1f}s against a {STALL:.0f}s stall — "
        f"detection bound {HANG_WALL_BOUND:.0f}s exceeded"
    )
