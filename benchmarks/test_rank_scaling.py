"""Thousands-of-ranks scaling rows on the shared-result engine.

At hundreds-to-thousands of simulated ranks the partitioner's wall clock is
dominated by the simulator itself: result delivery, rank scheduling and
per-deposit metering.  This bench runs the full pipeline at
512, 1024 and 2048 ranks on the serial backend and records wall, modeled
time, cut, traffic, rounds and peak RSS, plus 512 ranks on ``threads``,
whose generator ranks share one worker per usable CPU instead of a thread
each.  Its wall is not gated here: the perf ledger's ``ranks256`` workload
bounds ``partition_wall_s`` (``benchmarks/perf``).

Every row runs in a fresh interpreter started with the perf harness's
glibc malloc settings (``MALLOC_ENV``), so a freed transient the
allocator happens to hand back or keep does not move its
``peak_rss_MiB``.  That figure is the row interpreter's ``VmHWM``
(:func:`benchmarks.perf.child.peak_rss_mb`), not ``ru_maxrss``: on Linux
``ru_maxrss`` survives ``exec`` and starts at the peak of the pytest
process that spawned the row.  Run one row by hand with ``PYTHONPATH=src python benchmarks/test_rank_scaling.py
'{"ranks": 2048, "scale": "small"}'``.

Also recorded: cross-backend bit-identity (partitions and
`CommStats.signature()`).
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # a row's own interpreter
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.child import peak_rss_mb  # noqa: E402
from benchmarks.perf.run import MALLOC_ENV  # noqa: E402
from repro.bench import ExperimentTable  # noqa: E402
from repro.core import PulpParams, xtrapulp  # noqa: E402
from repro.simmpi import MachineModel, TimeModel  # noqa: E402
from repro.simmpi.backends import create_runtime  # noqa: E402
from repro.suite import get_graph  # noqa: E402

BASE_RANKS = 512
PARTS = 16
#: One outer iteration keeps a 512-rank full-pipeline run in seconds while
#: still exercising every phase (init, balance, refine, edge stage).
PARAMS = dict(seed=42, outer_iters=1, balance_iters=2, refine_iters=3)
#: Seconds one row may take (the 2 048-rank row takes about ten).
ROW_TIMEOUT_S = 600
#: Blue Waters' network constants at one core per rank: a 2 048-rank row
#: is 2 048 cores, not 2 048 of the paper's 16-core nodes, so ``gamma``
#: is a single core's 4 ns per work unit, not ``BLUE_WATERS_LIKE``'s.
MACHINE = MachineModel(alpha=1.5e-6, beta=1.0 / 6.0e9, gamma=4.0e-9)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _row(spec: dict) -> dict:
    """Run one row in this process: ``spec`` names the ranks, the suite
    graph scale, the backend and the communicator."""
    ranks, comm = spec["ranks"], spec.get("comm")
    graph = get_graph("rmat", spec["scale"])
    rt = create_runtime(spec.get("backend", "serial"), nprocs=ranks,
                        comm=comm)
    t0 = time.perf_counter()
    result = xtrapulp(graph, PARTS, nprocs=ranks,
                      params=PulpParams(**PARAMS), backend=rt)
    wall = time.perf_counter() - t0
    st = result.stats
    return {
        "parts_sha256": _sha(result.parts.tobytes()),
        "signature_sha256": _sha(repr(st.signature()).encode()),
        "wall_s": wall,
        "model_s": TimeModel(machine=MACHINE).total_time(st),
        "cutsize": int(result.quality().cut),
        "MiB_sent": st.total_bytes / 2**20,
        "rounds": st.rounds,
        "peak_rss_MiB": peak_rss_mb(),
    }


def _fresh(**spec) -> dict:
    """:func:`_row` in a fresh interpreter with the perf harness's malloc
    settings."""
    env = dict(os.environ, **MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, __file__, json.dumps(spec)], env=env,
        capture_output=True, text=True, timeout=ROW_TIMEOUT_S)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _add(table, ranks, backend, comm, graph_name, row):
    table.add(ranks, backend, comm or "flat", graph_name,
              round(row["wall_s"], 3), round(row["model_s"], 4),
              row["cutsize"], round(row["MiB_sent"], 2), row["rounds"],
              round(row["peak_rss_MiB"], 1))


def _same_run(a: dict, b: dict) -> bool:
    return (a["parts_sha256"], a["signature_sha256"]) == (
        b["parts_sha256"], b["signature_sha256"])


def test_rank_scaling(benchmark):
    table = ExperimentTable(
        "rank_scaling",
        ["ranks", "backend", "comm", "graph", "wall_s", "model_s",
         "cutsize", "MiB_sent", "rounds", "peak_rss_MiB"],
        notes=f"full pipeline, {PARTS} parts, outer_iters=1, one fresh "
              "interpreter per row with the perf harness's malloc "
              "settings; wall_s is single-shot perf_counter, not gated "
              "(the perf ledger's ranks256 workload bounds the wall); "
              "peak_rss_MiB is the row's VmHWM",
    )

    flat_512 = benchmark.pedantic(
        lambda: _fresh(ranks=BASE_RANKS, scale="tiny"),
        rounds=1, iterations=1)
    _add(table, BASE_RANKS, "serial", None, "rmat/tiny", flat_512)

    # -- the same 512 ranks stepped on the threads backend's worker pool ----
    pool_512 = _fresh(ranks=BASE_RANKS, scale="tiny", backend="threads")
    assert _same_run(pool_512, flat_512)
    _add(table, BASE_RANKS, "threads", None, "rmat/tiny", pool_512)

    # -- bit-identity: every backend ----------------------------------------
    serial_8 = _fresh(ranks=8, scale="tiny")
    for backend in ("threads", "procs"):
        assert _same_run(_fresh(ranks=8, scale="tiny", backend=backend),
                         serial_8), backend

    # -- rows past 512 ranks -------------------------------------------------
    for ranks in (1024, 2048):
        _add(table, ranks, "serial", None, "rmat/small",
             _fresh(ranks=ranks, scale="small"))

    table.emit()


if __name__ == "__main__":
    print(json.dumps(_row(json.loads(sys.argv[1]))))
