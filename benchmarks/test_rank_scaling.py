"""Thousands-of-ranks scaling rows on the shared-result engine.

At hundreds-to-thousands of simulated ranks the partitioner's wall clock is
dominated by the simulator itself: result delivery, rank scheduling and
per-deposit metering.  This bench runs the full pipeline at
512, 1024 and 2048 ranks on the serial backend and records wall, modeled
time, cut and traffic, plus 512 ranks on ``threads``, whose generator
ranks share one worker per usable CPU instead of a thread each.  Its wall
is not gated here: the perf ledger's ``ranks256`` workload bounds
``partition_wall_s`` (``benchmarks/perf``).

Also recorded: cross-backend bit-identity (partitions and
`CommStats.signature()`), and a rack-tier (``hierarchical:16x4``) run with
three-way byte conservation asserted and priced by the tiered machine
model.
"""

import time

import numpy as np

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.simmpi import BLUE_WATERS_TIERED, TimeModel
from repro.simmpi.backends import create_runtime

BASE_RANKS = 512
PARTS = 16
#: 512 ranks = 32 nodes x 16 ranks/node = 8 racks x 4 nodes/rack.
RACK_COMM = "hierarchical:16x4"
#: One outer iteration keeps a 512-rank full-pipeline run in seconds while
#: still exercising every phase (init, balance, refine, edge stage).
PARAMS = dict(seed=42, outer_iters=1, balance_iters=2, refine_iters=3)


def _run(graph, nprocs, backend="serial", comm=None):
    rt = create_runtime(backend, nprocs=nprocs, meter_compute=False,
                        comm=comm)
    t0 = time.perf_counter()
    result = xtrapulp(graph, PARTS, nprocs=nprocs,
                      params=PulpParams(**PARAMS), backend=rt)
    return time.perf_counter() - t0, result


def _row(table, ranks, backend, comm, graph_name, wall, result):
    st = result.stats
    table.add(
        ranks,
        backend,
        comm or "flat",
        graph_name,
        round(wall, 3),
        round(TimeModel(machine=BLUE_WATERS_TIERED).total_time(st), 4),
        int(result.quality().cut),
        round(st.total_bytes / 2**20, 2),
        round(st.modeled_xrack_bytes() / 2**20, 2),
    )


def test_rank_scaling(benchmark, suite_graph):
    table = ExperimentTable(
        "rank_scaling",
        ["ranks", "backend", "comm", "graph", "wall_s", "model_s",
         "cutsize", "MiB_sent", "xrack_MiB"],
        notes=f"full pipeline, {PARTS} parts, outer_iters=1; wall_s is "
              "single-shot perf_counter, not gated (the perf ledger's "
              "ranks256 workload bounds the wall)",
    )
    tiny = suite_graph("rmat", "tiny")
    small = suite_graph("rmat", "small")

    wall_512, flat_512 = benchmark.pedantic(
        lambda: _run(tiny, BASE_RANKS), rounds=1, iterations=1
    )
    _row(table, BASE_RANKS, "serial", None, "rmat/tiny", wall_512, flat_512)

    # -- the same 512 ranks stepped on the threads backend's worker pool ----
    wall_pool, pool_512 = _run(tiny, BASE_RANKS, backend="threads")
    np.testing.assert_array_equal(pool_512.parts, flat_512.parts)
    assert pool_512.stats.signature() == flat_512.stats.signature()
    _row(table, BASE_RANKS, "threads", None, "rmat/tiny", wall_pool, pool_512)

    # -- bit-identity: every backend ----------------------------------------
    _, serial_8 = _run(tiny, 8)
    for backend in ("threads", "procs"):
        _, other = _run(tiny, 8, backend=backend)
        np.testing.assert_array_equal(other.parts, serial_8.parts)
        assert other.stats.signature() == serial_8.stats.signature()

    # -- rack tier: conservation + pricing ----------------------------------
    wall_rack, rack = _run(tiny, BASE_RANKS, comm=RACK_COMM)
    np.testing.assert_array_equal(rack.parts, flat_512.parts)
    racked = [e for e in rack.stats.events if e.tiers is not None]
    assert racked
    for e in racked:
        np.testing.assert_array_equal(
            e.tiers.intra_bytes + e.tiers.inter_bytes + e.tiers.xrack_bytes,
            e.bytes_sent)
    by_op = rack.stats.bytes_by_op()
    for op, (intra, inter, xrack) in rack.stats.rack_tier_bytes_by_op().items():
        assert intra + inter + xrack == by_op[op]
    assert rack.stats.modeled_xrack_bytes() > 0
    assert TimeModel(machine=BLUE_WATERS_TIERED).total_time(rack.stats) > 0
    _row(table, BASE_RANKS, "serial", RACK_COMM, "rmat/tiny", wall_rack, rack)

    # -- rows past 512 ranks -------------------------------------------------
    for ranks in (1024, 2048):
        wall, result = _run(small, ranks)
        _row(table, ranks, "serial", None, "rmat/small", wall, result)

    table.emit()
