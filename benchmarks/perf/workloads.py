"""Workload table and metric catalogue of the perf ledger.

The one place that names things: ``/BENCHMARK.json`` repeats the names,
units, directions and bounds listed here (``test_perf_smoke.py`` checks
the two agree), ``child.py`` produces the values, ``compare.py`` applies
the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

SCHEMA = "repro-perf-ledger/1"


@dataclass(frozen=True)
class Workload:
    """One fixed (graph instance, partitioner configuration) pair.

    The graph *instance* is fixed (``graph_seed``); ``--seed`` drives the
    partitioner (``PulpParams.seed``: the random vertex distribution, the
    initialisation and every tie-break).  Re-rolling the graph per seed
    was measured first and rejected: on ``webcrawl(2**15)`` at 256 parts
    the seed-to-seed spread was 51 % on ``edge_balance`` and 18 % on
    ``cut_ratio`` (the Pareto site sizes decide them), which would bury
    any change to the partitioner.  A fixed instance with ten partitioner
    seeds is also how the partitioning literature reports quality.
    """

    name: str
    why: str
    generator: str                    # name in repro.graph.generators
    gen_args: Tuple[Any, ...]         # full-size instance
    twin_args: Tuple[Any, ...]        # ~1024-vertex twin (warm-up, --smoke)
    graph_seed: Any                   # None: the generator takes no seed
    num_parts: int
    nprocs: int
    backend: str
    pinned: bool                      # serial backend: one CPU (see README)
    params: Dict[str, Any] = field(default_factory=dict)   # PulpParams kwargs
    guards: Dict[str, Any] = field(default_factory=dict)   # xtrapulp kwargs
    checkpoint: bool = False          # CkptPolicy(<per-rep dir>, every="phase")


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="parts256",
        why="many parts: dense block-by-parts scoring in core is ~96% of "
            "the wall, so kernel work shows here and almost nowhere else",
        generator="webcrawl", gen_args=(2 ** 15, 24), twin_args=(1024, 24),
        graph_seed=7, num_parts=256, nprocs=4, backend="serial", pinned=True,
    ),
    Workload(
        name="ranks256",
        why="many ranks, tiny blocks: rendezvous, baton scheduling, "
            "metering and per-rank fixed costs dominate; a kernel change "
            "that adds per-call cost shows as a loss here",
        generator="rmat", gen_args=(13, 16), twin_args=(10, 16),
        graph_seed=7, num_parts=16, nprocs=256, backend="serial", pinned=True,
        params={"comm": "hierarchical:16"},
    ),
    Workload(
        name="mesh_ml",
        why="the multilevel V-cycle on the default threads backend: "
            "dist.build re-run per level, coarsen/refine/project, largest "
            "memory, real thread overlap",
        generator="mesh3d", gen_args=(51, 51, 51), twin_args=(8, 8, 16),
        graph_seed=None, num_parts=16, nprocs=4, backend="threads",
        pinned=False, params={"multilevel": True, "ml_coarsen": "hem"},
    ),
    Workload(
        name="procs_guarded",
        why="the production path: fork + shm data plane + crc + heartbeats "
            "+ per-phase checkpoints; writes beside reads, large payloads "
            "through processes instead of tiny ones through threads",
        generator="social", gen_args=(2 ** 17, 24), twin_args=(1024, 24),
        graph_seed=7, num_parts=32, nprocs=2, backend="procs", pinned=False,
        guards={"watchdog": 60, "integrity": "crc"}, checkpoint=True,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: End-to-end metrics: (name, unit, better, bound).  ``bound`` is the share
#: of the baseline median by which the metric may worsen before
#: ``compare.py`` (and the PR driver) calls it a regression.  Each is at
#: least three times the quartile spread seen over ten partitioner seeds on
#: the 2-vCPU sandbox, or the driver's ceiling of 0.25 where the machine's
#: own speed swings more than that allows (README, "Spread measured").
E2E_METRICS = (
    ("setup_s", "s", "lower", 0.25),
    ("partition_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("modeled_s", "s", "lower", 0.2),
    ("cut_ratio", "ratio", "lower", 0.15),
    ("vertex_balance", "ratio", "lower", 0.15),
)

#: Per-layer metrics: (name, unit, better).  Layers are this repo's
#: packages; ``run.*`` describes the measurement itself.  A metric that
#: does not apply to a workload, or whose probe failed, is ``null`` in the
#: ledger (and 0 on the driver's result line, which carries numbers only).
LAYER_METRICS = (
    ("graph.load_s", "s", "lower"),
    ("graph.vertices", "count", "higher"),
    ("graph.edges", "count", "higher"),
    ("graph.csr_mb", "MiB", "lower"),
    ("dist.build_s", "s", "lower"),
    ("dist.build_bytes", "B", "lower"),
    ("dist.build_alone_wall_s", "s", "lower"),
    ("dist.ghost_ratio", "ratio", "lower"),
    ("core.init_s", "s", "lower"),
    ("core.vertex_balance_s", "s", "lower"),
    ("core.vertex_refine_s", "s", "lower"),
    ("core.edge_balance_s", "s", "lower"),
    ("core.edge_refine_s", "s", "lower"),
    ("core.work_units", "count", "lower"),
    ("core.score_ns_per_arc", "ns", "lower"),
    ("core.quality_s", "s", "lower"),
    ("core.edge_balance", "ratio", "lower"),
    ("multilevel.coarsen_s", "s", "lower"),
    ("multilevel.ml_refine_s", "s", "lower"),
    ("multilevel.project_s", "s", "lower"),
    ("multilevel.levels", "count", "lower"),
    ("multilevel.coarsest_n", "count", "lower"),
    ("simmpi.rounds", "count", "lower"),
    ("simmpi.comm_bytes", "B", "lower"),
    ("simmpi.compute_sum_s", "s", "lower"),
    ("simmpi.compute_crit_s", "s", "lower"),
    ("simmpi.imbalance", "ratio", "lower"),
    ("simmpi.overhead_s", "s", "lower"),
    ("simmpi.parallelism", "ratio", "higher"),
    ("simmpi.allreduce_round_us", "us", "lower"),
    ("simmpi.alltoallv_round_us", "us", "lower"),
    ("simmpi.allreduce_round_us_unpinned", "us", "lower"),
    ("simmpi.modeled_work_s", "s", "lower"),
    ("simmpi.modeled_latency_s", "s", "lower"),
    ("simmpi.modeled_bandwidth_s", "s", "lower"),
    ("simmpi.price_s", "s", "lower"),
    ("simmpi.rank_peak_rss_mb", "MiB", "lower"),
    ("ft.unguarded_wall_s", "s", "lower"),
    ("ft.guard_overhead_ratio", "ratio", "lower"),
    ("ft.ckpt_s", "s", "lower"),
    ("ft.ckpt_bytes", "B", "lower"),
    ("ft.ckpt_epochs", "count", "lower"),
    ("ft.checksum_verifications", "count", "lower"),
    ("ft.heartbeats_seen", "count", "higher"),
    ("run.wall_median_s", "s", "lower"),
    ("run.wall_max_s", "s", "lower"),
    ("run.rep_spread", "ratio", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("run.edges_per_s", "edges/s", "higher"),
    ("run.trace_overhead_ratio", "ratio", "lower"),
    ("run.calib_s", "s", "lower"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in E2E_METRICS}
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
