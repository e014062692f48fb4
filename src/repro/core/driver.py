"""Top-level XtraPuLP driver (Algorithm 1).

``xtrapulp(graph, num_parts, nprocs=...)`` runs the full pipeline inside a
simulated-MPI SPMD program:

1. distribute the graph (random or block 1-D distribution, §III.A);
2. initialize (Algorithm 2 hybrid by default);
3. ``I_outer`` rounds of vertex balancing + refinement (Algorithms 4, 5);
4. ``I_outer`` rounds of edge balancing + refinement (§III.E) —
   skipped in single-objective mode (the Fig. 6 configuration);
5. gather the partition to a global array.

The result carries the partition, per-phase communication stats, and the
modeled parallel time (see :mod:`repro.simmpi.timing`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np

from repro.core.edge_balance import edge_balance_phase, edge_refine_phase
from repro.core.initialization import initialize
from repro.core.params import PulpParams
from repro.core.quality import PartitionQuality, partition_quality
from repro.core.refinement import vertex_refine_phase
from repro.core.state import RankState
from repro.core.vertex_balance import vertex_balance_phase
from repro.dist.build import build_dist_graph
from repro.dist.distribution import Distribution, make_distribution
from repro.ft.checkpoint import (
    CkptContext,
    CkptCommitter,
    CkptPolicy,
    checkpoint_after,
    dist_signature,
    find_latest_committed,
    graph_signature,
    inputs_signature,
    load_checkpoint,
    load_manifest,
    make_context,
    step_plan,
    validate_manifest,
    write_checkpoint,
)
from repro.graph.csr import Graph
from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.comm import SimComm
from repro.simmpi.topology import default_comm
from repro.simmpi.errors import RankFailure
from repro.simmpi.metrics import CommStats
from repro.simmpi.timing import BLUE_WATERS_LIKE, MachineModel, TimeModel

if TYPE_CHECKING:  # repro.multilevel loads scipy.sparse: flat runs never do
    from repro.multilevel.info import MultilevelInfo

#: Phase tags that count toward partitioning time (build/gather excluded,
#: matching the paper's timed region).  The last three are emitted only
#: by multilevel runs (coarsening, per-level weighted refinement, and
#: partition projection — all genuine partitioning work).
PARTITION_PHASES = (
    "init",
    "vertex_balance",
    "vertex_refine",
    "edge_balance",
    "edge_refine",
    "coarsen",
    "ml_refine",
    "project",
)


@dataclass
class PartitionResult:
    """Output of one :func:`xtrapulp` run."""

    parts: np.ndarray
    num_parts: int
    nprocs: int
    params: PulpParams
    stats: CommStats
    wall_seconds: float
    machine: MachineModel = BLUE_WATERS_LIKE
    backend: str = "threads"
    comm: str = "flat"
    multilevel: Optional[MultilevelInfo] = None
    _graph: Optional[Graph] = field(default=None, repr=False)

    @property
    def modeled_seconds(self) -> float:
        """Modeled parallel partitioning time (build/gather excluded)."""
        model = TimeModel(self.machine)
        return model.total_time(self.stats.filtered(PARTITION_PHASES))

    def modeled_seconds_by_phase(self) -> Dict[str, float]:
        model = TimeModel(self.machine)
        times = model.time_by_tag(self.stats)
        return {k: times.get(k, 0.0) for k in PARTITION_PHASES}

    def quality(self, graph: Optional[Graph] = None) -> PartitionQuality:
        g = graph if graph is not None else self._graph
        if g is None:
            raise ValueError("pass the graph to quality() (not retained)")
        return partition_quality(g, self.parts, self.num_parts)


#: Phase functions of the step plan, with the params field naming their
#: iteration count (see :func:`repro.ft.checkpoint.step_plan`).
_PHASE_FUNCS = {
    "vertex_balance": (vertex_balance_phase, "balance_iters"),
    "vertex_refine": (vertex_refine_phase, "refine_iters"),
    "edge_balance": (edge_balance_phase, "balance_iters"),
    "edge_refine": (edge_refine_phase, "refine_iters"),
}


def _rank_main(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    num_parts: int,
    params: PulpParams,
    initial_parts: Optional[np.ndarray] = None,
    vertex_weights: Optional[np.ndarray] = None,
    ckpt: Optional[CkptContext] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The SPMD body: returns (owned gids, owned parts) per rank.

    The outer loop executes the step plan of
    :func:`repro.ft.checkpoint.step_plan`; a fresh run starts at step 0
    (initialization), a resumed run restores its rank snapshot after the
    (deterministic, re-executed) graph build and re-enters the loop at the
    checkpoint's ``next_step``.  With a :class:`CkptContext`, the policy's
    boundaries deposit a checkpoint collective after the step completes.

    ``params.multilevel`` swaps in the V-cycle body (which returns a
    3-tuple carrying its :class:`MultilevelInfo`); imported lazily to
    keep ``core`` ↔ ``multilevel`` imports acyclic and scipy out of flat runs.
    """
    if params.multilevel:
        from repro.multilevel.driver import multilevel_rank_main

        return multilevel_rank_main(
            comm, graph, dist, num_parts, params, initial_parts,
            vertex_weights, ckpt, resume,
        )
    dg = build_dist_graph(comm, graph, dist)
    n_build = comm.event_count  # same on every rank: the build is BSP
    state = RankState(dg=dg, num_parts=num_parts, params=params)
    if vertex_weights is not None:
        state.set_vertex_weights(
            vertex_weights[dg.owned_gids], float(vertex_weights.sum())
        )
    plan = step_plan(params)
    start = 0
    if resume is not None:
        state.restore(resume["snapshots"][comm.rank])
        start = int(resume["next_step"])
    for idx in range(start, len(plan)):
        stage, _outer, phase_name = plan[idx]
        if phase_name == "init":
            initialize(comm, state, initial_parts)
            state.iter_tot = 0
        else:
            if plan[idx - 1][0] != stage:
                # first step of a stage: the iteration counter that drives
                # the (X, Y) multiplier schedule restarts (as the legacy
                # vertex/edge loop structure did)
                state.iter_tot = 0
            fn, iters_field = _PHASE_FUNCS[phase_name]
            fn(comm, state, getattr(params, iters_field))
        if ckpt is not None and checkpoint_after(plan, idx, ckpt.policy.every):
            write_checkpoint(
                comm, state, ckpt, epoch=idx, step=plan[idx], n_build=n_build
            )
    return dg.owned_gids, state.parts[: dg.n_local].copy()


def xtrapulp(
    graph: Graph,
    num_parts: int,
    *,
    nprocs: int = 4,
    params: Optional[PulpParams] = None,
    distribution: Union[str, Distribution] = "random",
    machine: MachineModel = BLUE_WATERS_LIKE,
    keep_graph: bool = True,
    initial_parts: Optional[np.ndarray] = None,
    vertex_weights: Optional[np.ndarray] = None,
    backend: Union[str, None, Backend] = None,
    checkpoint: Union[None, str, os.PathLike, CkptPolicy] = None,
    resume: Union[None, str, os.PathLike] = None,
    fault_plan: Any = None,
    watchdog: Any = None,
    integrity: Optional[str] = None,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` parts on ``nprocs`` simulated
    MPI ranks.

    Parameters
    ----------
    graph:
        Undirected (symmetric CSR) graph.
    num_parts:
        Number of parts ``p`` (independent of ``nprocs``, as in the paper's
        Blue Waters runs computing 256 parts on 2048 nodes).
    nprocs:
        Simulated MPI rank count.
    params:
        Algorithm tunables; defaults to the paper's settings.
    distribution:
        ``"random"`` (paper default for irregular graphs), ``"block"``, or a
        pre-built :class:`~repro.dist.distribution.Distribution`.
    machine:
        Alpha-beta model used for modeled times in the result.
    keep_graph:
        Retain a graph reference on the result so ``result.quality()``
        works without re-passing it.
    initial_parts:
        Optional existing assignment to *improve* instead of initializing
        from scratch (the paper's §V.E workflow); overrides
        ``params.init_strategy``.
    vertex_weights:
        Optional positive per-vertex weights: the vertex balance constraint
        becomes per-part *weight* <= ``(1 + Rat_v) W(V) / p`` (the weighted
        partitioning of the PuLP family; unit weights reproduce the paper's
        setting exactly).
    backend:
        Execution backend for the simulated ranks (``"serial"``,
        ``"threads"``, ``"procs"``, or a pre-built
        :class:`~repro.simmpi.backends.base.Backend`); None honors
        ``$REPRO_BACKEND`` and defaults to ``"threads"``.  Identical
        partitions and communication stats are produced on every backend.
        The communicator strategy (``params.comm`` / ``$REPRO_COMM``)
        independently selects topology-aware metering — again without
        changing partitions or the communication record (see
        :mod:`repro.simmpi.topology`).
    checkpoint:
        Enable phase-boundary checkpointing: a
        :class:`~repro.ft.checkpoint.CkptPolicy`, or a run-directory path
        (policy defaults then apply).  Epochs are committed atomically; a
        failed checkpointed run raises
        :class:`~repro.simmpi.errors.RankFailure` carrying the run
        directory and last committed epoch.
    resume:
        Path of a run directory (its latest committed epoch is used) or of
        one ``epoch_NNNN`` directory.  The manifest is validated against
        the live graph/distribution/params/inputs; the run then restores
        every rank's snapshot and re-enters the outer loop mid-flight.  A
        resumed run's partition *and* communication record are
        bit-identical to an uninterrupted run's.
    fault_plan:
        Optional :class:`~repro.ft.faults.FaultPlan` planting deterministic
        failures (testing/benchmarking; on the ``procs`` backend a ``die``
        fault hard-kills the rank's OS process mid-superstep).
    watchdog:
        Liveness deadline for the run — seconds, a
        :class:`~repro.ft.watchdog.WatchdogConfig`, or None to honor
        ``$REPRO_WATCHDOG_TIMEOUT`` (default: no watchdog, unbounded
        waits).  A rank that makes no progress for that long is killed
        (``procs``) or failed in place (in-process backends) and surfaces
        as :class:`~repro.simmpi.errors.HungRankError` — which, combined
        with ``checkpoint``, makes a hang recoverable exactly like a
        crash.
    integrity:
        ``"crc"`` checksums every collective payload at send and verifies
        at receive (detected corruption raises
        :class:`~repro.simmpi.errors.PayloadCorruptionError`); ``"off"``
        skips all checksum work; None honors ``$REPRO_INTEGRITY``.
    """
    if graph.directed:
        raise ValueError("xtrapulp partitions undirected (symmetric) graphs")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into {num_parts} parts")
    if vertex_weights is not None:
        vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        if vertex_weights.shape != (graph.n,):
            raise ValueError("vertex_weights must have one entry per vertex")
        if vertex_weights.size and vertex_weights.min() <= 0:
            raise ValueError("vertex_weights must be positive")
    params = params or PulpParams()
    if params.multilevel and initial_parts is not None:
        raise ValueError(
            "multilevel does not accept initial_parts (projecting an "
            "existing assignment down the hierarchy is not supported)"
        )
    if isinstance(distribution, str):
        dist = make_distribution(
            distribution, graph.n, nprocs, seed=params.seed
        )
    else:
        dist = distribution
        if dist.n != graph.n or dist.nprocs != nprocs:
            raise ValueError("distribution does not match graph/nprocs")

    # -- fault-tolerance setup (no-op unless requested) -------------------
    ft_requested = checkpoint is not None or resume is not None
    policy: Optional[CkptPolicy] = None
    if checkpoint is not None:
        policy = (
            checkpoint if isinstance(checkpoint, CkptPolicy)
            else CkptPolicy(dir=os.fspath(checkpoint))
        )
    resume_arg: Optional[Dict[str, Any]] = None
    base_events: list = []
    n_skip = 0
    ft_run_dir: Optional[str] = None
    if resume is not None:
        ckpt_data = load_checkpoint(os.fspath(resume))
        validate_manifest(
            ckpt_data.manifest,
            nprocs=nprocs,
            num_parts=num_parts,
            graph_sig=graph_signature(graph),
            dist_sig=dist_signature(dist),
            params_repr=repr(params),
            inputs_sig=inputs_signature(initial_parts, vertex_weights),
        )
        base_events = ckpt_data.base_events
        n_skip = int(ckpt_data.manifest["n_build"])
        resume_arg = {
            "next_step": ckpt_data.next_step,
            "snapshots": ckpt_data.snapshots,
        }
        ft_run_dir = os.path.dirname(os.path.abspath(ckpt_data.epoch_dir))
    ckpt_ctx: Optional[CkptContext] = None
    if policy is not None:
        ft_run_dir = policy.dir
        if policy.every != "off":
            ckpt_ctx = make_context(
                policy, graph=graph, dist=dist, params=params, nprocs=nprocs,
                num_parts=num_parts, initial_parts=initial_parts,
                vertex_weights=vertex_weights,
            )

    # all phases charge deterministic work units (priced by the machine
    # model's gamma), so modeled times are exactly reproducible
    comm_spec = params.comm if params.comm is not None else default_comm()
    runtime = create_runtime(backend, nprocs=nprocs, meter_compute=False,
                             comm=comm_spec, watchdog=watchdog,
                             integrity=integrity)
    if ft_requested and runtime.stats.rounds:
        runtime.close()
        raise ValueError(
            "checkpoint/resume needs a fresh runtime: the given backend "
            "already carries recorded events, which would corrupt the "
            "spliced communication record"
        )
    if fault_plan is not None:
        runtime.fault_plan = fault_plan
    if ckpt_ctx is not None:
        os.makedirs(policy.dir, exist_ok=True)
        runtime.ckpt_committer = CkptCommitter(
            policy.dir, base_events=base_events, n_skip=n_skip
        )
    try:
        t0 = time.perf_counter()
        per_rank = runtime.run(
            _rank_main, graph, dist, num_parts, params, initial_parts,
            vertex_weights, ckpt_ctx, resume_arg,
        )
        wall = time.perf_counter() - t0
    except Exception as exc:
        if not ft_requested:
            raise
        epoch: Optional[int] = None
        if ft_run_dir is not None:
            latest = find_latest_committed(ft_run_dir)
            if latest is not None:
                epoch = int(load_manifest(latest)["epoch"])
        raise RankFailure(
            f"checkpointed run failed: {exc} "
            f"(run_dir={ft_run_dir!r}, last committed epoch: {epoch})",
            run_dir=ft_run_dir,
            epoch=epoch,
        ) from exc
    finally:
        runtime.close()

    parts = np.empty(graph.n, dtype=np.int64)
    seen = 0
    ml_info: Optional[MultilevelInfo] = None
    for item in per_rank:
        gids, owned_parts = item[0], item[1]
        if len(item) == 3:
            # multilevel body: every rank returns the same info object
            ml_info = item[2]
        parts[gids] = owned_parts
        seen += gids.size
    if seen != graph.n:
        raise AssertionError(f"gathered {seen} of {graph.n} vertex labels")

    stats = runtime.stats
    if resume_arg is not None:
        # splice: checkpointed prefix + live events minus the re-executed
        # build (deterministic, so the prefix already contains it) — the
        # record an uninterrupted run would have produced
        spliced = CommStats(nprocs)
        spliced.events = list(base_events) + stats.events[n_skip:]
        spliced.recoveries = list(stats.recoveries)
        # health counters describe the live engine, not the event record —
        # carry them so a resumed run still reports its watchdog/integrity
        # activity (they are excluded from the signature either way)
        spliced.heartbeats_seen = stats.heartbeats_seen
        spliced.deadline_extensions = stats.deadline_extensions
        spliced.checksum_verifications = stats.checksum_verifications
        spliced.checksum_failures = stats.checksum_failures
        stats = spliced

    return PartitionResult(
        parts=parts,
        num_parts=num_parts,
        nprocs=nprocs,
        params=params,
        stats=stats,
        wall_seconds=wall,
        machine=machine,
        backend=runtime.name,
        comm=(runtime.comm_strategy.name if runtime.comm_strategy is not None
              else "flat"),
        multilevel=ml_info,
        _graph=graph if keep_graph else None,
    )
