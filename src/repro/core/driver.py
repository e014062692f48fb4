"""Top-level XtraPuLP driver (Algorithm 1).

``xtrapulp(graph, num_parts, nprocs=...)`` runs the full pipeline inside a
simulated-MPI SPMD program:

1. distribute the graph (random or block 1-D distribution, §III.A) — and,
   with ``params.multilevel``, coarsen it into a hierarchy;
2. follow :func:`step_plan`: initialize (Algorithm 2 hybrid by default),
   ``I_outer`` rounds of vertex balancing + refinement (Algorithms 4, 5),
   the uncoarsening sweep of a V-cycle, then the edge balancing +
   refinement rounds (§III.E) — skipped in single-objective mode (the
   Fig. 6 configuration).  Every phase is :func:`repro.core.lp.lp_phase`
   under one of its :data:`~repro.core.lp.SPECS`;
3. gather the partition to a global array.

The flat pipeline is the one-level case of the V-cycle: one rank body, one
plan.  The result carries the partition, per-phase communication stats,
and the modeled parallel time (see :mod:`repro.simmpi.timing`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.params import PulpParams
from repro.core.quality import Partition, PartitionQuality
from repro.core.state import RankState
from repro.dist.build import build_dist_graph
from repro.dist.distribution import Distribution, make_distribution
from repro.ft.checkpoint import (
    CheckpointData,
    CkptContext,
    CkptCommitter,
    CkptPolicy,
    checkpoint_after,
    find_latest_committed,
    load_for_run,
    load_manifest,
    make_context,
    write_checkpoint,
)
from repro.graph.csr import Graph
from repro.simmpi.backends import Backend, create_runtime
from repro.simmpi.comm import SimComm
from repro.simmpi.errors import RankFailure
from repro.simmpi.metrics import CommStats
from repro.simmpi.stepping import Steps
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
class PartitionResult(Partition):
    """Output of one :func:`xtrapulp` run."""

    nprocs: int
    params: PulpParams
    stats: CommStats
    wall_seconds: float
    machine: MachineModel = BLUE_WATERS_LIKE
    backend: str = "threads"
    comm: str = "flat"
    multilevel: Optional[MultilevelInfo] = None
    #: the partitioned graph, so :meth:`quality` needs no argument
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
        return super().quality(graph if graph is not None else self._graph)


def step_plan(
    params: PulpParams, n_levels: int = 1
) -> List[Tuple[str, int, str]]:
    """The rank body's step sequence: ``(stage, index, phase)``, ``phase``
    naming ``"init"`` or one of :data:`repro.core.lp.SPECS`.

    Flat: init, ``outer_iters`` vertex rounds, ``outer_iters`` edge rounds.
    Multilevel (``n_levels`` = levels of the hierarchy): the vertex stage
    runs on the coarsest level with the edge-weighted refine; each
    ``("uncoarsen", lvl, "ml_refine")`` step projects onto level ``lvl``,
    balances and refines there; the edge stage closes the run on the fine
    graph.
    """
    ml = params.multilevel
    refine = "ml_refine" if ml else "vertex_refine"
    plan = [("init", -1, "init")]
    for o in range(params.outer_iters):
        plan += [("vertex", o, "vertex_balance"), ("vertex", o, refine)]
    if ml:
        plan += [("uncoarsen", lvl, refine)
                 for lvl in range(n_levels - 2, -1, -1)]
        # fine-level polish: the V-cycle's per-level sweeps are bounded, so
        # the finest level gets one full-strength round before the
        # dual-constraint stage
        plan += [("fine", 0, "vertex_balance"), ("fine", 0, refine)]
    if not params.single_objective:
        # a V-cycle has already converged the cut, so its edge stage is one
        # constraint-satisfaction round: round 1 reaches the edge-balance
        # target; further rounds only exercise the cut-size shuffle, whose
        # moves the multilevel partition — with its evenly spread per-part
        # cut sizes — cannot profitably undo (the ``maxc`` ratchet blocks
        # the recovery moves that make extra rounds cut-neutral when flat)
        for o in range(1 if ml else params.outer_iters):
            plan += [("edge", o, "edge_balance"), ("edge", o, "edge_refine")]
    return plan


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
) -> Steps[Tuple[np.ndarray, np.ndarray, Optional[MultilevelInfo]]]:
    """The SPMD body: returns ``(owned gids, owned parts, multilevel
    info or None)`` per rank.  A generator body: every collective it
    reaches is a ``yield from``, so ``serial`` steps all ranks in the
    calling thread (:mod:`repro.simmpi.stepping`).

    The loop executes :func:`step_plan`; a fresh run starts at step 0
    (initialization), a resumed run restores its rank snapshot after the
    (deterministic, re-executed) build and re-enters the loop at the
    checkpoint's ``next_step``.  With a :class:`CkptContext`, the policy's
    boundaries deposit a checkpoint collective after the step completes.

    ``levels`` is the part of the hierarchy not yet projected through,
    finest first — None on a flat run, whose state sits on the one
    ``DistGraph``.  A multilevel snapshot wraps the rank's with the level
    and the cut trajectory, so a resume rebuilds the state on the right
    level.  ``repro.multilevel`` is imported here, not at the top, to keep
    ``core`` ↔ ``multilevel`` imports acyclic and scipy out of flat runs.
    """
    levels, n_levels = None, 1
    if params.multilevel:
        from repro.multilevel import hierarchy
        from repro.multilevel.info import MultilevelInfo

        levels = yield from hierarchy.build_hierarchy(
            comm, graph, dist, num_parts, params, vertex_weights
        )
        level_sizes = [lv.size for lv in levels]
        n_levels = len(levels)
        state = hierarchy.level_state(levels, num_parts, params, n_levels)
        cuts: List[float] = []
    else:
        dg = yield from build_dist_graph(comm, graph, dist)
        state = RankState(dg=dg, num_parts=num_parts, params=params)
        if vertex_weights is not None:
            state.set_vertex_weights(
                vertex_weights[dg.owned_gids], float(vertex_weights.sum())
            )
    # same on every rank, and on a resumed run: the build is BSP and a
    # function of the inputs alone
    n_build = comm.event_count
    plan = step_plan(params, n_levels)
    start = 0
    if resume is not None:
        snap = resume["snapshots"][comm.rank]
        if levels:
            del levels[int(snap["level"]) + 1:]  # already projected through
            state = hierarchy.level_state(levels, num_parts, params, n_levels)
            cuts = [float(c) for c in snap["cuts"]]
            snap = snap["inner"]
        state.restore(snap)
        start = int(resume["next_step"])
    for idx in range(start, len(plan)):
        stage, _index, phase = plan[idx]
        if phase == "init":
            yield from initialize(comm, state, initial_parts)
            state.iter_tot = 0
        else:
            if plan[idx - 1][0] != stage:
                # first step of a stage: the iteration counter that drives
                # the (X, Y) multiplier schedule restarts
                state.iter_tot = 0
            spec = SPECS[phase]
            iters = getattr(params, spec.iters)
            seeds = None
            if stage == "uncoarsen":
                if not cuts:  # coarsest partition settled: open the trajectory
                    cuts.append((yield from hierarchy.weighted_cut(
                        comm, state, levels[-1])))
                state, seeds = yield from hierarchy.project(
                    comm, state, levels, num_parts, params, n_levels
                )
                # tighten toward this level's balance target before
                # refining — the projected partition carries the coarser
                # level's (looser) imbalance
                yield from lp_phase(comm, state, SPECS["vertex_balance"],
                                    params.balance_iters)
                iters = params.ml_refine_iters
            ew = levels[-1].ew_local if spec.tally == "arc" else None
            yield from lp_phase(comm, state, spec, iters, arc_weights=ew,
                                seed_lids=seeds)
            if stage == "uncoarsen":
                cuts.append((yield from hierarchy.weighted_cut(
                    comm, state, levels[-1])))
        if ckpt is not None and checkpoint_after(plan, idx, ckpt.policy.every):
            snap = state.snapshot()
            if levels:
                snap = {"ml_format": 1, "level": len(levels) - 1,
                        "cuts": [float(c) for c in cuts], "inner": snap}
            yield from write_checkpoint(
                comm, snap, ckpt, epoch=idx, step=plan[idx], n_build=n_build
            )
    info = None
    if levels:
        # the trajectory closes with the final fine cut (after the edge
        # stage when it runs; for a single-level run this is the only entry)
        cuts.append((yield from hierarchy.weighted_cut(
            comm, state, levels[-1])))
        info = MultilevelInfo(
            levels=n_levels,
            coarsen_mode=params.ml_coarsen,
            level_sizes=level_sizes,
            cut_trajectory=cuts,
            coarsest_n=level_sizes[-1][0],
        )
    dg = state.dg
    return dg.owned_gids, state.parts[: dg.n_local].copy(), info


@dataclass
class _RunConfig:
    """What the front door resolved from its arguments before a rank starts."""

    params: PulpParams
    dist: Distribution
    vertex_weights: Optional[np.ndarray]
    #: where epochs go (or the resumed one came from); None: no fault tolerance
    run_dir: Optional[str] = None
    ckpt_ctx: Optional[CkptContext] = None
    #: the epoch to resume from: rank snapshots, the event prefix the live
    #: record is spliced onto, the count of build events to skip
    resumed: Optional[CheckpointData] = None
    runtime: Optional[Backend] = None


def _resolve_config(
    graph: Graph, num_parts: int, nprocs: int, params: Optional[PulpParams],
    distribution: Union[str, Distribution],
    initial_parts: Optional[np.ndarray],
    vertex_weights: Optional[np.ndarray],
    backend, checkpoint, resume, fault_plan, watchdog, integrity,
) -> _RunConfig:
    """Validate the inputs; resolve the distribution, the checkpoint policy,
    the epoch to resume from, and the runtime with its guards (backend,
    communicator, watchdog, integrity mode, fault plan, committer)."""
    if graph.directed:
        raise ValueError("xtrapulp partitions undirected (symmetric) graphs")
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts > graph.n:
        raise ValueError(f"cannot cut {graph.n} vertices into {num_parts} parts")
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    if vertex_weights is not None:
        vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        if vertex_weights.shape != (graph.n,):
            raise ValueError("vertex_weights must have one entry per vertex")
        bad = np.flatnonzero(~np.isfinite(vertex_weights))
        if bad.size:
            raise ValueError(
                f"vertex_weights must be finite; {bad.size} are not, the "
                f"first {vertex_weights[bad[0]]} at vertex {bad[0]}")
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
    cfg = _RunConfig(params, dist, vertex_weights)

    # fault tolerance: a no-op unless requested
    identity = dict(
        graph=graph, dist=dist, params=params, nprocs=nprocs,
        num_parts=num_parts, initial_parts=initial_parts,
        vertex_weights=vertex_weights,
    )
    if resume is not None:
        cfg.resumed = load_for_run(os.fspath(resume), **identity)
        cfg.run_dir = os.path.dirname(os.path.abspath(cfg.resumed.epoch_dir))
    if checkpoint is not None:
        policy = (
            checkpoint if isinstance(checkpoint, CkptPolicy)
            else CkptPolicy(dir=os.fspath(checkpoint))
        )
        cfg.run_dir = policy.dir
        if policy.every != "off":
            cfg.ckpt_ctx = make_context(policy, **identity)

    cfg.runtime = runtime = create_runtime(
        backend, nprocs=nprocs, comm=params.comm,
        watchdog=watchdog, integrity=integrity,
    )
    if cfg.run_dir is not None and runtime.stats.rounds:
        runtime.close()
        raise ValueError(
            "checkpoint/resume needs a fresh runtime: the given backend "
            "already carries recorded events, which would corrupt the "
            "spliced communication record"
        )
    if fault_plan is not None:
        runtime.fault_plan = fault_plan
    if cfg.ckpt_ctx is not None:
        os.makedirs(cfg.run_dir, exist_ok=True)
        runtime.ckpt_committer = CkptCommitter(
            cfg.run_dir,
            base_events=cfg.resumed.base_events if cfg.resumed else None,
            n_skip=cfg.resumed.n_build if cfg.resumed else 0,
        )
    return cfg


def _run(cfg: _RunConfig, graph: Graph, num_parts: int,
         initial_parts: Optional[np.ndarray]) -> Tuple[list, float]:
    """Run the rank body and close the runtime; ``(per-rank results, wall
    seconds)``.  A failed fault-tolerant run raises :class:`RankFailure`
    naming the run directory and its last committed epoch."""
    resume = cfg.resumed and {"next_step": cfg.resumed.next_step,
                              "snapshots": cfg.resumed.snapshots}
    try:
        t0 = time.perf_counter()
        per_rank = cfg.runtime.run(
            _rank_main, graph, cfg.dist, num_parts, cfg.params, initial_parts,
            cfg.vertex_weights, cfg.ckpt_ctx, resume,
        )
        return per_rank, time.perf_counter() - t0
    except Exception as exc:
        if cfg.run_dir is None:
            raise
        latest = find_latest_committed(cfg.run_dir)
        epoch = None if latest is None else int(load_manifest(latest)["epoch"])
        raise RankFailure(
            f"checkpointed run failed: {exc} "
            f"(run_dir={cfg.run_dir!r}, last committed epoch: {epoch})",
            run_dir=cfg.run_dir,
            epoch=epoch,
        ) from exc
    finally:
        cfg.runtime.close()


def _assemble_result(
    cfg: _RunConfig, graph: Graph, num_parts: int, nprocs: int,
    per_rank: list, wall: float, machine: MachineModel,
) -> PartitionResult:
    """Gather the ranks' parts; on a resumed run splice the record."""
    parts = np.empty(graph.n, dtype=np.int64)
    seen = 0
    ml_info = None
    for gids, owned_parts, ml_info in per_rank:  # every rank: the same info
        parts[gids] = owned_parts
        seen += gids.size
    if seen != graph.n:
        raise AssertionError(f"gathered {seen} of {graph.n} vertex labels")
    runtime = cfg.runtime
    stats = runtime.stats
    if cfg.resumed is not None:
        # splice: checkpointed prefix + live events minus the re-executed
        # build (deterministic, so the prefix already contains it) — the
        # record an uninterrupted run would have produced.  Recoveries and
        # health counters describe the live engine, not the event record
        # (and are no part of the signature): a resumed run reports its own.
        prefix, n_skip = cfg.resumed.base_events, cfg.resumed.n_build
        stats = replace(stats, recoveries=list(stats.recoveries),
                        events=prefix + stats.events[n_skip:])
    return PartitionResult(
        parts=parts,
        num_parts=num_parts,
        nprocs=nprocs,
        params=cfg.params,
        stats=stats,
        wall_seconds=wall,
        machine=machine,
        backend=runtime.name,
        comm=(runtime.comm_strategy.name if runtime.comm_strategy is not None
              else "flat"),
        multilevel=ml_info,
        _graph=graph,
    )


def xtrapulp(
    graph: Graph,
    num_parts: int,
    *,
    nprocs: int = 4,
    params: Optional[PulpParams] = None,
    distribution: Union[str, Distribution] = "random",
    machine: MachineModel = BLUE_WATERS_LIKE,
    initial_parts: Optional[np.ndarray] = None,
    vertex_weights: Optional[np.ndarray] = None,
    backend: Union[str, None, Backend] = None,
    checkpoint: Union[None, str, os.PathLike, CkptPolicy] = None,
    resume: Union[None, str, os.PathLike] = None,
    fault_plan: Any = None,
    watchdog: Optional[float] = None,
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
        The communicator strategy (``params.comm``, else a pre-built
        backend's own, else ``flat``) independently selects
        topology-aware metering — again without changing partitions or
        the communication record (see :mod:`repro.simmpi.topology`).
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
        Liveness deadline for the run in seconds; None or 0 (default:
        none) turns it off, a negative value is a ``ValueError``.  A rank that makes no progress for that long is killed
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
    cfg = _resolve_config(
        graph, num_parts, nprocs, params, distribution, initial_parts,
        vertex_weights, backend, checkpoint, resume, fault_plan, watchdog,
        integrity,
    )
    per_rank, wall = _run(cfg, graph, num_parts, initial_parts)
    return _assemble_result(
        cfg, graph, num_parts, nprocs, per_rank, wall, machine
    )
