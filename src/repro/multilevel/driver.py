"""The multilevel SPMD body: coarsen → partition coarsest → uncoarsen.

``multilevel_rank_main`` is what :func:`repro.core.driver._rank_main`
dispatches to when ``params.multilevel`` is set.  Shape of a run:

1. **Hierarchy construction** — cluster + contract level by level until
   the vertex count drops below ``max(ml_coarsest_factor * num_parts,
   2 * nprocs)``, ``ml_levels`` is reached, or coarsening stagnates.
   The hierarchy depends only on ``(graph, dist, params)`` — never on
   partition state — so a resumed run re-executes it deterministically
   and the existing event-splice machinery works unchanged
   (``n_build`` = collectives consumed through hierarchy construction).
2. **Coarsest partition** — the flat pipeline's init + vertex stage on
   the coarsest level, with the refine half swapped for the
   edge-weighted sweep (coarse arcs carry aggregated fine-edge weight;
   unweighted plurality would optimize the wrong cut).
3. **Uncoarsening** — per level: project parts through the cluster map
   (one Allgatherv of owned coarse parts), then bounded weighted refine
   sweeps seeded from cluster-boundary vertices.
4. **Edge stage** — the flat edge balance/refine rounds run last, on the
   *fine* graph, where structural degrees (the edge-balance objective)
   are meaningful.  Skipped under ``single_objective`` as usual.

Checkpointing follows the same step-plan protocol as the flat driver;
a snapshot wraps the inner :class:`~repro.core.state.RankState` snapshot
with the current level index and the cut trajectory so a resume rebuilds
the state on the right level's ``DistGraph``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.edge_balance import edge_balance_phase, edge_refine_phase
from repro.core.initialization import initialize
from repro.core.state import RankState
from repro.core.vertex_balance import vertex_balance_phase
from repro.dist.distribution import Distribution
from repro.ft.checkpoint import CkptContext, checkpoint_after, write_checkpoint
from repro.graph.csr import Graph
from repro.graph.gather import sorted_unique
from repro.multilevel.coarsen import (
    MLLevel,
    allgather_owned,
    contract_level,
    hem_cluster_labels,
    lp_cluster_labels,
    make_level0,
)
from repro.multilevel.info import MultilevelInfo
from repro.multilevel.refine import ml_refine_phase, weighted_cut
from repro.simmpi.comm import SimComm


def ml_step_plan(params, n_levels: int) -> List[Tuple[str, int, str]]:
    """The multilevel driver's step sequence, same grammar as
    :func:`repro.ft.checkpoint.step_plan`: ``(stage, index, phase)``.

    The vertex stage runs on the coarsest level (its refine half is the
    weighted ``ml_refine``); each ``("uncoarsen", lvl, "ml_refine")``
    step projects onto level ``lvl`` and refines there; the edge stage
    closes the run on the fine graph.
    """
    plan: List[Tuple[str, int, str]] = [("init", -1, "init")]
    for o in range(params.outer_iters):
        plan.append(("vertex", o, "vertex_balance"))
        plan.append(("vertex", o, "ml_refine"))
    for lvl in range(n_levels - 2, -1, -1):
        plan.append(("uncoarsen", lvl, "ml_refine"))
    # fine-level polish: one balance + refine round at level 0 — the
    # V-cycle's per-level sweeps are bounded, so the finest level gets one
    # full-strength round before the dual-constraint stage
    plan.append(("fine", 0, "vertex_balance"))
    plan.append(("fine", 0, "ml_refine"))
    if not params.single_objective:
        # one dual-constraint round, not ``outer_iters``: the V-cycle has
        # already converged the cut, so the edge stage is a constraint-
        # satisfaction pass.  Round 1 reaches the edge-balance target;
        # further rounds only exercise the cut-size shuffle, whose moves
        # the multilevel partition — with its evenly spread per-part cut
        # sizes — cannot profitably undo (the ``maxc`` ratchet blocks the
        # recovery moves that make extra rounds cut-neutral for the flat
        # pipeline).
        plan.append(("edge", 0, "edge_balance"))
        plan.append(("edge", 0, "edge_refine"))
    return plan


def build_hierarchy(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    num_parts: int,
    params,
    vertex_weights: Optional[np.ndarray],
) -> List[MLLevel]:
    """Coarsen until the target size, the level cap, or stagnation.

    Purely a function of the inputs — no partition state — which is what
    makes checkpoint resume re-execute it bit-identically.  A level's
    global ``graph`` / ``eweights`` are released as soon as the next level
    is contracted from them: uncoarsening reads only the per-rank views.
    """
    levels = [make_level0(comm, graph, dist, vertex_weights)]
    target = max(params.ml_coarsest_factor * num_parts, 2 * comm.size)
    floor = max(num_parts, comm.size)
    while (
        len(levels) < params.ml_levels
        and levels[-1].size[0] > target
    ):
        cur = levels[-1]
        level_index = len(levels) - 1
        if params.ml_coarsen == "lp":
            labels = lp_cluster_labels(
                comm, cur, num_parts, params, level_index
            )
        else:
            labels = hem_cluster_labels(comm, cur, params, level_index)
        nxt = contract_level(
            comm, cur, labels, params, level_index, min_vertices=floor
        )
        if nxt is None:
            break
        cur.graph = cur.eweights = None
        levels.append(nxt)
    levels[-1].graph = levels[-1].eweights = None
    return levels


def _level_params(params, lvl: int, n_levels: int):
    """Per-level tunables: the adaptive imbalance schedule.

    At the coarsest level a few heavy clusters leave almost no headroom
    under the strict constraint, blocking nearly every cut-improving
    move; relaxing the target there and tightening it level by level
    (each uncoarsen step runs a balance pass at its level's target) is
    the standard multilevel remedy.  Level 0 gets ``params`` verbatim,
    so the finest refine and the edge stage enforce the user's bounds.
    """
    if lvl == 0 or params.ml_imbalance_relax == 0:
        return params
    eps = params.vert_imbalance * (
        1.0 + params.ml_imbalance_relax * lvl / max(n_levels - 1, 1)
    )
    return params.with_(vert_imbalance=eps)


def _fresh_state(
    level: MLLevel, num_parts: int, params, lvl: int, n_levels: int
) -> RankState:
    state = RankState(
        dg=level.dg, num_parts=num_parts,
        params=_level_params(params, lvl, n_levels),
    )
    state.set_vertex_weights(
        level.vweights[level.dg.owned_gids], float(level.vweights.sum())
    )
    return state


def _project(
    comm: SimComm,
    coarse_state: RankState,
    coarse_level: MLLevel,
    fine_level: MLLevel,
    num_parts: int,
    params,
    lvl: int,
    n_levels: int,
) -> Tuple[RankState, np.ndarray]:
    """Project the coarse partition onto the finer level.

    One Allgatherv of owned coarse parts reconstructs the global coarse
    assignment on every rank; each fine vertex (owned and ghost alike)
    inherits its cluster's part, so no ghost exchange is needed — the
    projection is consistent by construction.  Returns the finer level's
    state plus the refine seeds: owned lids with an arc leaving their
    cluster (the only vertices whose immediate move can change the cut).
    """
    cdg = coarse_level.dg
    fdg = fine_level.dg
    f2c = coarse_level.fine2coarse
    with comm.phase("project"):
        gparts = allgather_owned(
            comm, coarse_level.dist, coarse_state.parts[: cdg.n_local]
        )
        # scatter + two gather passes over this rank's fine view
        comm.charge(float(cdg.n_local) + 2.0 * fdg.l2g.size + fdg.adj.size)
        cluster_of = f2c[fdg.l2g]
        state = _fresh_state(fine_level, num_parts, params, lvl, n_levels)
        state.parts[:] = gparts[cluster_of]
        # carry the cross-level accounting (the multiplier schedule keeps
        # advancing through the V-cycle; work/sweep logs are cumulative)
        state.iter_tot = coarse_state.iter_tot
        state.work_pending = coarse_state.work_pending
        state.edges_touched = coarse_state.edges_touched
        state.sweep_log = coarse_state.sweep_log
        srcs = np.repeat(
            np.arange(fdg.n_local, dtype=np.int64), fdg.local_degrees
        )
        boundary = cluster_of[srcs] != cluster_of[fdg.adj]
        seeds = sorted_unique(srcs[boundary])
    return state, seeds


class _MLCheckpointProxy:
    """Snapshot adapter handed to :func:`write_checkpoint`: wraps the
    inner rank snapshot with the level position and cut trajectory."""

    def __init__(self, level: int, inner: RankState, cuts: List[float]):
        self.level = level
        self.inner = inner
        self.cuts = cuts

    def snapshot(self) -> dict:
        return {
            "ml_format": 1,
            "level": int(self.level),
            "cuts": [float(c) for c in self.cuts],
            "inner": self.inner.snapshot(),
        }


def multilevel_rank_main(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    num_parts: int,
    params,
    initial_parts: Optional[np.ndarray] = None,
    vertex_weights: Optional[np.ndarray] = None,
    ckpt: Optional[CkptContext] = None,
    resume: Optional[Dict[str, Any]] = None,
) -> Tuple[np.ndarray, np.ndarray, MultilevelInfo]:
    """The multilevel SPMD body: returns
    ``(owned gids, owned parts, MultilevelInfo)`` per rank."""
    if initial_parts is not None:
        raise ValueError(
            "multilevel does not accept initial_parts (projecting an "
            "existing assignment down the hierarchy is not supported)"
        )
    levels = build_hierarchy(
        comm, graph, dist, num_parts, params, vertex_weights
    )
    n_build = comm.event_count  # deterministic prefix, incl. hierarchy
    n_levels = len(levels)
    level_sizes = [lv.size for lv in levels]
    plan = ml_step_plan(params, n_levels)
    cuts: List[float] = []
    level_idx = n_levels - 1
    state = _fresh_state(levels[level_idx], num_parts, params,
                         level_idx, n_levels)
    start = 0
    if resume is not None:
        snap = resume["snapshots"][comm.rank]
        level_idx = int(snap["level"])
        del levels[level_idx + 1:]  # already projected through
        state = _fresh_state(levels[level_idx], num_parts, params,
                             level_idx, n_levels)
        state.restore(snap["inner"])
        cuts = [float(c) for c in snap["cuts"]]
        start = int(resume["next_step"])
    for idx in range(start, len(plan)):
        stage, index, phase_name = plan[idx]
        if phase_name == "init":
            initialize(comm, state, None)
            state.iter_tot = 0
        else:
            if plan[idx - 1][0] != stage:
                state.iter_tot = 0
            if stage == "uncoarsen":
                lvl = index
                if lvl == n_levels - 2:
                    # coarsest partition settled: open the trajectory
                    with comm.phase("project"):
                        cuts.append(weighted_cut(
                            comm, state, levels[lvl + 1].ew_local
                        ))
                # the coarse level is released once projected through (a
                # resumed run rebuilds the hierarchy)
                state, seeds = _project(
                    comm, state, levels.pop(), levels[lvl],
                    num_parts, params, lvl, n_levels,
                )
                level_idx = lvl
                # tighten toward this level's balance target before
                # refining — the projected partition carries the coarser
                # level's (looser) imbalance
                vertex_balance_phase(comm, state, params.balance_iters)
                ml_refine_phase(
                    comm, state, levels[lvl].ew_local,
                    params.ml_refine_iters, seeds,
                )
                with comm.phase("project"):
                    cuts.append(weighted_cut(
                        comm, state, levels[lvl].ew_local
                    ))
            elif phase_name == "ml_refine":
                # vertex-stage refine on the coarsest level (weighted)
                ml_refine_phase(
                    comm, state, levels[level_idx].ew_local,
                    params.refine_iters, None,
                )
            elif phase_name == "vertex_balance":
                vertex_balance_phase(comm, state, params.balance_iters)
            elif phase_name == "edge_balance":
                edge_balance_phase(comm, state, params.balance_iters)
            else:
                edge_refine_phase(comm, state, params.refine_iters)
        if ckpt is not None and checkpoint_after(plan, idx, ckpt.policy.every):
            write_checkpoint(
                comm,
                _MLCheckpointProxy(level_idx, state, cuts),
                ckpt, epoch=idx, step=plan[idx], n_build=n_build,
            )
    # the trajectory closes with the final fine cut (after the edge stage
    # when it runs; for a single-level run this is the only entry)
    with comm.phase("project"):
        cuts.append(weighted_cut(comm, state, levels[level_idx].ew_local))
    info = MultilevelInfo(
        levels=n_levels,
        coarsen_mode=params.ml_coarsen,
        level_sizes=level_sizes,
        cut_trajectory=cuts,
        coarsest_n=level_sizes[-1][0],
    )
    dg0 = levels[0].dg
    return dg0.owned_gids, state.parts[: dg0.n_local].copy(), info
