"""The V-cycle's hierarchy: coarsen, then project back level by level.

What the rank body (:func:`repro.core.driver._rank_main`) calls when
``params.multilevel`` is set, in the order of
:func:`repro.core.driver.step_plan`: build the hierarchy — cluster +
contract until the vertex count drops below ``max(COARSEST_FACTOR *
num_parts, 2 * nprocs)``, ``ml_levels`` is reached, or coarsening
stagnates; partition the coarsest level; per finer level, project the parts
through the cluster map and hand back the state and refine seeds of that
level; close on the fine graph.  The hierarchy depends only on ``(graph,
dist, params)`` — never on partition state — so a resumed run re-executes
it deterministically and the event splice works unchanged (``n_build`` =
collectives consumed through hierarchy construction).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.state import RankState
from repro.dist.distribution import Distribution
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
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable

#: Coarsening size target, in vertices per part: coarsening stops once a
#: level has at most ``COARSEST_FACTOR * num_parts`` vertices.
COARSEST_FACTOR = 30

#: Adaptive balance schedule: level ``l`` (0 = finest) of ``n_levels``
#: targets ``Rat_v * (1 + IMBALANCE_RELAX * l / (n_levels - 1))``.
IMBALANCE_RELAX = 2.0


@steppable
def build_hierarchy(
    comm: SimComm,
    graph: Graph,
    dist: Distribution,
    num_parts: int,
    params,
    vertex_weights: Optional[np.ndarray],
) -> Steps[List[MLLevel]]:
    """Coarsen until the target size, the level cap, or stagnation.

    Purely a function of the inputs — no partition state — which is what
    makes checkpoint resume re-execute it bit-identically.  A level's
    global ``graph`` / ``eweights`` are released as soon as the next level
    is contracted from them: uncoarsening reads only the per-rank views.
    """
    levels = [(yield from make_level0(comm, graph, dist, vertex_weights))]
    target = max(COARSEST_FACTOR * num_parts, 2 * comm.size)
    floor = max(num_parts, comm.size)
    while (
        len(levels) < params.ml_levels
        and levels[-1].size[0] > target
    ):
        cur = levels[-1]
        level_index = len(levels) - 1
        if params.ml_coarsen == "lp":
            labels = yield from lp_cluster_labels(
                comm, cur, num_parts, params, level_index
            )
        else:
            labels = hem_cluster_labels(comm, cur, params, level_index)
        nxt = yield from contract_level(
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
    if lvl == 0:
        return params
    eps = params.vert_imbalance * (
        1.0 + IMBALANCE_RELAX * lvl / max(n_levels - 1, 1)
    )
    return params.with_(vert_imbalance=eps)


def level_state(
    levels: List[MLLevel], num_parts: int, params, n_levels: int
) -> RankState:
    """A fresh state on the coarsest level still in ``levels`` (of the
    ``n_levels`` built), under that level's imbalance target."""
    level = levels[-1]
    state = RankState(
        dg=level.dg, num_parts=num_parts,
        params=_level_params(params, len(levels) - 1, n_levels),
    )
    state.set_vertex_weights(
        level.vweights[level.dg.owned_gids], float(level.vweights.sum())
    )
    return state


@steppable
def project(
    comm: SimComm,
    coarse_state: RankState,
    levels: List[MLLevel],
    num_parts: int,
    params,
    n_levels: int,
) -> Steps[Tuple[RankState, np.ndarray]]:
    """Project the partition of the coarsest level in ``levels`` onto the
    next finer one, and release the coarse level (a resumed run rebuilds
    the hierarchy).

    One Allgatherv of owned coarse parts reconstructs the global coarse
    assignment on every rank; each fine vertex (owned and ghost alike)
    inherits its cluster's part, so no ghost exchange is needed — the
    projection is consistent by construction.  Returns the finer level's
    state plus the refine seeds: owned lids with an arc leaving their
    cluster (the only vertices whose immediate move can change the cut).
    """
    coarse_level = levels.pop()
    cdg = coarse_level.dg
    fdg = levels[-1].dg
    f2c = coarse_level.fine2coarse
    with comm.phase("project"):
        gparts = yield from allgather_owned(
            comm, coarse_level.dist, coarse_state.parts[: cdg.n_local]
        )
        # scatter + two gather passes over this rank's fine view
        comm.charge(float(cdg.n_local) + 2.0 * fdg.l2g.size + fdg.adj.size)
        cluster_of = f2c[fdg.l2g]
        state = level_state(levels, num_parts, params, n_levels)
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
