"""Active-set (frontier) sweep engine for the label-propagation phases.

Late balance/refine iterations move very few vertices, yet a full sweep
re-gathers and re-tallies the neighborhood of *every* owned vertex each
iteration.  This engine restricts every iteration after the first to the
*active set*: vertices that moved, or that are adjacent to a vertex
(owned or ghost) that moved since their last evaluation — the active-set
local search of dKaMinPar (arXiv:2303.01417) and distributed
unconstrained local search (arXiv:2406.03169), adapted to the XtraPuLP
BSP skeleton.

Seeding rules, per phase iteration:

* iteration 0 of a phase sweeps all owned vertices (the part weights,
  capacities, and ratchets change discontinuously at phase boundaries,
  so every vertex's score is stale);
* a vertex that moved re-enters the frontier (the global size estimates
  it was scored against keep drifting);
* owned neighbors of a locally moved vertex enter the frontier — the
  graph is symmetric and every incident edge of an owned vertex is
  stored locally, so the owned-side CSR transpose *is* the forward
  adjacency restricted to targets ``< n_local``;
* owned neighbors of every ghost copy rewritten by ``exchange_updates``
  enter the frontier, via the ghost→owned reverse incidence
  (``DistGraph.ghost_touch_sources``), built once on its first call —
  ghosts own no forward CSR row, so the reverse structure is required;
* neighbor touches *accumulate* rather than activate immediately: a
  vertex re-enters the frontier once its touch count since its last
  evaluation reaches ``max(1, DIRT_FRACTION * degree)``.  For low-degree
  vertices this is the plain one-touch rule; for hubs — whose plurality
  over hundreds of neighbors cannot flip because one of them moved — it
  suppresses the constant re-scoring that otherwise dominates
  edges-touched on skewed graphs.  Touches are never discarded, so any
  sustained neighborhood drift still reactivates the vertex.

Vertices outside the frontier keep their last decision; they can miss a
part's capacity re-opening, which is the standard active-set
approximation (bounded by the property tests: same balance constraints,
edge cut within a few percent of the exhaustive sweeps).

Determinism: the active set lives in a boolean mask over owned lids and
is materialized with ``flatnonzero`` (ascending lids), then chunked with
the same ``params.block_size`` as an exhaustive sweep.  A full active set
therefore yields the blocks — hence the moves — of
``RankState.iter_blocks`` exactly.

Work model: scoring work is charged by ``RankState.gather_block`` only
for blocks actually swept, so a shrinking active set shrinks the work
units the phase records and the modeled gamma term directly;
frontier maintenance charges the transpose edges it walks plus one
O(n_local) mask pass per iteration that another follows (the same
convention used for other full-vector passes, e.g. the vertex row of
``RankState.part_totals``), billed to the next iteration's exchange
round; a phase's last iteration seeds nothing.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.core.exchange import exchange_updates, idle_send
from repro.core.state import RankState
from repro.graph.gather import sorted_unique
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable

#: A vertex reactivates once touches-since-last-eval >= max(1, frac * deg).
DIRT_FRACTION = 1.0 / 16.0

_NONE = np.empty(0, dtype=np.int64)
_NONE.flags.writeable = False


class FrontierSweeper:
    """Drives one phase's sweep iterations over the active set.

    Usage::

        sweeper = FrontierSweeper(state, phase="vertex_balance")
        for it in range(iters):
            for lids in sweeper.blocks():
                ...score block, admit moves, add them to the deltas C...
                sweeper.note_moves(moved)
            # flush work + ExchangeUpdates, C's sum riding its consensus
            S += yield from sweeper.exchange(comm, C, last=it == iters - 1)

    ``blocks()`` yields the iteration's active lid chunks; ``note_moves``
    feeds admitted moves back; ``exchange`` runs the collective update
    exchange (all moved vertices), which also sums the iteration's size
    deltas over the ranks, and — unless no iteration follows — seeds the
    next iteration's frontier from local and ghost touches.
    """

    def __init__(
        self,
        state: RankState,
        phase: str,
        cleanup_iter: Optional[int] = None,
        seed_lids: Optional[np.ndarray] = None,
    ) -> None:
        self.state = state
        self.dg = state.dg
        self.phase = phase
        #: iteration index (0-based) forced to a full sweep — refine phases
        #: schedule one late exhaustive cleanup pass (a few iterations
        #: before the end, so subsequent active sweeps damp its
        #: simultaneous-move overshoot) to catch moves the active-set
        #: approximation missed
        self.cleanup_iter = cleanup_iter
        self._iter = 0
        #: active owned lids for the current iteration; None = all owned
        self._frontier: Optional[np.ndarray] = None
        self._moved: List[np.ndarray] = []
        #: what an iteration that moved nothing here ships, built on first use
        self._idle = None
        self._edges_mark = state.edges_touched
        # per-vertex touch accumulator + activation thresholds
        self._dirt = np.zeros(self.dg.n_local, dtype=np.int64)
        if state.dirt_thresholds is None:
            state.dirt_thresholds = np.maximum(
                DIRT_FRACTION * self.dg.local_degrees, 1.0
            )
        self._thresh = state.dirt_thresholds
        if seed_lids is not None:
            # caller knows where the action is (e.g. multilevel projection
            # seeds cluster boundaries): start from that active set instead
            # of the exhaustive iteration-0 sweep.  The cleanup pass still
            # catches anything the seed missed.
            self._frontier = sorted_unique(np.asarray(seed_lids, np.int64))

    # -- iteration body ------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Owned vertices swept in the current iteration."""
        return (
            self.dg.n_local if self._frontier is None else self._frontier.size
        )

    def blocks(self) -> Iterator[np.ndarray]:
        """Yield the iteration's active lids in ``block_size`` chunks.

        A full frontier yields exactly the ``iter_blocks`` chunks
        (ascending lids, same boundaries), preserving the between-block
        estimate-refresh schedule bit-for-bit.
        """
        self._edges_mark = self.state.edges_touched
        if self._iter == self.cleanup_iter:
            self._frontier = None  # cleanup: exhaustive final pass
        if self._frontier is None:
            for lids, _ in self.state.iter_blocks():
                yield lids
        else:
            lids = self._frontier
            bs = self.state.params.block_size
            for start in range(0, lids.size, bs):
                yield lids[start:start + bs]

    def note_moves(self, moved: np.ndarray) -> None:
        """Record owned lids moved in the current iteration (per block)."""
        if moved.size:
            self._moved.append(moved)

    # -- iteration boundary --------------------------------------------------

    @steppable
    def exchange(self, comm: SimComm, deltas: np.ndarray,
                 last: bool = False) -> Steps[np.ndarray]:
        """Finish the iteration: flush charged sweep work, run
        ``exchange_updates`` for every vertex moved this iteration with
        the iteration's ``deltas`` riding its consensus, and, unless this
        is the phase's ``last`` iteration, seed the next iteration's
        frontier (no sweep would read it, and its work would be billed to
        whatever round comes next).  Returns the deltas summed over the
        ranks."""
        state = self.state
        if self._moved:
            moved = np.concatenate(self._moved)
            self._moved = []
        else:
            moved = _NONE
            if self._idle is None:
                self._idle = idle_send(comm.size, state.wire)
        state.sweep_log.append((
            self.phase,
            state.iter_tot,
            self.active_count,
            self.dg.n_local,
            state.edges_touched - self._edges_mark,
        ))
        state.flush_work(comm)
        ghost_lids, total = yield from exchange_updates(
            comm, self.dg, state.parts, moved, wire=state.wire,
            idle=self._idle, operand=deltas,
        )
        self._iter += 1
        if not last:
            # its maintenance work stays pending: the next iteration's
            # exchange flushes it with that iteration's sweep work
            self._seed_next(moved, ghost_lids)
        return total

    def _seed_next(self, moved: np.ndarray, ghost_lids: np.ndarray) -> None:
        """Next active set = moved ∪ {touched vertices over their
        degree-proportional activation threshold}."""
        dg, state = self.dg, self.state
        n = dg.n_local
        if moved.size == 0 and ghost_lids.size == 0:
            # nothing moved here and no ghost copy changed — most ranks of
            # most iterations at high rank counts: no touch count rose, so
            # none reaches its threshold; the O(n) maintenance charge stays
            state.work_pending += float(n)
            self._frontier = _NONE
            return
        dirt = self._dirt
        touched = 0.0
        if moved.size:
            neigh, _ = dg.neighbor_block(moved)
            # cheaper to count ghost neighbours too than to compress them out
            dirt += np.bincount(neigh, minlength=dg.n_total)[:n]
            touched += float(neigh.size)
        if ghost_lids.size:
            srcs = dg.ghost_touch_sources(ghost_lids)
            if srcs.size:
                dirt += np.bincount(srcs, minlength=n)
            touched += float(srcs.size)
        mask = dirt >= self._thresh
        if moved.size:
            mask[moved] = True  # movers always re-score (sizes keep drifting)
        dirt[mask] = 0  # evaluated next iteration: touches consumed
        # transpose touches + the O(n) dirt/mask passes
        state.work_pending += touched + float(n)
        self._frontier = np.flatnonzero(mask).astype(np.int64)
