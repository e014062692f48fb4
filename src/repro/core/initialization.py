"""XtraPuLP initialization (Algorithm 2) plus random/block alternatives.

The hybrid strategy grows parts outward from ``p`` random roots: each BSP
round, every still-unassigned vertex that has at least one assigned
neighbor adopts a *uniformly random part among the distinct parts present
in its neighborhood* (the paper deliberately randomizes instead of taking
the maximal-count label — "doing so tends to result in slightly more
balanced partitions").  Vertices never reached (disconnected from all
roots) are assigned random parts at the end.

Algorithm 2 has a master draw the roots and broadcast them.  Here every
rank holds the gathered candidate pool and the shared seed, so every rank
draws the same roots and labels its owned roots and its ghost copies of
roots itself: no broadcast, no claim exchange.  A BFS round scans (and
charges work for) the connected unassigned owned vertices only — an
isolated vertex can never be reached — and is one ExchangeUpdates round
whose consensus also sums [vertices assigned, connected owned vertices
still unassigned]; the loop ends when no connected vertex is waiting or
none was reached, and the leftovers are exchanged only if a connected
one is among them (an isolated vertex has no ghost copy).  Every
strategy labels every owned vertex, so no rank needs a collective check
of that.

The paper notes the number of rounds is on the order of the graph
diameter, and that for high-diameter graph classes random or block
initialization should be used instead — both provided here.
"""

from __future__ import annotations

import numpy as np

from repro.core.exchange import exchange_updates
from repro.core.state import UNASSIGNED, RankState
from repro.dist.distribution import block_sizes
from repro.graph.gather import neighbor_gather_with_sources, sorted_unique
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


def _random_distinct_neighbor_parts(
    state: RankState, lids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each vertex in ``lids``, a uniformly random *distinct* part among
    its assigned neighbors' parts (Algorithm 2's RandTrueIndex).

    Returns (chosen_parts, has_assigned_neighbor_mask).
    """
    p = state.num_parts
    neigh, srcs, _ = neighbor_gather_with_sources(
        state.dg.offsets, state.dg.adj, lids
    )
    state.work_pending += 2.0 * neigh.size + float(lids.size)
    nparts = state.parts[neigh]
    ok = nparts >= 0
    srcs, nparts = srcs[ok], nparts[ok]
    chosen = np.full(lids.size, UNASSIGNED, dtype=np.int64)
    has = np.zeros(lids.size, dtype=bool)
    if srcs.size == 0:
        return chosen, has
    # dedupe (vertex, part) pairs so each distinct part is equally likely
    keys = sorted_unique(srcs * np.int64(p) + nparts)
    verts = keys // p
    parts = keys % p
    # group boundaries per vertex in the deduped list
    counts = np.bincount(verts, minlength=lids.size)
    starts = np.zeros(lids.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    has = counts > 0
    pick = starts[has] + (
        state.rng.random(int(has.sum())) * counts[has]
    ).astype(np.int64)
    chosen[has] = parts[pick]
    return chosen, has


@steppable
def initialize_hybrid(comm: SimComm, state: RankState) -> Steps[None]:
    """Algorithm 2: p shared roots + random-label BFS growth."""
    dg, p = state.dg, state.num_parts
    if p > dg.global_n:
        raise ValueError(f"cannot cut {dg.global_n} vertices into {p} parts")
    # Roots are drawn among *connected* (degree >= 1) vertices when
    # possible: a root that is an isolated vertex can never grow its part
    # through label propagation (minor robustness deviation from Algorithm
    # 2's uniform draw; identical on component-preprocessed inputs like the
    # paper's).
    connected = dg.degrees_full[: dg.n_local] > 0
    candidates = np.flatnonzero(connected).astype(np.int64)
    sample_rng = np.random.default_rng(state.params.seed + 31 * comm.rank)
    take = min(candidates.size, 4 * p)
    sample = dg.l2g[
        sample_rng.choice(candidates, size=take, replace=False)
    ] if take else np.empty(0, dtype=np.int64)
    # O(p * nprocs) gids, not O(n); every rank draws the same roots from it
    pool, _ = yield from comm.Allgatherv(sample)
    if pool.size < p:
        pool = np.arange(dg.global_n, dtype=np.int64)
    roots = np.random.default_rng(state.params.seed).choice(
        pool, size=p, replace=False).astype(np.int64)
    # part = order of selection, on the owned roots and on this rank's
    # ghost copies of roots alike: no claim has to be exchanged
    state.parts[:] = UNASSIGNED
    mine = np.flatnonzero(dg.dist.owner(roots) == comm.rank)
    state.parts[dg.owned_lids(roots[mine])] = mine
    pos = np.searchsorted(dg.ghost_gids, roots)
    ghost = pos < dg.n_ghost
    ghost[ghost] = dg.ghost_gids[pos[ghost]] == roots[ghost]
    state.parts[dg.n_local + pos[ghost]] = np.flatnonzero(ghost)

    left = 1
    # a safety bound: ≈ diameter rounds are needed, and 2n bounds that
    for _ in range(max(2 * dg.global_n, 64)):
        # an isolated vertex has no neighbor to adopt a part from (and
        # draws no random number): only the connected ones are scanned
        unassigned = np.flatnonzero(
            (state.parts[: dg.n_local] < 0) & connected).astype(np.int64)
        assigned_now = np.empty(0, dtype=np.int64)
        waiting = 0
        if unassigned.size:
            chosen, has = _random_distinct_neighbor_parts(state, unassigned)
            assigned_now = unassigned[has]
            state.parts[assigned_now] = chosen[has]
            waiting = unassigned.size - assigned_now.size
        state.flush_work(comm)
        # the round's labels, and the sum of [assigned this round,
        # connected owned vertices still unassigned] on its consensus
        _, counts = yield from exchange_updates(
            comm, dg, state.parts, assigned_now, wire=state.wire,
            operand=np.array([assigned_now.size, waiting], dtype=np.int64))
        n_updates, left = counts.tolist()
        # nothing left to reach, or nothing reachable left
        if left == 0 or n_updates == 0:
            break

    # leftovers (unreached components, isolated vertices): random parts;
    # only a connected one has ghost copies to update
    leftover = np.flatnonzero(state.parts[: dg.n_local] < 0).astype(np.int64)
    if leftover.size:
        state.parts[leftover] = state.rng.integers(
            0, p, size=leftover.size, dtype=np.int64
        )
    if left:
        yield from exchange_updates(comm, dg, state.parts, leftover,
                                    wire=state.wire)


@steppable
def reseed_dead_parts(comm: SimComm, state: RankState) -> Steps[int]:
    """Revive parts that have no connected members (collective).

    Label propagation can only move a vertex into a part that already owns
    one of its neighbors, so a part whose connected membership hits zero
    (e.g. its Algorithm-2 root was strangled at birth) can never regain
    edges.  Each dead part is reseeded with one high-degree vertex donated
    by the most-populated parts; subsequent balance iterations grow a
    region around the new seed.  Returns the number of parts reseeded.
    A robustness extension over the paper (whose billion-vertex inputs
    never see p parts collapse); no-op when every part is alive.
    """
    dg, p = state.dg, state.num_parts
    deg = dg.degrees_full[: dg.n_local]
    owned = state.parts[: dg.n_local]
    conn = owned[(deg > 0) & (owned >= 0)]
    alive = yield from comm.Allreduce(
        np.bincount(conn, minlength=p).astype(np.int64), op="sum"
    )
    dead = np.flatnonzero(alive == 0)
    if dead.size == 0:
        return 0
    # each rank proposes its highest-degree vertices from the biggest parts
    donors = np.argsort(alive)[::-1][: max(2, dead.size)]
    donor_mask = np.isin(owned, donors) & (deg > 1)
    cand = np.flatnonzero(donor_mask)
    take = min(cand.size, 2 * dead.size)
    if take:
        # an unstable sort's tie order may depend on the key's dtype, and
        # degrees_full is stored narrow: sort int64 keys, as before
        top = cand[np.argsort(deg[cand].astype(np.int64))[::-1][:take]]
        proposal = np.column_stack([dg.l2g[top], deg[top]]).ravel()
    else:
        proposal = np.empty(0, dtype=np.int64)
    merged, _ = yield from comm.Allgatherv(proposal.astype(np.int64))
    gids, degs = merged[0::2], merged[1::2]
    if gids.size == 0:
        return 0
    # deterministic global choice: highest degree first, gid tiebreak
    order = np.lexsort((gids, -degs))
    chosen = gids[order][: dead.size]
    targets = dead[: chosen.size]
    owner = dg.dist.owner(chosen)
    mine = np.flatnonzero(owner == comm.rank)
    moved = np.empty(0, dtype=np.int64)
    if mine.size:
        lids = dg.owned_lids(chosen[mine])
        state.parts[lids] = targets[mine]
        moved = lids
    yield from exchange_updates(comm, dg, state.parts, moved,
                                wire=state.wire)
    return int(targets.size)


def _owned_labels(state: RankState,
                  initial_parts: "np.ndarray | None") -> np.ndarray:
    """Every owned vertex's starting part under the strategies that label
    each vertex on its own, with no BFS.

    ``initial_parts`` (a full global array, identical on every rank,
    read-only) is the paper's §V.E workflow: "run the balancing stage of
    XTRAPULP after first initializing with vertex block partitioning" —
    XtraPuLP as a partition *improver*.  ``"random"`` is a uniform random
    part (the high-diameter fallback); ``"block"`` maps contiguous
    global-id blocks to parts, the analytics experiments' starting point.
    """
    dg, p = state.dg, state.num_parts
    if initial_parts is not None:
        initial_parts = np.asarray(initial_parts)
        if initial_parts.shape != (dg.global_n,):
            raise ValueError(
                f"initial_parts must cover all {dg.global_n} vertices"
            )
        if initial_parts.size and (
            initial_parts.min() < 0 or initial_parts.max() >= p
        ):
            raise ValueError("initial part labels out of range")
        return initial_parts[dg.owned_gids]
    strategy = state.params.init_strategy
    if strategy == "random":
        return state.rng.integers(0, p, size=dg.n_local, dtype=np.int64)
    if strategy == "block":
        # part k ends where the first k + 1 blocks do; invert by search
        bounds = np.cumsum(block_sizes(dg.global_n, p))
        return np.searchsorted(bounds, dg.owned_gids, side="right")
    raise ValueError(strategy)  # pragma: no cover - params validates


@steppable
def initialize(
    comm: SimComm,
    state: RankState,
    initial_parts: "np.ndarray | None" = None,
) -> Steps[None]:
    """Dispatch on ``params.init_strategy`` (or adopt ``initial_parts``)."""
    with comm.phase("init"):
        if initial_parts is None and state.params.init_strategy == "hybrid":
            yield from initialize_hybrid(comm, state)
        else:
            # label every owned vertex, then exchange all of them
            dg = state.dg
            state.parts[:] = UNASSIGNED
            state.parts[: dg.n_local] = _owned_labels(state, initial_parts)
            yield from exchange_updates(
                comm, dg, state.parts, np.arange(dg.n_local, dtype=np.int64),
                wire=state.wire)
        # every strategy labels every owned vertex, so a rank checks its own
        bad = int(np.count_nonzero(state.parts[: state.dg.n_local] < 0))
        if bad:
            raise AssertionError(
                f"rank {comm.rank}: {bad} vertices left unassigned by init")
