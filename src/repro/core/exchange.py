"""The paper's ExchangeUpdates communication routine (Algorithm 3).

After a propagation sweep, each rank ships the updates of its *updated*
owned vertices to every rank holding a ghost copy (the vertex's off-rank
neighbor owners), via one neighbourhood-pruned Alltoallv — each rank
messages only the ranks it has updates for, with the per-vertex ``toSend``
rank sets precomputed at DistGraph build time.

Each record is the destination rank's ghost slot index
(``DistGraph.send_ghost_slot``, narrowest unsigned dtype) plus the part
label (narrowest signed dtype), shipped as independently-typed field
planes in stable destination-major order and applied by direct indexed
assignment — 4–8 B/record and no per-exchange gid lookup, against the
16 B ``(vertex gid, new part)`` pair of the paper's listing
(:mod:`repro.dist.wire`).

The same round may carry a sum-reduction operand (the paper's
``AllReduce(C)`` that follows every ExchangeUpdates): the sparse
exchange ends in a consensus over all ranks, and the operand's sum rides
it (:meth:`~repro.simmpi.comm.SimComm.Alltoallv_fields`), so an
iteration is one round.

Receive buffers are consumed read-only (indexed assignment *from* them
into the rank-local ``parts`` array), so the in-process backends may
hand them out as sealed views of one shared merge buffer.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.dist.distgraph import DistGraph
from repro.dist.packing import pack_fields_by_rank
from repro.dist.wire import WireSpec
from repro.graph.gather import expand_ranges
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable


def idle_send(nprocs: int, wire: WireSpec):
    """What a rank that moved nothing ships — most ranks of most exchanges
    at high rank counts: empty planes of the wire dtypes (what packing
    zero records produces) and zero counts.  Collectives only read what is
    deposited, so a caller with many exchanges builds this once."""
    planes = [np.empty(0, dtype=wire.slot_dtype),
              np.empty(0, dtype=wire.part_dtype)]
    return planes, np.zeros(nprocs, dtype=np.int64)


@steppable
def exchange_updates(
    comm: SimComm,
    dg: DistGraph,
    parts: np.ndarray,
    updated_lids: np.ndarray,
    wire: WireSpec,
    idle=None,
    operand: Optional[np.ndarray] = None,
) -> Steps[Any]:
    """Propagate part updates for ``updated_lids`` (owned local ids) and
    apply incoming updates to this rank's ghost entries of ``parts``.

    ``wire`` carries the record dtypes (``RankState.wire``); ``idle`` is a
    kept :func:`idle_send`, shipped when there are no updates.  Returns the
    local ids of the ghost entries that were updated (each ghost has one
    owner, so the ids are unique) — the frontier engine seeds the next
    active set from them.  Given an ``operand`` (every rank or none), the
    round's consensus also sums it over the ranks and the return is
    ``(ghost_lids, total)``: an LP iteration's size deltas, or a BFS
    round's counts, ride the exchange instead of a round of their own.
    Collective: all ranks must call it each sweep (possibly with empty
    updates).
    """
    updated_lids = np.asarray(updated_lids, dtype=np.int64)
    if updated_lids.size == 0:
        planes, reccounts = idle or idle_send(comm.size, wire)
    else:
        # destination ranks: each updated vertex goes to all its neighbor
        # ranks
        starts = dg.send_rank_offsets[updated_lids]
        counts = dg.send_rank_offsets[updated_lids + 1] - starts
        idx = expand_ranges(starts, counts)
        dest = dg.send_rank_adj[idx]
        new_parts = np.repeat(parts[updated_lids], counts)

        slots = dg.send_ghost_slot[idx].astype(wire.slot_dtype)
        planes, reccounts = pack_fields_by_rank(
            comm.size, dest, (slots, new_parts.astype(wire.part_dtype))
        )
    (rslots, rparts), _, *total = yield from comm.Alltoallv_fields(
        planes, reccounts, operand)
    if rslots.size == 0:
        ghost_lids = np.empty(0, dtype=np.int64)
    else:
        ghost_lids = rslots.astype(np.int64) + dg.n_local
        parts[ghost_lids] = rparts
    return ghost_lids if operand is None else (ghost_lids, total[0])
