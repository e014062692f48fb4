"""Wire format of the ghost-update exchanges (``ExchangeUpdates``).

The paper's Algorithm 3 record is an interleaved 64-bit ``(global id,
part)`` pair — 16 bytes, resolved on receive with a ``searchsorted`` over
the ghost gids.  This reproduction ships the same update with
owner-relative addressing over static per-neighbor-rank routing tables
precomputed at :class:`~repro.dist.distgraph.DistGraph` build time: the
sender ships the *destination rank's ghost slot index*
(``DistGraph.send_ghost_slot``) in the narrowest dtype that covers every
rank's ghost count, plus the part label in the narrowest dtype that covers
``num_parts`` — 4 to 8 bytes per record, applied on receive by direct
indexed assignment (no gid lookup at all).  The record *set* and its
stable destination-major order are the paper's.

The wire format is orthogonal to the *communicator strategy*
(:mod:`repro.simmpi.topology`): records route through
``SimComm.Alltoallv_fields``, so under the ``hierarchical`` strategy they
are additionally metered as a two-level exchange (aggregated per node
pair) — compounding with the 2-4x record shrink rather than replacing it.

:func:`stored_dtype` makes the same kind of election for what a rank keeps
rather than ships: the build-time tables that are only gathered from
(``DistGraph.ghost_in_adj``, ``DistGraph.send_rank_adj``,
``DistGraph.degrees_full``) are stored at 4 bytes when their values fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WireSpec:
    """Record dtypes of one partitioning run.

    ``slot_dtype``/``part_dtype`` are chosen once from *global* quantities
    (max per-rank ghost count, ``num_parts``) so every rank selects the
    same dtypes — a per-rank choice would trip the cross-rank dtype guard.
    """

    slot_dtype: np.dtype      # ghost slot index dtype
    part_dtype: np.dtype      # part label dtype

    @property
    def bytes_per_record(self) -> int:
        """Payload bytes per update record on the wire."""
        return self.slot_dtype.itemsize + self.part_dtype.itemsize


def _narrowest_uint(max_value: int) -> np.dtype:
    for dt in (np.uint16, np.uint32):
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.uint64)  # pragma: no cover - >4B ghosts per rank


def _narrowest_int(max_value: int) -> np.dtype:
    for dt in (np.int16, np.int32):
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)  # pragma: no cover - >2B parts


def stored_dtype(max_value: int) -> np.dtype:
    """Dtype of a rank table that is stored and gathered *from*, never used
    as an index: int32 when every value ``<= max_value`` fits, else int64.

    Index arrays (``offsets``, ``l2g``, ``parts``) stay int64 — NumPy casts
    an int32 index array to ``intp`` before every fancy gather.  A coarse
    V-cycle level is the exception that pays for itself: its ids are
    elected here once (the cluster map), and its ``Graph.adj`` and local
    ``DistGraph.adj`` keep their input's width, which halves the largest
    arrays a hierarchy holds.
    """
    if max_value <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def make_wire_spec(max_ghost_global: int, num_parts: int) -> WireSpec:
    """Resolve the record dtypes of a run.

    ``max_ghost_global`` is the maximum ghost count over *all* ranks
    (``DistGraph.max_ghost_global``, Allreduced once at build time);
    slot indices are ``< max_ghost_global`` and part labels are
    ``< num_parts`` (signed, so the UNASSIGNED sentinel -1 also fits).
    """
    return WireSpec(
        slot_dtype=_narrowest_uint(max(max_ghost_global - 1, 0)),
        part_dtype=_narrowest_int(max(num_parts - 1, 1)),
    )
