"""Buffer packing for Alltoallv exchanges.

Algorithm 3 in the paper assembles a send buffer ordered by destination
rank (counts → prefix sums → fill).  :func:`pack_fields_by_rank` is the
vectorized equivalent, struct-of-arrays: each record field stays a
contiguous array in its own (narrowest sufficient) dtype, the layout
:meth:`SimComm.Alltoallv_fields` ships as independently-typed planes.  It
is built on :func:`bucket_by_rank`, an O(n) stable counting-sort bucketing.

Read-only contract: the packer *produces* fresh buffers (fancy indexing
copies), so senders may hand them to a collective and forget them; the
matching *received* buffers may be sealed views shared across in-process
ranks, so consumers must never write into them (slice/index/cast, or
:func:`repro.simmpi.comm.materialize` first).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Largest destination rank a one- / two-byte sort key holds.
_UINT8_MAX = int(np.iinfo(np.uint8).max)
_UINT16_MAX = int(np.iinfo(np.uint16).max)


def bucket_by_rank(
    nprocs: int, dest: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable O(n) bucketing of records by destination rank.

    Returns ``(order, record_counts)``: ``order`` permutes record indices
    into destination-rank-major order with the original order preserved
    within each rank (stable), and ``record_counts[r]`` is the number of
    records destined for rank ``r``.

    Complexity: destination keys are bounded by ``nprocs``, so the
    permutation is produced by counting sort — keys are narrowed to 8/16
    bits and handed to NumPy's stable integer sort, which dispatches to
    LSD radix sort (one or two O(n) counting passes) rather than an
    O(n log n) comparison sort.
    """
    dest = np.asarray(dest)
    if dest.size and (dest.min() < 0 or dest.max() >= nprocs):
        raise ValueError("destination rank out of range")
    counts = np.bincount(dest, minlength=nprocs).astype(np.int64)
    # destinations are < nprocs: 256 ranks still sort one-byte keys
    if nprocs - 1 <= _UINT8_MAX:
        key = dest.astype(np.uint8)
    elif nprocs - 1 <= _UINT16_MAX:
        key = dest.astype(np.uint16)
    else:  # pragma: no cover - simulated rank counts never get here
        key = dest
    order = np.argsort(key, kind="stable").astype(np.int64)
    return order, counts


def pack_fields_by_rank(
    nprocs: int, dest: np.ndarray, fields: Sequence[np.ndarray]
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Pack records into destination-ordered per-field planes (SoA).

    Parameters
    ----------
    nprocs:
        Number of ranks.
    dest:
        Destination rank of each record.
    fields:
        One or more equal-length arrays; record ``i`` is
        ``(fields[0][i], fields[1][i], ...)``.  Each field keeps its own
        dtype — nothing is widened to int64.

    Returns
    -------
    (planes, record_counts):
        ``planes[j]`` is ``fields[j]`` permuted into destination-rank-major
        order (stable within a rank); ``record_counts[r]`` counts *records*
        going to rank ``r`` — the unit
        :meth:`SimComm.Alltoallv_fields` expects.
    """
    if len(fields) == 0:
        raise ValueError("need at least one field")
    nrec = np.asarray(dest).shape[0]
    for f in fields:
        if np.asarray(f).shape[0] != nrec:
            raise ValueError("all fields must match dest length")
    order, counts = bucket_by_rank(nprocs, dest)
    planes = [np.ascontiguousarray(np.asarray(f)[order]) for f in fields]
    return planes, counts
