"""Rank-side communicator API (the simulated ``MPI.COMM_WORLD``).

Mirrors the mpi4py split between lowercase generic-object methods
(``allgather``, ``allreduce`` — pickled-object semantics, metered by
pickled size) and uppercase NumPy-buffer methods (``Bcast``, ``Allreduce``,
``Allgatherv``, ``Alltoallv`` / ``Alltoallv_fields`` — near-zero-copy,
metered by ``nbytes``).  All hot-path communication in the partitioner
uses the buffer flavor, per the mpi4py guidance that buffer-provider
objects are the fast path.  The surface is what the callers call:
XtraPuLP's ``Bcast`` of the roots, ``Alltoallv`` of ExchangeUpdates and
``Allreduce`` of the size vectors, plus what the multilevel path,
analytics, checkpointing and the perf probes add (``Allgatherv``,
``allgather``, ``allreduce``, ``Checkpoint``, ``barrier``);
``tests/test_simmpi_surface.py`` keeps it that way.

Each of the nine is a stepped routine (:mod:`repro.simmpi.stepping`): its
deposit is a ``yield`` of the request to the runtime, so a generator rank
body writes ``total = yield from comm.Allreduce(x)`` and a plain one
``total = comm.Allreduce(x)``.

Byte-accounting convention (see :mod:`repro.simmpi.metrics`): a rank's
``bytes_sent`` for an event is the payload it injects once — exact for
Alltoallv and its count header (self-directed slices excluded), and the
standard pipelined/butterfly bandwidth proxy for rooted and all-
collectives.

On the procs backend every rank's result is pickled into its response
slot and copied back out, so each rank owns what it receives; executes
that deliver one result object to *several* ranks hand the same object to
all of them there.

In-process backends (serial/threads) share an address space, so object
sharing there needs the read-only contract instead
(``Backend.shares_results``): the one-result collectives — ``Allreduce``,
``Bcast``, ``Allgatherv``, ``allgather`` — hand every rank the *same*
sealed (non-writeable) array (:func:`seal`),
turning O(P^2) result bytes per collective into O(P).  The all-to-all
collectives keep **two merges for two regimes**, selected by the same
flag: where results are shared, one vectorized destination bucketing
(concatenate, an int64 permutation, one fancy scatter — three
element-sized passes) whose per-rank results are sealed views of a single
buffer, which is what many tiny pieces at hundreds of ranks need (and an
exchange with no records anywhere hands every rank one sealed empty plane
per field); on ``procs``, one ``np.concatenate`` per destination — a
single pass, which is what a few large pieces at 2–8 ranks need (see
EXPERIMENTS.md, "procs through the vectorised merge").  A rank that must
mutate a received result calls :func:`materialize` (copy-on-write).  The
*values* are bit-identical on every backend.
"""

from __future__ import annotations

import pickle
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.backends.base import Backend
from repro.simmpi.stepping import Steps, steppable

_REDUCERS: dict[str, Callable[..., Any]] = {
    "sum": np.add.reduce,
    "max": np.maximum.reduce,
}


def materialize(arr: np.ndarray) -> np.ndarray:
    """Copy-on-write helper: a writable version of a received buffer.

    Zero-copy for arrays that are already writable; copies only the
    in-process backends' shared (sealed) collective results.
    """
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        return arr.copy()
    return arr


def seal(obj: Any) -> Any:
    """Mark an array — or every array inside nested tuples / lists — read-
    only, so it can be shared across in-process ranks.

    A sealed result object is handed to *every* rank of a collective, and
    any accidental in-place mutation raises instead of silently leaking
    into other ranks.
    """
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            seal(item)
    return obj


def _reducer(op: str) -> Callable[..., Any]:
    """The reduction for ``op``, or a ValueError naming the valid ops."""
    try:
        return _REDUCERS[op]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown reduction op {op!r}; valid ops: {sorted(_REDUCERS)}"
        ) from None


def _obj_nbytes(obj: Any) -> int:
    """Metering size of a generic Python object (pickle length)."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable oddity; charge a token amount


def _common_dtype(bufs: Sequence[np.ndarray], what: str) -> Optional[np.dtype]:
    """The single dtype of the non-empty buffers in ``bufs`` (None if all
    are empty).  Zero-length contributions are dtype-exempt: no data of
    theirs moves, so they cannot cause a silent upcast — only ranks that
    actually inject payload must agree."""
    dtypes = {b.dtype for b in bufs if b.size}
    if len(dtypes) > 1:
        raise ValueError(f"{what} dtype mismatch across ranks: {dtypes}")
    return dtypes.pop() if dtypes else None


def _merge_pieces(
    pieces: Sequence[np.ndarray], fallback: np.dtype
) -> np.ndarray:
    """Concatenate per-source slices, skipping empties so a zero-length
    contribution's dtype never promotes the result."""
    live = [p for p in pieces if p.size]
    if not live:
        return np.empty(0, dtype=fallback)
    return np.concatenate(live)


def _dest_perm(cmat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter permutation for the vectorized all-to-all merge.

    ``cmat[src, dst]`` counts the items source ``src`` sends destination
    ``dst``.  Concatenating every source's send buffer lists the moved
    elements in source-major block order; ``perm`` maps each element of
    that concatenation to its slot in the destination-major layout
    (grouped by destination, source order preserved within each group —
    exactly the order the per-destination concatenation loop produced).
    Returns ``(perm, dst_starts)`` where ``dst_starts`` bounds each
    destination's slice of the permuted buffer.  O(N + P^2) NumPy work
    replaces the O(P^2) Python loop over per-``(src, dst)`` slices.
    """
    nprocs = cmat.shape[0]
    counts_flat = cmat.ravel()
    # element offset of each (src, dst) block in the source-major order
    src_starts = np.zeros(counts_flat.size, dtype=np.int64)
    np.cumsum(counts_flat[:-1], out=src_starts[1:])
    # destination slice bounds, and each block's offset within its slice
    dst_starts = np.zeros(nprocs + 1, dtype=np.int64)
    np.cumsum(cmat.sum(axis=0), out=dst_starts[1:])
    within = np.zeros_like(cmat)
    np.cumsum(cmat[:-1], axis=0, out=within[1:])
    tgt_starts = dst_starts[:-1][np.newaxis, :] + within
    shift = np.repeat(tgt_starts.ravel() - src_starts, counts_flat)
    return shift + np.arange(shift.size, dtype=np.int64), dst_starts


def _gather_live(bufs: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenation of the non-empty buffers (source-major order)."""
    live = [b for b in bufs if b.size]
    return live[0] if len(live) == 1 else np.concatenate(live)


class SimComm:
    """Communicator handle passed to every rank function.

    ``runtime`` is anything satisfying the execution-backend protocol —
    ``nprocs``, ``meter_compute``, and ``collective(...)`` (see
    :class:`repro.simmpi.backends.base.Backend`); in the ``procs`` backend
    it is the rank-side shared-memory endpoint rather than the backend
    object itself.  Not thread-safe within a rank (as with real MPI
    communicators, one rank = one call stream).
    """

    def __init__(self, runtime: Backend, rank: int) -> None:
        self._runtime = runtime
        self.rank = int(rank)
        self.size = runtime.nprocs
        self._tag = ""
        self._work = 0.0
        #: Whether a communicator strategy (see :mod:`repro.simmpi.topology`)
        #: splits traffic into tiers; flat metering has none.  The split
        #: itself happens where a round is recorded; a rank only deposits
        #: its per-destination bytes for it, and under flat not even that.
        self._tiered = getattr(runtime, "comm_strategy", None) is not None
        #: Shared read-only result delivery (see module docstring): True
        #: where the ranks share an address space, False on the procs
        #: backend's rank endpoints, whose results cross a process boundary.
        self._share_results = runtime.shares_results
        #: Collectives completed by this rank so far.  A BSP program keeps
        #: this identical across ranks; checkpoints record it so a resumed
        #: run knows where its re-executed prologue (graph build) ends.
        self.event_count = 0
        #: thread_time bookkeeping is skipped wholesale unless a profiling
        #: harness turned compute metering on — at thousands of ranks the
        #: two clock reads per deposit are measurable pure overhead.
        self._meter = bool(runtime.meter_compute)
        self._last_thread_time: float = (
            time.thread_time() if self._meter else 0.0
        )
        #: The result of this rank's pending deposit, left here by whoever
        #: carried the deposit out and taken when the rank resumes.  (Not
        #: ``gen.send(result)``: its caller would hold the result for the
        #: rank's whole next step, and so would peak memory.)
        self._received: Any = None

    # -- deterministic work metering ----------------------------------------

    def charge(self, units: float) -> None:
        """Charge deterministic work (e.g. edges touched) to this rank's
        current superstep — the compute the machine model prices, via
        ``gamma``, so modeled times are exactly reproducible."""
        self._work += float(units)

    # -- phase tagging -----------------------------------------------------

    @contextmanager
    def phase(self, tag: str) -> Iterator[None]:
        """Label subsequent collectives with ``tag`` for per-phase metering."""
        prev = self._tag
        self._tag = tag
        try:
            yield
        finally:
            self._tag = prev

    # -- internals -----------------------------------------------------------

    def _collective(
        self,
        op: str,
        contribution: Any,
        nbytes_sent: int,
        execute: Callable[[List[Any]], List[Any]],
        *,
        dest_bytes: Optional[np.ndarray] = None,
        root: Optional[int] = None,
        header_slot: Optional[int] = None,
    ) -> Steps[Any]:
        """One deposit, yielded as the request
        ``(self, *Backend.collective arguments)`` that the rank's driver
        carries out (:mod:`repro.simmpi.stepping`), leaving the result in
        ``self._received``.  ``dest_bytes`` / ``root`` / ``header_slot``
        are metering inputs the backend reads once per rendezvous (see
        :meth:`Backend.collective`); with ``header_slot`` the deposit
        stands for two metered rounds.

        With compute metering the deposit bills the ``thread_time`` since
        this rank last *resumed* — from a collective here, or from its
        first step, when its SimComm was made — so a stepping worker that
        runs many ranks on one thread still bills each rank its own
        segments, and a rank never moves between workers mid-segment."""
        work = self._work
        self._work = 0.0
        rounds = 1 if header_slot is None else 2
        if not self._meter:
            # unmetered fast path: no clock reads, no try frame — at
            # thousands of ranks this per-deposit overhead adds up
            yield (self, self.rank, op, self._tag, contribution, nbytes_sent,
                   execute, 0.0, work, dest_bytes, root, header_slot)
            self.event_count += rounds
            result, self._received = self._received, None
            return result
        delta = max(time.thread_time() - self._last_thread_time, 0.0)
        try:
            yield (self, self.rank, op, self._tag, contribution, nbytes_sent,
                   execute, delta, work, dest_bytes, root, header_slot)
            self.event_count += rounds
            result, self._received = self._received, None
            return result
        finally:
            self._last_thread_time = time.thread_time()

    # -- synchronization ------------------------------------------------------

    @steppable
    def barrier(self) -> Steps[None]:
        yield from self._collective("barrier", None, 0,
                                    lambda c: [None] * len(c))

    # -- checkpoint rendezvous -------------------------------------------------

    @steppable
    def Checkpoint(
        self,
        payload: bytes,
        meta: dict,
        writer: Callable[[List[Tuple[bytes, dict]]], Any],
    ) -> Steps[Any]:
        """Collective checkpoint: every rank deposits its state ``payload``
        (plus a small ``meta`` dict, identical across ranks), ``writer``
        runs exactly once with the full per-rank list and persists it, and
        its return value is delivered to every rank.

        Metered as one ``checkpoint`` event whose per-rank bytes are the
        payload sizes — deterministic for deterministic snapshots, so
        checkpointing leaves the communication record bit-reproducible.
        The backend's driver-side hook (:attr:`Backend.ckpt_committer`)
        fires when this event is recorded, which is what turns the written
        files into a *committed* epoch (see :mod:`repro.ft.checkpoint`).
        """

        def execute(contribs: List[Any]) -> List[Any]:
            result = writer(contribs)
            return [result] * len(contribs)

        return (yield from self._collective(
            "checkpoint", (bytes(payload), dict(meta)), len(payload), execute
        ))

    # -- generic-object collectives -------------------------------------------

    @steppable
    def allgather(self, obj: Any) -> Steps[List[Any]]:
        """Gather one picklable object per rank onto every rank."""
        nbytes = _obj_nbytes(obj)

        def execute(contribs: List[Any]) -> List[Any]:
            gathered = list(contribs)
            return [gathered] * len(contribs)

        return (yield from self._collective("allgather", obj, nbytes, execute))

    @steppable
    def allreduce(self, value: Any, op: str = "sum") -> Steps[Any]:
        """All-reduce a scalar (or small object supporting the numpy ufunc)
        with ``op`` ``"sum"`` or ``"max"``."""
        reducer = _reducer(op)
        nbytes = _obj_nbytes(value)

        def execute(contribs: List[Any]) -> List[Any]:
            result = reducer(np.asarray(contribs, dtype=object), axis=0)
            # unbox numpy scalars back to Python for ergonomic comparisons
            if isinstance(result, np.generic):
                result = result.item()
            return [result] * len(contribs)

        return (yield from self._collective("allreduce", value, nbytes,
                                            execute))

    # -- NumPy-buffer collectives ----------------------------------------------

    @steppable
    def Bcast(self, array: np.ndarray, root: int = 0) -> Steps[np.ndarray]:
        """Broadcast a NumPy array from ``root``; returns the array on every
        rank (the root's own array object is returned unchanged at root)."""
        mine = self.rank == root
        arr = np.ascontiguousarray(array) if mine else None
        nbytes = arr.nbytes if mine else 0
        share = self._share_results

        def execute(contribs: List[Any]) -> List[Any]:
            # one result object for every non-root rank (the root keeps its
            # own array and needs nothing back): a sealed copy where ranks
            # share an address space — the root's writable input is never
            # sealed — else the value itself, pickled into each response
            value = contribs[root]
            out = seal(value.copy()) if share else value
            return [None if r == root else out for r in range(len(contribs))]

        result = yield from self._collective("bcast", arr, nbytes, execute,
                                             root=root)
        return arr if mine else result

    @steppable
    def Allreduce(self, array: np.ndarray,
                  op: str = "sum") -> Steps[np.ndarray]:
        """Element-wise all-reduce of equal-shape NumPy arrays (``op``
        ``"sum"`` or ``"max"``)."""
        arr = np.ascontiguousarray(array)
        reducer = _reducer(op)
        share = self._share_results

        def execute(contribs: List[Any]) -> List[Any]:
            shapes = {c.shape for c in contribs}
            if len(shapes) != 1:
                raise ValueError(f"Allreduce shape mismatch across ranks: {shapes}")
            total = reducer(np.stack(contribs), axis=0)
            if share:
                seal(total)
            return [total] * len(contribs)

        return (yield from self._collective("allreduce", arr, arr.nbytes,
                                            execute))

    @steppable
    def Allgatherv(
        self, array: np.ndarray, then: Optional[Callable[..., Any]] = None
    ) -> Steps[Any]:
        """Concatenate per-rank 1-D arrays onto every rank.

        Returns ``(concatenated, counts)`` where ``counts[r]`` is rank ``r``'s
        contribution length — or, given ``then``, the value of
        ``then(concatenated, counts)``: it runs exactly once, where the
        collective executes, so a pure function of replicated inputs costs
        one evaluation per address space, not one per rank.  It must return
        plain tuples / lists of arrays and scalars.  Ranks that share results
        get the same sealed object; the others each receive a private copy.
        Metered as a plain ``Allgatherv``.  ``then`` runs while the peers
        wait at the rendezvous — it counts against the watchdog deadline,
        like a ``Checkpoint`` writer — and an exception it raises fails the
        run.
        """
        arr = np.ascontiguousarray(array)
        if arr.ndim != 1:
            raise ValueError("Allgatherv expects 1-D arrays")
        share = self._share_results

        def execute(contribs: List[Any]) -> List[Any]:
            counts = np.array([c.shape[0] for c in contribs], dtype=np.int64)
            merged = (np.concatenate(contribs) if counts.sum()
                      else contribs[0][:0])
            result = (merged, counts) if then is None else then(merged, counts)
            if share:
                seal(result)
            return [result] * len(contribs)

        return (yield from self._collective("allgatherv", arr, arr.nbytes,
                                            execute))

    @steppable
    def Alltoallv(
        self, sendbuf: np.ndarray, sendcounts: np.ndarray
    ) -> Steps[Tuple[np.ndarray, np.ndarray]]:
        """Variable-count all-to-all of a 1-D buffer.

        ``sendbuf`` holds the data destined for rank 0, then rank 1, etc.;
        ``sendcounts[r]`` items go to rank ``r``.  Returns
        ``(recvbuf, recvcounts)`` with the pieces ordered by source rank.

        Mirrors Algorithm 3's two-step pattern: real MPI first Alltoalls the
        counts, then Alltoallvs the payload; both rounds are metered here
        (an ``alltoall`` event, then an ``alltoallv`` event).  The
        one-field case of :meth:`Alltoallv_fields`.
        """
        if np.ndim(sendbuf) != 1:
            raise ValueError("Alltoallv expects a 1-D send buffer")
        (recvbuf,), recvcounts = yield from self.Alltoallv_fields(
            (sendbuf,), sendcounts)
        return recvbuf, recvcounts

    @steppable
    def Alltoallv_fields(
        self, fields: Sequence[np.ndarray], sendcounts: np.ndarray
    ) -> Steps[Tuple[List[np.ndarray], np.ndarray]]:
        """Variable-count all-to-all of a multi-field record batch.

        The wire primitive: a record is one entry from each array
        in ``fields`` (struct-of-arrays — every field keeps its own,
        possibly narrow, dtype), ``sendcounts[r]`` *records* go to rank
        ``r``, and all fields share the destination grouping (use
        :func:`repro.dist.packing.pack_fields_by_rank`).  Returns
        ``(recv_fields, recvcounts)`` with each field's pieces ordered by
        source rank and ``recvcounts`` in records.

        Two metered rounds, one rendezvous.  The modeled machine runs
        Algorithm 3: an Alltoall of the counts — an ``alltoall`` event of
        ``(size - 1) * sendcounts.itemsize`` bytes per rank, which also
        carries the work and compute charged since the last collective and
        whose inter-node wire bytes the hierarchical strategy models as
        re-encoded ``uint32`` entries — then the payload, an ``alltoallv``
        event of the *true* wire size: the off-rank record count times the
        summed field itemsizes, no int64 inflation of narrow fields.  The
        simulator parks the ranks once: the deposit that carries the
        payload carries the counts, so ``event_count`` advances by two and
        a fault plan takes two steps per call.  Zero-length contributions
        are dtype-exempt (see :func:`_common_dtype`).
        """
        bufs = tuple(np.ascontiguousarray(f) for f in fields)
        if not bufs:
            raise ValueError("Alltoallv_fields needs at least one field")
        nrec = bufs[0].shape[0]
        for b in bufs:
            if b.ndim != 1:
                raise ValueError("Alltoallv_fields expects 1-D field arrays")
            if b.shape[0] != nrec:
                raise ValueError("Alltoallv_fields fields must be equal-length")
        cts = np.asarray(sendcounts, dtype=np.int64)
        if cts.shape != (self.size,):
            raise ValueError(
                f"sendcounts must have shape ({self.size},), got {cts.shape}"
            )
        if cts.sum() != nrec:
            raise ValueError(
                f"sendcounts sum {cts.sum()} != record count {nrec}"
            )
        record_bytes = sum(b.itemsize for b in bufs)
        offrank = int((nrec - cts[self.rank]) * record_bytes)
        dest = None
        if self._tiered:
            # per-destination payload bytes, self slot zeroed: the input of
            # the tier split (flat metering would not read it)
            dest = cts * np.int64(record_bytes)
            dest[self.rank] = 0
        share = self._share_results

        def execute(contribs: List[Any]) -> List[Any]:
            nprocs = len(contribs)
            all_bufs = [c[0] for c in contribs]
            counts = [c[1] for c in contribs]
            widths = {len(b) for b in all_bufs}
            if len(widths) > 1:
                raise ValueError(
                    f"Alltoallv_fields field-count mismatch across ranks: "
                    f"{sorted(widths)}"
                )
            k = widths.pop()
            wire_dtypes = [
                _common_dtype([b[j] for b in all_bufs], "Alltoallv_fields")
                for j in range(k)
            ]
            if share:
                cmat = np.stack(counts)
                rcmat = seal(np.ascontiguousarray(cmat.T))
                if all(d is None for d in wire_dtypes):
                    # no records anywhere (fields are equal-length per
                    # source, so the dtypes are all-None together): every
                    # rank gets one sealed empty plane per field, in the
                    # dtype it deposited that field in
                    planes: dict = {}
                    results = []
                    for r in range(nprocs):
                        row = []
                        for j, buf in enumerate(all_bufs[r]):
                            plane = planes.get((j, buf.dtype))
                            if plane is None:
                                plane = planes[j, buf.dtype] = seal(
                                    np.empty(0, buf.dtype))
                            row.append(plane)
                        results.append((row, rcmat[r]))
                    return results
                perm, dst_starts = _dest_perm(cmat)
                merged_fields = []
                for j in range(k):
                    out = np.empty(perm.size, dtype=wire_dtypes[j])
                    out[perm] = _gather_live([b[j] for b in all_bufs])
                    merged_fields.append(seal(out))
                return [
                    ([f[dst_starts[r]:dst_starts[r + 1]]
                      for f in merged_fields], rcmat[r])
                    for r in range(nprocs)
                ]
            send_offsets = []
            for c in counts:
                off = np.zeros(nprocs + 1, dtype=np.int64)
                np.cumsum(c, out=off[1:])
                send_offsets.append(off)
            results = []
            for dst in range(nprocs):
                lo = [send_offsets[src][dst] for src in range(nprocs)]
                hi = [send_offsets[src][dst + 1] for src in range(nprocs)]
                rc = np.array(
                    [h - l for l, h in zip(lo, hi)], dtype=np.int64
                )
                merged = []
                for j in range(k):
                    fallback = (
                        wire_dtypes[j] if wire_dtypes[j] is not None
                        else all_bufs[dst][j].dtype
                    )
                    merged.append(_merge_pieces(
                        [all_bufs[src][j][lo[src]:hi[src]]
                         for src in range(nprocs)],
                        fallback,
                    ))
                results.append((merged, rc))
            return results

        return (yield from self._collective(
            "alltoallv", (bufs, cts), offrank, execute, dest_bytes=dest,
            header_slot=cts.itemsize,
        ))
