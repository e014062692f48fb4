"""Rank-side communicator API (the simulated ``MPI.COMM_WORLD``).

Every collective moves NumPy buffers, as XtraPuLP's MPI calls do: the
surface is what the callers call — XtraPuLP's ``Allgatherv`` of the root
candidates, ``Alltoallv`` of ExchangeUpdates (whose consensus also sums an
iteration's size deltas, the operand an ``Alltoallv_fields`` may carry
beside its records) and ``Allreduce`` of the entry totals, plus the
perf probes' ``barrier``.  The multilevel path, the analytics kernels and
checkpointing speak the same buffers: a scalar is reduced as a
one-element array, and a checkpoint epoch is an ``Allgatherv`` of the
ranks' pickled snapshots whose ``then`` writes them
(:mod:`repro.ft.checkpoint`).  ``tests/test_simmpi_surface.py`` keeps the
surface to these five.  There is no ``Bcast``: the one value a master
once sent, Algorithm 2's roots, every rank now draws itself from the
gathered pool.

Each of the five is a stepped routine (:mod:`repro.simmpi.stepping`): its
deposit is a ``yield`` of the request to the runtime, so a generator rank
body writes ``total = yield from comm.Allreduce(x)`` and a plain one
``total = comm.Allreduce(x)``.

Byte-accounting convention (see :mod:`repro.simmpi.metrics`): a round
meters itself where it executes, by the ``nbytes`` its contributions put
on the wire.  Each ``execute`` returns the per-rank results *and* the
round's traffic, read off the contributions it already holds: a rank's
bytes for most ops — the payload it injects once, the standard
pipelined/butterfly bandwidth proxy for all-collectives — and for an
Alltoallv the ``P x P`` per-destination byte matrix,
diagonal zero, priced at each source's own record size (zero-length
contributions are dtype-exempt), paired with each rank's operand bytes
when the exchange carries a reduction.  The backend records it
(:meth:`~repro.simmpi.backends.base.Backend._record`): a matrix's row
sums, plus the operand bytes, are ``bytes_sent`` and its non-zero counts
each rank's ``messages``, which price the exchange's latency.  A deposit
carries no metering input of its own.

Reductions sum in rank order — a left fold over the ranks, whatever the
operand's shape — so a total is the same bit pattern however many ranks
contribute, and a fused operand's total is bit for bit an
``Allreduce``'s.

On the procs backend every rank's result is pickled into its response
slot and copied back out, so each rank owns what it receives; executes
that deliver one result object to *several* ranks hand the same object to
all of them there.

In-process backends (serial/threads) share an address space, so object
sharing there needs the read-only contract instead
(``Backend.shares_results``): the one-result collectives — ``Allreduce``
and ``Allgatherv`` — hand every rank the *same*
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

import operator
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.backends.base import Backend
from repro.simmpi.stepping import Steps, steppable

_nbytes = operator.attrgetter("nbytes")

#: What a collective's ``execute`` returns: the per-rank results and the
#: round's traffic — an array, or an exchange's ``(byte matrix, operand
#: bytes)`` pair (module docstring).
Executed = Tuple[List[Any], Any]
Execute = Callable[[List[Any]], Executed]

_REDUCERS: dict[str, np.ufunc] = {"sum": np.add, "max": np.maximum}


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


def _reducer(op: str) -> np.ufunc:
    """The reduction for ``op``, or a ValueError naming the valid ops."""
    try:
        return _REDUCERS[op]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown reduction op {op!r}; valid ops: {sorted(_REDUCERS)}"
        ) from None


def _per_rank(contribs: Sequence[Any], nbytes: Callable[[Any], int]
              ) -> np.ndarray:
    """Each rank's metered bytes, ``nbytes`` of its contribution."""
    return np.fromiter(map(nbytes, contribs), dtype=np.int64,
                       count=len(contribs))


def _reduce(arrays: Sequence[np.ndarray], reducer: np.ufunc,
            share: bool, what: str) -> np.ndarray:
    """The element-wise reduction of equal-shape per-rank arrays, in rank
    order — one result, sealed where ranks share results.

    ``accumulate``, not ``reduce``: NumPy reduces a contiguous axis
    pairwise, so the sum of one-element operands over 8 or more ranks
    would not be the left fold; ``accumulate`` is, for every shape."""
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"{what} shape mismatch across ranks: {shapes}")
    total = reducer.accumulate(np.stack(arrays), axis=0)[-1]
    if share:
        seal(total)
    return total


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


def _merge_shared(all_bufs: List[Sequence[np.ndarray]],
                  wire_dtypes: List[Optional[np.dtype]],
                  cmat: np.ndarray) -> List[Any]:
    """The all-to-all merge where results are shared (module docstring):
    one vectorized destination bucketing whose per-rank results are
    sealed views of a single buffer per field, with ``cmat[src, dst]``
    the records ``src`` sends ``dst``."""
    # a copy, never a view (a 1 x 1 transpose is contiguous already): the
    # caller turns cmat into the round's traffic in place
    rcmat = seal(cmat.T.copy())
    if all(d is None for d in wire_dtypes):
        # no records anywhere (fields are equal-length per source, so the
        # dtypes are all-None together): every rank gets one sealed empty
        # plane per field, in the dtype it deposited that field in
        planes: dict = {}
        results = []
        for r, bufs in enumerate(all_bufs):
            row = []
            for j, buf in enumerate(bufs):
                plane = planes.get((j, buf.dtype))
                if plane is None:
                    plane = planes[j, buf.dtype] = seal(np.empty(0, buf.dtype))
                row.append(plane)
            results.append((row, rcmat[r]))
        return results
    perm, dst_starts = _dest_perm(cmat)
    merged_fields = []
    for j, dtype in enumerate(wire_dtypes):
        out = np.empty(perm.size, dtype=dtype)
        out[perm] = _gather_live([b[j] for b in all_bufs])
        merged_fields.append(seal(out))
    return [([f[dst_starts[r]:dst_starts[r + 1]] for f in merged_fields],
             rcmat[r]) for r in range(len(all_bufs))]


def _merge_each(all_bufs: List[Sequence[np.ndarray]],
                wire_dtypes: List[Optional[np.dtype]],
                cmat: np.ndarray) -> List[Any]:
    """The all-to-all merge where each rank owns its results (``procs``):
    one concatenation per destination and field."""
    nprocs = len(all_bufs)
    offsets = np.zeros((nprocs, nprocs + 1), dtype=np.int64)
    np.cumsum(cmat, axis=1, out=offsets[:, 1:])
    results = []
    for dst in range(nprocs):
        lo, hi = offsets[:, dst], offsets[:, dst + 1]
        results.append(([
            _merge_pieces(
                [all_bufs[src][j][lo[src]:hi[src]] for src in range(nprocs)],
                all_bufs[dst][j].dtype if dtype is None else dtype)
            for j, dtype in enumerate(wire_dtypes)
        ], hi - lo))
    return results


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
        self, op: str, contribution: Any, execute: Execute
    ) -> Steps[Any]:
        """One deposit, yielded as the request
        ``(self, *Backend.collective arguments)`` that the rank's driver
        carries out (:mod:`repro.simmpi.stepping`), leaving the result in
        ``self._received``.  Every deposit is one metered round, and what
        it meters is ``execute``'s to say (module docstring).

        With compute metering the deposit bills the ``thread_time`` since
        this rank last *resumed* — from a collective here, or from its
        first step, when its SimComm was made — so a stepping worker that
        runs many ranks on one thread still bills each rank its own
        segments, and a rank never moves between workers mid-segment."""
        work = self._work
        self._work = 0.0
        if not self._meter:
            # unmetered fast path: no clock reads, no try frame — at
            # thousands of ranks this per-deposit overhead adds up
            yield (self, self.rank, op, self._tag, contribution, execute,
                   0.0, work)
            self.event_count += 1
            result, self._received = self._received, None
            return result
        delta = max(time.thread_time() - self._last_thread_time, 0.0)
        try:
            yield (self, self.rank, op, self._tag, contribution, execute,
                   delta, work)
            self.event_count += 1
            result, self._received = self._received, None
            return result
        finally:
            self._last_thread_time = time.thread_time()

    # -- synchronization ------------------------------------------------------

    @steppable
    def barrier(self) -> Steps[None]:
        yield from self._collective(
            "barrier", None,
            lambda c: ([None] * len(c), np.zeros(len(c), dtype=np.int64)))

    # -- NumPy-buffer collectives ----------------------------------------------

    @steppable
    def Allreduce(self, array: np.ndarray,
                  op: str = "sum") -> Steps[np.ndarray]:
        """Element-wise all-reduce of equal-shape NumPy arrays (``op``
        ``"sum"`` or ``"max"``), in rank order.  A scalar travels as a
        one-element array: a 0-d operand comes back with shape ``(1,)``."""
        arr = np.ascontiguousarray(array)
        reducer = _reducer(op)
        share = self._share_results

        def execute(contribs: List[Any]) -> Executed:
            total = _reduce(contribs, reducer, share, "Allreduce")
            return [total] * len(contribs), _per_rank(contribs, _nbytes)

        return (yield from self._collective("allreduce", arr, execute))

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
        wait at the rendezvous — it counts against the watchdog deadline —
        and an exception it raises fails the run.

        The non-empty contributions must share one dtype (else
        ``ValueError``), which the result keeps; zero-length ones are
        dtype-exempt (see :func:`_common_dtype`), and with none non-empty
        the result is empty in rank 0's dtype.
        """
        arr = np.ascontiguousarray(array)
        if arr.ndim != 1:
            raise ValueError("Allgatherv expects 1-D arrays")
        share = self._share_results

        def execute(contribs: List[Any]) -> Executed:
            dtype = _common_dtype(contribs, "Allgatherv")
            counts = np.array([c.shape[0] for c in contribs], dtype=np.int64)
            merged = _merge_pieces(
                contribs, contribs[0].dtype if dtype is None else dtype)
            result = (merged, counts) if then is None else then(merged, counts)
            if share:
                seal(result)
            return [result] * len(contribs), _per_rank(contribs, _nbytes)

        return (yield from self._collective("allgatherv", arr, execute))

    @steppable
    def Alltoallv(
        self, sendbuf: np.ndarray, sendcounts: np.ndarray
    ) -> Steps[Tuple[np.ndarray, np.ndarray]]:
        """Variable-count all-to-all of a 1-D buffer.

        ``sendbuf`` holds the data destined for rank 0, then rank 1, etc.;
        ``sendcounts[r]`` items go to rank ``r``.  Returns
        ``(recvbuf, recvcounts)`` with the pieces ordered by source rank.

        Mirrors Algorithm 3's neighbourhood-pruned exchange: one metered
        ``alltoallv`` round in which each rank messages only the ranks it
        sends to.  The one-field case of :meth:`Alltoallv_fields`.
        """
        if np.ndim(sendbuf) != 1:
            raise ValueError("Alltoallv expects a 1-D send buffer")
        (recvbuf,), recvcounts = yield from self.Alltoallv_fields(
            (sendbuf,), sendcounts)
        return recvbuf, recvcounts

    @steppable
    def Alltoallv_fields(
        self, fields: Sequence[np.ndarray], sendcounts: np.ndarray,
        operand: Optional[np.ndarray] = None,
    ) -> Steps[Tuple[Any, ...]]:
        """Variable-count all-to-all of a multi-field record batch, with an
        optional sum-reduction riding the same round.

        The wire primitive: a record is one entry from each array
        in ``fields`` (struct-of-arrays — every field keeps its own,
        possibly narrow, dtype), ``sendcounts[r]`` *records* go to rank
        ``r``, and all fields share the destination grouping (use
        :func:`repro.dist.packing.pack_fields_by_rank`).  Returns
        ``(recv_fields, recvcounts)`` with each field's pieces ordered by
        source rank and ``recvcounts`` in records — and, given an
        ``operand``, ``(recv_fields, recvcounts, total)`` with ``total``
        the element-wise sum of every rank's equal-shape operand, in rank
        order, bit for bit what :meth:`Allreduce` of them returns.  Every
        rank passes an operand or none does.

        One metered round, one rendezvous.  The modeled machine runs the
        exchange as a non-blocking-consensus sparse exchange (NBX: Hoefler,
        Siebert and Lumsdaine, PPoPP 2010): a rank sends one message to
        each non-empty off-rank destination, receivers learn the counts
        from the messages themselves, and a consensus ends the round, so
        no count header crosses the wire.  The operand's reduction is that
        consensus — a nonblocking allreduce that cannot complete on any
        rank before every rank's sends are matched — so it costs no round
        of its own.  The round meters the *true* wire size per
        destination — records times the source's summed field itemsizes,
        no int64 inflation of narrow fields — so the ``alltoallv`` event's
        ``bytes_sent`` is each rank's off-rank payload plus its operand's
        ``nbytes``, and its ``messages`` each rank's count of non-empty
        off-rank destinations.  Zero-length contributions are
        dtype-exempt (see :func:`_common_dtype`).
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
        if operand is not None:
            operand = np.ascontiguousarray(operand)
        share = self._share_results

        def execute(contribs: List[Any]) -> Executed:
            all_bufs = [c[0] for c in contribs]
            widths = {len(b) for b in all_bufs}
            if len(widths) > 1:
                raise ValueError(
                    f"Alltoallv_fields field-count mismatch across ranks: "
                    f"{sorted(widths)}"
                )
            operands = [c[2] for c in contribs]
            reduces = {o is not None for o in operands}
            if len(reduces) > 1:
                raise ValueError(
                    "Alltoallv_fields operand given on some ranks only")
            k = widths.pop()
            wire_dtypes = [
                _common_dtype([b[j] for b in all_bufs], "Alltoallv_fields")
                for j in range(k)
            ]
            cmat = np.stack([c[1] for c in contribs])
            merge = _merge_shared if share else _merge_each
            results = merge(all_bufs, wire_dtypes, cmat)
            # the round's traffic, in place of the counts: each source's
            # records at its own record size (an empty contribution's
            # dtype is exempt, so sizes may differ by row), self slot zero
            cmat *= np.array([sum(b.itemsize for b in bufs)
                              for bufs in all_bufs], dtype=np.int64)[:, None]
            np.fill_diagonal(cmat, 0)
            if reduces.pop():
                total = _reduce(operands, np.add, share,
                                "Alltoallv_fields operand")
                return ([(*res, total) for res in results],
                        (cmat, _per_rank(operands, _nbytes)))
            return results, cmat

        return (yield from self._collective("alltoallv",
                                            (bufs, cts, operand), execute))
