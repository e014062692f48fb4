"""Zero-copy shared-memory data plane for the ``procs`` backend.

Writing every collective payload into the rendezvous slots would copy it
up to four times: the sender memcpys it into a request slot, the
designated computer merges contributions into fresh heap arrays, copies
each rank's result into that rank's response slot, and every receiver
copies it back out so the returned arrays own their data.  The data plane
removes the response-side copies entirely: large NumPy buffers live
directly in long-lived named ``multiprocessing.shared_memory`` segments
(per-rank *arenas*), the slots carry compact
``(segment, offset, nbytes)`` descriptors instead of raw bytes, and the
receiving side materializes zero-copy read-only ``np.frombuffer`` views.
A rank that needs to mutate a received buffer copies it first
(:func:`materialize` — the copy-on-write rule); every hot-path consumer in
the repo only reads received buffers, so the common case moves descriptors,
not bytes.

Arena layout and lifecycle
--------------------------

* **Send arenas** (:class:`SendArena`, one per rank, segments named
  ``{session}dps{rank}g{gen}``) hold collective *contributions*.  The
  lockstep barrier protocol guarantees a contribution is consumed by the
  designated computer strictly before the owning rank's next deposit, so a
  send arena is reset (bump pointer back to zero) on every write; it grows
  by replacing its segment with a generation-tagged larger one.
* **The result arena** (:class:`ResultArena`, rank 0 only, segments named
  ``{session}dpr g{gen}``) holds collective *results*.  Receivers keep
  zero-copy views with unbounded lifetime, so its segments are recycled
  only once every rank has *released* the views materialized from them:
  each rank tracks its live views with weak references
  (:class:`ViewLedger`) and publishes a release cursor — the highest
  superstep whose views are all dead — through a fork-shared array; a
  segment whose last write is at or below the minimum cursor over all
  ranks carries no live views anywhere and may be rewritten.

Every arena segment name carries the session's unique ``/dev/shm`` prefix
(under the ``dp`` sub-prefix), so the parent's teardown sweep reclaims all
of them — on normal exit and after a hard ``os._exit`` kill of any rank —
without the arenas having to publish their segment lists.

The compute-side allocation hook (:func:`result_buffer` /
:func:`compute_arena`) lets :mod:`repro.simmpi.comm`'s collective
``execute`` functions write merged results *directly* into the result
arena, so the designated computer's merge pass is the only copy a large
result ever pays.  Outside an active plane (the ``serial``/``threads``
backends) the hook degrades to ``np.empty`` and nothing changes —
bit-identical results and CommStats on every backend and communicator
strategy.

The in-process backends share collective results the other way: one
sealed (read-only) object handed to every rank (:func:`seal`), under the
same copy-on-write contract (:func:`materialize`).
"""

from __future__ import annotations

import weakref
import zlib
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

#: Buffers below this many bytes stay inline in the rendezvous slot (and
#: therefore arrive as private writable copies); buffers at or above it
#: travel as arena descriptors and arrive as read-only zero-copy views.
DESCRIPTOR_MIN = 4096

#: Arena allocations are aligned to cache lines.
_ALIGN = 64

#: Smallest arena segment (segments grow geometrically from here).
_MIN_SEGMENT = 1 << 20


class ShmSpec(NamedTuple):
    """Descriptor of one out-of-band buffer parked in an arena segment.

    ``pickle`` stores dtype/shape/order in-band, so raw bytes plus a
    segment window reconstruct the exact NumPy array on the far side.
    ``crc`` carries the crc32 of the window's bytes at place time when
    integrity checking is on (``-1`` when off): receivers re-hash the
    window at view time, so corruption anywhere between the arena write
    and the read raises instead of leaking into results.
    """

    segment: str
    offset: int
    nbytes: int
    crc: int = -1


def _pow2_at_least(n: int) -> int:
    size = _MIN_SEGMENT
    while size < n:
        size *= 2
    return size


def _buffer_address(view: memoryview) -> int:
    """Start address of a non-empty buffer (for alias detection)."""
    return np.frombuffer(view, dtype=np.uint8).__array_interface__["data"][0]


def materialize(arr: np.ndarray) -> np.ndarray:
    """Copy-on-write helper: a writable version of a received buffer.

    Zero-copy for arrays that already own writable data; copies only
    read-only buffers — the shm data plane's shared-memory views and the
    in-process backends' shared (sealed) collective results.
    """
    if isinstance(arr, np.ndarray) and not arr.flags.writeable:
        return arr.copy()
    return arr


def seal(obj: Any) -> Any:
    """Mark an array — or every array inside nested tuples / lists — read-
    only, so it can be shared across in-process ranks.

    The PR-7 zero-copy contract, extended inward: a sealed result object is
    handed to *every* rank of a collective, and any accidental in-place
    mutation raises instead of silently leaking into other ranks.
    """
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            seal(item)
    return obj


def _create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    while True:
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:  # pragma: no cover - stale leftover
            name += "x"


class SegmentCache:
    """Per-process attach-by-name cache of arena segments.

    Readers resolve descriptors through this cache so one ``mmap`` per
    segment serves every view materialized from it.  Mappings are dropped
    at :meth:`close`; a mapping still referenced by a live view survives
    (``BufferError`` is expected and swallowed — the view's reference keeps
    the memory valid until the process exits).
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def view(self, spec: ShmSpec) -> memoryview:
        """Read-only window onto the descriptor's bytes (zero-copy)."""
        seg = self._segments.get(spec.segment)
        if seg is None:
            seg = shared_memory.SharedMemory(name=spec.segment)
            self._segments[spec.segment] = seg
        return seg.buf[spec.offset:spec.offset + spec.nbytes].toreadonly()

    def close(self) -> None:
        for seg in self._segments.values():
            try:
                seg.close()
            except BufferError:  # a materialized view is still alive
                pass
        self._segments.clear()


class SendArena:
    """Contribution arena of one rank: reset on every slot write.

    Sound because the rendezvous protocol is lockstep: the designated
    computer's views of superstep *N*'s contributions are dropped before
    the closing barrier of *N*, and the owning rank's next write happens
    strictly after that barrier.  Any result that aliases contribution
    memory is copied into the result arena before descriptors are
    published (see :meth:`ResultArena.place`), so nothing outlives the
    superstep.
    """

    def __init__(self, base: str, integrity: bool = False) -> None:
        self._base = base
        self._gen = 0
        self._seg: Optional[shared_memory.SharedMemory] = None
        self._cursor = 0
        self._integrity = integrity

    def begin_write(self, total_nbytes: int) -> None:
        """Reset the bump pointer; ensure capacity for one slot write."""
        self._cursor = 0
        if total_nbytes == 0:
            return
        need = total_nbytes + _ALIGN * 8  # alignment slack
        if self._seg is None or self._seg.size < need:
            old = self._seg
            self._gen += 1
            self._seg = _create_segment(
                f"{self._base}g{self._gen}", _pow2_at_least(need)
            )
            if old is not None:
                # replaced generations are retired immediately: descriptors
                # naming them were consumed a superstep ago, and unlinking
                # keeps /dev/shm down to one live segment per arena
                try:
                    old.close()
                except BufferError:  # pragma: no cover - stale view alive
                    pass
                old.unlink()

    def place(self, raw: memoryview) -> ShmSpec:
        """Copy one out-of-band buffer into the arena; return its spec."""
        assert self._seg is not None, "begin_write() sizes the arena first"
        off = -self._cursor % _ALIGN + self._cursor
        n = raw.nbytes
        flat = raw.cast("B") if raw.ndim != 1 or raw.format != "B" else raw
        self._seg.buf[off:off + n] = flat
        self._cursor = off + n
        crc = zlib.crc32(flat) if self._integrity else -1
        return ShmSpec(self._seg.name, off, n, crc)

    def corrupt(self, seed: int) -> bool:
        """Flip one byte of this write's placed bytes (fault injection).

        Called *after* the slot write published the descriptors, so their
        crcs describe the uncorrupted bytes — exactly the transport-level
        flip integrity checking exists to catch.  Returns False when the
        current write placed nothing (all payloads were inlined).
        """
        if self._seg is None or self._cursor == 0:
            return False
        idx = seed % self._cursor
        self._seg.buf[idx] ^= 0xFF
        return True

    def close(self) -> None:
        if self._seg is not None:
            try:
                self._seg.close()
            except BufferError:  # pragma: no cover
                pass
            self._seg = None


class _ResultSegment:
    __slots__ = ("seg", "cursor", "last_step", "addrs")

    def __init__(self, seg: shared_memory.SharedMemory) -> None:
        self.seg = seg
        self.cursor = 0
        self.last_step = -1
        self.addrs: List[int] = []


class ResultArena:
    """Result arena of the designated computer (rank 0).

    Allocation is bump-pointer within the current segment; when it fills,
    a *retired* segment whose ``last_step`` every rank has released is
    rewound and reused, else a new generation-tagged segment is created
    (geometric sizing).  Segments are never unlinked mid-run — a receiver
    may attach at any point of the current superstep — and the session
    teardown sweep reclaims all of them by name prefix.
    """

    def __init__(self, base: str, integrity: bool = False) -> None:
        self._base = base
        self._gen = 0
        self._segments: List[_ResultSegment] = []
        self._current: Optional[_ResultSegment] = None
        self._step = 0
        self._min_released = -1
        self._integrity = integrity
        #: address -> spec of blocks handed out by :meth:`alloc_array`
        #: this step (zero-copy detection for arena-resident results).
        self._own: Dict[int, ShmSpec] = {}
        #: address -> crc32 of an own block's final bytes, memoized at the
        #: first :meth:`place` so responses shared across ranks hash once.
        self._own_crc: Dict[int, int] = {}
        #: address -> (spec, pinned buffer) memo of foreign buffers already
        #: copied this step — results shared across ranks (Bcast payload,
        #: an Allgatherv merge) are copied once, then descriptor-shared.
        #: Pinning the source buffer prevents its address being recycled
        #: (and the memo going stale) within the step.
        self._foreign: Dict[Tuple[int, int], Tuple[ShmSpec, memoryview]] = {}
        #: arrays handed out this step (keeps their mappings trivially
        #: alive until the responses are written)
        self._issued: List[np.ndarray] = []

    def begin_step(self, step: int, min_released: int) -> None:
        """Open superstep ``step``; segments last written at or below
        ``min_released`` carry no live views on any rank."""
        self._step = step
        self._min_released = min_released
        self._own.clear()
        self._own_crc.clear()
        self._foreign.clear()
        self._issued.clear()

    def _room(self, seg: _ResultSegment, nbytes: int) -> Optional[int]:
        off = -seg.cursor % _ALIGN + seg.cursor
        return off if off + nbytes <= seg.seg.size else None

    def _block(self, nbytes: int) -> Tuple[_ResultSegment, int]:
        if self._current is not None:
            off = self._room(self._current, nbytes)
            if off is not None:
                return self._current, off
        # rotate: reuse a fully-released retired segment if one fits
        for cand in self._segments:
            if cand is self._current or cand.last_step > self._min_released:
                continue
            if cand.seg.size >= nbytes:
                cand.cursor = 0
                for addr in cand.addrs:
                    self._own.pop(addr, None)
                    self._own_crc.pop(addr, None)
                cand.addrs.clear()
                self._current = cand
                return cand, 0
        self._gen += 1
        seg = _ResultSegment(_create_segment(
            f"{self._base}g{self._gen}", _pow2_at_least(nbytes + _ALIGN)
        ))
        self._segments.append(seg)
        self._current = seg
        return seg, 0

    def _claim(self, nbytes: int) -> Tuple[_ResultSegment, int]:
        seg, off = self._block(nbytes)
        seg.cursor = off + nbytes
        seg.last_step = self._step
        return seg, off

    def alloc_array(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """A writable array backed by the arena (the ``execute`` hook).

        The block is remembered by address, so when the result is pickled
        into a response slot its descriptor is emitted without any copy.
        """
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes < DESCRIPTOR_MIN:
            # small results stay inline (and thus privately writable on
            # the receiving side); the arena only carries view-sized data
            return np.empty(shape, dtype=dtype)
        seg, off = self._claim(nbytes)
        arr = np.frombuffer(
            seg.seg.buf, dtype=dtype, count=int(np.prod(shape, dtype=np.int64)),
            offset=off,
        ).reshape(shape)
        addr = arr.__array_interface__["data"][0]
        self._own[addr] = ShmSpec(seg.seg.name, off, nbytes)
        seg.addrs.append(addr)
        self._issued.append(arr)
        return arr

    def begin_write(self, total_nbytes: int) -> None:
        """Slot-write hook (no-op: result blocks are claimed on demand)."""

    def place(self, raw: memoryview) -> ShmSpec:
        """Descriptor for one out-of-band result buffer.

        Zero-copy when the buffer already lives in this arena
        (:meth:`alloc_array`); one memoized copy per step otherwise — a
        result object shared across several ranks' responses is copied
        once and descriptor-shared after that.
        """
        flat = raw if raw.ndim == 1 and raw.format == "B" else raw.cast("B")
        addr = _buffer_address(flat)
        spec = self._own.get(addr)
        if spec is not None and spec.nbytes == flat.nbytes:
            if not self._integrity:
                return spec
            # own blocks are hashed at first place (their bytes are final
            # by then: execute() filled them before the response writes)
            crc = self._own_crc.get(addr)
            if crc is None:
                crc = zlib.crc32(flat)
                self._own_crc[addr] = crc
            return spec._replace(crc=crc)
        memo = self._foreign.get((addr, flat.nbytes))
        if memo is not None:
            return memo[0]
        seg, off = self._claim(flat.nbytes)
        seg.seg.buf[off:off + flat.nbytes] = flat
        crc = zlib.crc32(flat) if self._integrity else -1
        spec = ShmSpec(seg.seg.name, off, flat.nbytes, crc)
        self._foreign[(addr, flat.nbytes)] = (spec, flat)
        return spec

    def close(self) -> None:
        self._own.clear()
        self._own_crc.clear()
        self._foreign.clear()
        self._issued.clear()
        for s in self._segments:
            try:
                s.seg.close()
            except BufferError:  # pragma: no cover
                pass
        self._segments.clear()
        self._current = None


class ViewLedger:
    """Rank-side accounting of live zero-copy views, by superstep.

    Views are found by walking each materialized result for arrays whose
    data address matches a leased arena window; a weak-reference finalizer
    marks each one released when the rank drops its last reference
    (derived views hold their base alive, so slices count).  A buffer that
    hides inside a structure the walk cannot see pins its superstep
    forever — conservative: the arena then never rewrites that region.
    """

    def __init__(self) -> None:
        self._live: Dict[int, int] = {}
        self._pinned: Optional[int] = None
        self._cursor = -1

    def _release(self, step: int) -> None:
        n = self._live.get(step, 0) - 1
        if n <= 0:
            self._live.pop(step, None)
        else:
            self._live[step] = n

    def track(self, obj: Any, leases: List[Tuple[memoryview, int]],
              step: int) -> None:
        """Register the arena-backed arrays inside ``obj``."""
        if not leases:
            return
        by_addr = {addr: mv.nbytes for mv, addr in leases}
        matched = 0
        stack = [obj]
        seen = set()
        while stack and matched < len(by_addr):
            x = stack.pop()
            if id(x) in seen:
                continue
            seen.add(id(x))
            if isinstance(x, np.ndarray):
                addr = x.__array_interface__["data"][0]
                if addr in by_addr:
                    self._live[step] = self._live.get(step, 0) + 1
                    weakref.finalize(x, self._release, step)
                    matched += 1
            elif isinstance(x, (list, tuple, set, frozenset)):
                stack.extend(x)
            elif isinstance(x, dict):
                stack.extend(x.keys())
                stack.extend(x.values())
        if matched < len(by_addr):
            # a leased buffer we cannot watch: freeze recycling at this step
            self._pinned = step if self._pinned is None else min(
                self._pinned, step
            )

    def released(self, upcoming_step: int) -> int:
        """Highest superstep whose views are all dead on this rank."""
        floor = upcoming_step - 1
        if self._live:
            floor = min(floor, min(self._live) - 1)
        if self._pinned is not None:
            floor = min(floor, self._pinned - 1)
        if floor > self._cursor:
            self._cursor = floor
        return self._cursor


# -- compute-side allocation hook -------------------------------------------

_ACTIVE: Optional[ResultArena] = None


def result_buffer(shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
    """Allocate a collective-result buffer.

    Arena-backed under an active data plane — the merge that fills it is
    then the only copy the result ever pays — and plain ``np.empty`` on the
    serial/threads backends, keeping results bit-identical across all of
    them.
    """
    if _ACTIVE is None:
        return np.empty(shape, dtype=dtype)
    return _ACTIVE.alloc_array(tuple(shape), dtype)


@contextmanager
def compute_arena(arena: Optional[ResultArena]) -> Iterator[None]:
    """Install ``arena`` as the active result allocator for one collective."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = arena
    try:
        yield
    finally:
        _ACTIVE = prev
