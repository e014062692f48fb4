"""Unit tests for the procs backend's zero-copy shm data plane.

Covers the pieces of :mod:`repro.simmpi.dataplane` in isolation (arenas,
segment cache, view ledger, copy-on-write helper), the slot wire format
that carries descriptors (:mod:`repro.simmpi.backends.procs`), the
``_sanitize_exc`` stand-in contract, and small end-to-end collective
programs checked against the serial backend.
"""

import glob
import os
import pickle
import threading

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.graph import generators
from repro.simmpi import dataplane
from repro.simmpi.backends import create_runtime
from repro.simmpi.backends.procs import _Slot, _sanitize_exc, _sweep_shm
from repro.simmpi.errors import UnpicklableRankError

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)

BIG = dataplane.DESCRIPTOR_MIN  # smallest descriptor-eligible payload


def _segments(prefix):
    """Names of the live shared-memory segments under ``prefix``."""
    return sorted(os.path.basename(p) for p in glob.glob(f"/dev/shm/{prefix}*"))


@pytest.fixture
def prefix():
    """A unique arena/slot name prefix, swept clean afterwards."""
    name = f"simmpi0xdptest{os.getpid()}"
    yield name
    _sweep_shm(name)


# -- arenas ------------------------------------------------------------------


def test_send_arena_roundtrip_and_reset(prefix):
    arena = dataplane.SendArena(prefix + "dps0")
    cache = dataplane.SegmentCache()
    try:
        data = np.arange(BIG, dtype=np.uint8).tobytes()
        arena.begin_write(len(data))
        spec = arena.place(memoryview(data))
        assert spec.nbytes == len(data)
        assert bytes(cache.view(spec)) == data
        # reset: the next write reuses offset 0 of the same segment
        arena.begin_write(len(data))
        spec2 = arena.place(memoryview(data))
        assert (spec2.segment, spec2.offset) == (spec.segment, spec.offset)
    finally:
        cache.close()
        arena.close()


def test_send_arena_growth_replaces_generation(prefix):
    arena = dataplane.SendArena(prefix + "dps0")
    try:
        arena.begin_write(BIG)
        first = arena.place(memoryview(bytes(BIG))).segment
        arena.begin_write(64 << 20)  # force a larger generation
        second = arena.place(memoryview(bytes(64 << 20))).segment
        assert first != second
        # the replaced generation was unlinked immediately
        assert not os.path.exists(os.path.join("/dev/shm", first))
        assert os.path.exists(os.path.join("/dev/shm", second))
    finally:
        arena.close()


def test_result_arena_zero_copy_descriptor_for_own_blocks(prefix):
    arena = dataplane.ResultArena(prefix + "dpr")
    try:
        arena.begin_step(0, -1)
        arr = arena.alloc_array((BIG,), np.uint8)
        arr[:] = 7
        raw = pickle.PickleBuffer(arr).raw()
        spec = arena.place(raw)
        # arena-resident result: descriptor points at the existing block
        assert _segments(prefix) == [spec.segment]
        del arr, raw  # drop exported pointers before the segment closes
    finally:
        arena.close()


def test_result_arena_foreign_copy_memoized_per_step(prefix):
    arena = dataplane.ResultArena(prefix + "dpr")
    try:
        arena.begin_step(0, -1)
        foreign = np.full(BIG, 3, dtype=np.uint8)  # heap-backed result
        raw = pickle.PickleBuffer(foreign).raw()
        s1 = arena.place(raw)
        s2 = arena.place(pickle.PickleBuffer(foreign).raw())
        # shared across ranks: copied once, then descriptor-shared
        assert s1 == s2
        arena.begin_step(1, 0)
        s3 = arena.place(pickle.PickleBuffer(foreign).raw())
        assert s3 != s1  # the memo does not outlive the step
    finally:
        arena.close()


def test_result_arena_recycles_only_released_segments(prefix):
    arena = dataplane.ResultArena(prefix + "dpr")
    try:
        big = 768 * 1024  # two don't fit one 1 MiB segment
        arena.begin_step(0, -1)
        arena.alloc_array((big,), np.uint8)
        assert len(_segments(prefix)) == 1
        # step 1: step 0 NOT released -> must open a second segment
        arena.begin_step(1, -1)
        arena.alloc_array((big,), np.uint8)
        assert len(_segments(prefix)) == 2
        # step 2: everything through step 1 released -> recycle, not grow
        arena.begin_step(2, 1)
        arena.alloc_array((big,), np.uint8)
        assert len(_segments(prefix)) == 2
    finally:
        arena.close()


def test_result_arena_small_allocations_stay_on_heap(prefix):
    arena = dataplane.ResultArena(prefix + "dpr")
    try:
        arena.begin_step(0, -1)
        small = arena.alloc_array((8,), np.int64)
        assert small.flags.writeable
        assert _segments(prefix) == []  # nothing was parked
    finally:
        arena.close()


# -- view ledger -------------------------------------------------------------


def _lease_for(arr):
    mv = memoryview(arr).cast("B")
    return (mv, arr.__array_interface__["data"][0])


def test_ledger_cursor_advances_when_views_die():
    ledger = dataplane.ViewLedger()
    arr = np.zeros(BIG, dtype=np.uint8)
    ledger.track(("result", arr), [_lease_for(arr)], step=0)
    assert ledger.released(upcoming_step=1) == -1  # arr still alive
    del arr
    assert ledger.released(upcoming_step=2) == 1


def test_ledger_finds_arrays_in_nested_structures():
    ledger = dataplane.ViewLedger()
    arr = np.zeros(BIG, dtype=np.uint8)
    obj = ("result", {"fields": [arr[:10], arr], "rc": 3})
    ledger.track(obj, [_lease_for(arr)], step=4)
    assert ledger.released(upcoming_step=5) == 3
    del obj, arr
    assert ledger.released(upcoming_step=6) == 5


def test_ledger_pins_on_unmatched_lease():
    """A leased buffer the walk can't see must freeze recycling forever
    (conservative: the arena then never rewrites that region)."""
    ledger = dataplane.ViewLedger()
    arr = np.zeros(BIG, dtype=np.uint8)

    class Opaque:  # hides the array from the structure walk
        def __init__(self, a):
            self.a = a

    ledger.track(("result", Opaque(arr)), [_lease_for(arr)], step=2)
    del arr
    assert ledger.released(upcoming_step=10) == 1
    assert ledger.released(upcoming_step=99) == 1


def test_ledger_cursor_is_monotone():
    ledger = dataplane.ViewLedger()
    a0 = np.zeros(BIG, dtype=np.uint8)
    ledger.track(("r", a0), [_lease_for(a0)], step=0)
    assert ledger.released(upcoming_step=3) == -1
    del a0
    assert ledger.released(upcoming_step=4) == 3
    assert ledger.released(upcoming_step=4) == 3  # never goes back


# -- copy-on-write helper ----------------------------------------------------


def test_materialize_copies_only_read_only_arrays():
    writable = np.arange(10)
    assert dataplane.materialize(writable) is writable
    frozen = np.arange(10)
    frozen.setflags(write=False)
    out = dataplane.materialize(frozen)
    assert out is not frozen
    assert out.flags.writeable
    np.testing.assert_array_equal(out, frozen)


# -- slot wire format --------------------------------------------------------


def test_slot_descriptor_roundtrip(prefix):
    slot = _Slot(prefix + "req0")
    arena = dataplane.SendArena(prefix + "dps0")
    cache = dataplane.SegmentCache()
    try:
        big = np.arange(BIG, dtype=np.uint8)
        small = np.arange(4, dtype=np.int64)
        slot.write(("coll", big, small), arena=arena)
        obj, leases = slot.read("view", cache)
        kind, rbig, rsmall = obj
        assert kind == "coll"
        np.testing.assert_array_equal(rbig, big)
        np.testing.assert_array_equal(rsmall, small)
        # the large buffer is a zero-copy read-only view with a lease;
        # the small one is a private writable copy
        assert not rbig.flags.writeable
        assert rsmall.flags.writeable
        assert len(leases) == 1
        # "own" mode copies everything out writable
        obj2, leases2 = slot.read("own", cache)
        assert obj2[1].flags.writeable
        assert leases2 == []
        del obj, rbig, rsmall, obj2, leases  # drop views before close
    finally:
        cache.close()
        arena.close()
        slot.unlink()


def test_slot_without_arena_inlines_everything(prefix):
    slot = _Slot(prefix + "req0")
    try:
        big = np.arange(4 * BIG, dtype=np.uint8)
        slot.write(("coll", big))  # control messages, exit fallback
        obj, leases = slot.read("own")
        np.testing.assert_array_equal(obj[1], big)
        assert obj[1].flags.writeable
        assert leases == []
    finally:
        slot.unlink()


# -- _sanitize_exc -----------------------------------------------------------


def test_sanitize_passes_picklable_exceptions_through():
    exc = ValueError("plain")
    assert _sanitize_exc(exc) is exc


def test_sanitize_preserves_args_and_traceback():
    def boom():
        raise RuntimeError("ctx", lambda: None)  # lambda: unpicklable

    try:
        boom()
    except RuntimeError as exc:
        out = _sanitize_exc(exc)
    assert isinstance(out, UnpicklableRankError)
    assert out.original_type == "RuntimeError"
    assert out.original_args[0] == "ctx"
    assert "lambda" in out.original_args[1]
    assert "boom" in out.original_traceback  # formatted traceback survives
    # the stand-in itself round-trips, attributes included
    back = pickle.loads(pickle.dumps(out))
    assert back.original_type == "RuntimeError"
    assert "boom" in back.original_traceback


def test_unpicklable_rank_exception_reaches_parent_with_context():
    def fail(comm):
        if comm.rank == 1:
            raise RuntimeError("details", lambda: None)
        comm.barrier()

    rt = create_runtime("procs", nprocs=2, meter_compute=False)
    with pytest.raises(Exception) as info:
        rt.run(fail)
    chain = []
    e = info.value
    while e is not None:
        chain.append(e)
        e = e.__cause__
    stand_in = next(
        (x for x in chain if getattr(x, "original_type", None)), None
    )
    assert stand_in is not None
    assert stand_in.original_type == "RuntimeError"
    assert stand_in.original_args[0] == "details"
    assert "fail" in stand_in.original_traceback


# -- end-to-end against the serial backend -----------------------------------


def _collective_program(comm):
    rng = np.random.default_rng(100 + comm.rank)
    big = rng.integers(0, 1 << 30, size=2 * BIG, dtype=np.int64)
    cts = np.full(comm.size, big.size // comm.size, dtype=np.int64)
    cts[-1] += big.size - int(cts.sum())
    recv, rc = comm.Alltoallv(big, cts)
    merged, counts = comm.Allgatherv(big[:BIG])
    root_val = comm.Bcast(big if comm.rank == 0 else
                          np.empty(big.size, dtype=np.int64))
    total = comm.Allreduce(np.arange(BIG, dtype=np.int64))
    return (int(recv.sum()), int(rc.sum()), int(merged.sum()),
            int(counts.sum()), int(root_val.sum()), int(total.sum()))


def test_procs_collectives_match_serial():
    rt = create_runtime("procs", nprocs=3, meter_compute=False)
    got = rt.run(_collective_program)
    ref = create_runtime("serial", nprocs=3, meter_compute=False).run(
        _collective_program
    )
    assert got == ref
    assert rt.last_shm_reclaimed == []


def test_shm_plane_delivers_views():
    def probe(comm):
        big = np.full(2 * BIG, comm.rank, dtype=np.int64)
        merged, _ = comm.Allgatherv(big)
        writable = bool(merged.flags.writeable)
        local = dataplane.materialize(merged)  # copy-on-write escape hatch
        local += 1  # must always be legal on the materialized copy
        return writable, int(local.sum())

    shm = create_runtime("procs", nprocs=2, meter_compute=False).run(probe)
    assert [w for w, _ in shm] == [False, False]  # zero-copy views
    assert [s for _, s in shm] == [2 * BIG * ((0 + 1) + (1 + 1))] * 2


def test_views_survive_across_supersteps():
    """A rank may hold a received view while later collectives recycle the
    arena; the release cursors must keep its memory intact."""
    def program(comm):
        first, _ = comm.Allgatherv(
            np.full(2 * BIG, 7 + comm.rank, dtype=np.int64)
        )
        keep = first  # hold the view across many further exchanges
        for i in range(20):
            buf = np.full(4 * BIG, i, dtype=np.int64)
            cts = np.full(comm.size, buf.size // comm.size, dtype=np.int64)
            cts[-1] += buf.size - int(cts.sum())
            comm.Alltoallv(buf, cts)
        return int(keep.sum())

    rt = create_runtime("procs", nprocs=2, meter_compute=False)
    got = rt.run(program)
    ref = create_runtime("serial", nprocs=2, meter_compute=False).run(program)
    assert got == ref


def test_multilevel_hierarchy_does_not_lease_the_result_arena():
    """The V-cycle's coarse levels come out of ``Allgatherv(then=)`` and
    live for the whole run.  Held as zero-copy views they would stop every
    later result segment from being recycled (33 MiB of arena on this
    input); copied out rank-side, the arena stays at the largest level in
    transit (10 MiB; 2 MiB before the hook existed)."""
    graph = generators.mesh3d(40, 40, 40)
    pattern = f"/dev/shm/simmpi{os.getpid()}x*dpr*"
    peak = [0]
    done = threading.Event()

    def poll():
        while not done.wait(0.005):
            total = 0
            for path in glob.glob(pattern):
                try:
                    total += os.path.getsize(path)
                except OSError:  # unlinked between glob and stat
                    pass
            peak[0] = max(peak[0], total)

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        result = xtrapulp(
            graph, 16, nprocs=4, backend="procs",
            params=PulpParams(seed=5, multilevel=True, ml_coarsen="hem"),
        )
    finally:
        done.set()
        poller.join(timeout=10)
    assert not poller.is_alive()
    assert result.multilevel.levels >= 4
    assert 0 < peak[0] < 16 << 20
