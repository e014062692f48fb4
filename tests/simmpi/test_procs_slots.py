"""The procs backend's rendezvous slots: every payload travels inside them.

Covers the slot wire format in isolation (copy-out and borrowed reads),
the ``_sanitize_exc`` stand-in contract, the copy-on-write helper, small
end-to-end collective programs checked against the serial backend, and a
census of the shared memory a live run creates: slots and nothing else.
"""

import glob
import os
import pickle
import re
import threading

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.graph import generators
from repro.simmpi import materialize
from repro.simmpi.backends import create_runtime
from repro.simmpi.backends.procs import _Slot, _sanitize_exc, _sweep_shm
from repro.simmpi.errors import UnpicklableRankError

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)

BIG = 4096  # int64 words: payloads well past one memory page


@pytest.fixture
def prefix():
    """A unique slot name prefix, swept clean afterwards."""
    name = f"simmpi0xslottest{os.getpid()}"
    yield name
    _sweep_shm(name)


# -- slot wire format --------------------------------------------------------


def test_slot_roundtrip_copies_out(prefix):
    slot = _Slot(prefix + "req0")
    try:
        big = np.arange(BIG, dtype=np.int64)
        small = np.arange(4, dtype=np.int32)
        slot.write(("coll", big, small))
        kind, rbig, rsmall = slot.read()
        assert kind == "coll"
        np.testing.assert_array_equal(rbig, big)
        np.testing.assert_array_equal(rsmall, small)
        assert rbig.flags.writeable and rsmall.flags.writeable
    finally:
        slot.unlink()


def test_slot_borrowed_read_sees_next_write(prefix):
    slot = _Slot(prefix + "req0")
    try:
        big = np.arange(BIG, dtype=np.int64)
        small = np.arange(4, dtype=np.int32)
        slot.write(("coll", big, small))
        rbig = slot.read()[1]
        lent = slot.read(borrow=True)
        np.testing.assert_array_equal(lent[1], big)
        # the next write lands in the same segment: the borrowed window
        # sees it, the copied-out arrays do not
        slot.write(("coll", big + 1, small))
        np.testing.assert_array_equal(lent[1], big + 1)
        np.testing.assert_array_equal(rbig, big)
        del lent  # drop the windows before the segment closes
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

    rt = create_runtime("procs", nprocs=2)
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


# -- copy-on-write helper ----------------------------------------------------


def test_materialize_copies_only_read_only_arrays():
    writable = np.arange(10)
    assert materialize(writable) is writable
    frozen = np.arange(10)
    frozen.setflags(write=False)
    out = materialize(frozen)
    assert out is not frozen
    assert out.flags.writeable
    np.testing.assert_array_equal(out, frozen)


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
    rt = create_runtime("procs", nprocs=3)
    got = rt.run(_collective_program)
    ref = create_runtime("serial", nprocs=3).run(
        _collective_program
    )
    assert got == ref
    assert rt.last_shm_reclaimed == []


def test_results_survive_across_supersteps():
    """A rank may hold a received result while 20 later collectives
    rewrite every slot; what it holds is its own copy."""
    def program(comm):
        first, _ = comm.Allgatherv(
            np.full(2 * BIG, 7 + comm.rank, dtype=np.int64)
        )
        keep = first  # hold the result across many further exchanges
        for i in range(20):
            buf = np.full(4 * BIG, i, dtype=np.int64)
            cts = np.full(comm.size, buf.size // comm.size, dtype=np.int64)
            cts[-1] += buf.size - int(cts.sum())
            comm.Alltoallv(buf, cts)
        return int(keep.sum())

    rt = create_runtime("procs", nprocs=2)
    got = rt.run(program)
    ref = create_runtime("serial", nprocs=2).run(program)
    assert got == ref


# -- census: shared memory has one owner -------------------------------------

#: a request, response or failure slot generation under a session prefix
_SLOT_NAME = re.compile(r"simmpi\d+x[0-9a-f]{6}(req\d+|rsp\d+|fail)g\d+")


def test_live_run_shared_memory_is_slots_only():
    """Poll ``/dev/shm`` during a 4-procs multilevel run, whose coarse
    levels and exchanges carry payloads of megabytes: every segment under
    the session prefix is a slot generation — nothing else creates
    shared memory."""
    graph = generators.mesh3d(40, 40, 40)
    pattern = f"/dev/shm/simmpi{os.getpid()}x*"
    seen = set()
    done = threading.Event()

    def poll():
        while not done.wait(0.005):
            seen.update(os.path.basename(p) for p in glob.glob(pattern))

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
    assert seen, "the poller saw no segment of the live run"
    strays = sorted(n for n in seen if not _SLOT_NAME.fullmatch(n))
    assert not strays, f"shared memory that is not a slot: {strays}"
