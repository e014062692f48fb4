"""Byte-accounting conventions and CommStats aggregation."""

import numpy as np

from repro.simmpi import CommStats, CollectiveEvent, run_spmd
from repro.simmpi.metrics import CollectiveEvent as CE


def _event(op="barrier", tag="", nbytes=(0, 0), compute=(0.0, 0.0)):
    return CE(
        op=op,
        tag=tag,
        bytes_sent=np.array(nbytes, dtype=np.int64),
        compute_seconds=np.array(compute, dtype=np.float64),
        work_units=np.zeros(len(nbytes)),
    )


def test_event_properties():
    e = _event(nbytes=(10, 30), compute=(0.5, 0.2))
    assert e.total_bytes == 40
    assert e.max_bytes == 30
    assert e.max_compute == 0.5


def test_stats_aggregation():
    s = CommStats(2)
    s.record(_event(op="bcast", tag="a", nbytes=(8, 0)))
    s.record(_event(op="alltoallv", tag="b", nbytes=(16, 24)))
    s.record(_event(op="bcast", tag="a", nbytes=(4, 0)))
    assert s.rounds == 3
    assert s.total_bytes == 52
    assert s.bytes_by_op() == {"bcast": 12, "alltoallv": 40}
    assert s.rounds_by_op() == {"bcast": 2, "alltoallv": 1}
    assert s.bytes_by_tag() == {"a": 12, "b": 40}
    np.testing.assert_array_equal(s.per_rank_bytes(), [28, 24])


def test_filtered_view():
    s = CommStats(2)
    s.record(_event(tag="keep", nbytes=(8, 8)))
    s.record(_event(tag="drop", nbytes=(100, 100)))
    sub = s.filtered(["keep"])
    assert sub.total_bytes == 16
    assert s.total_bytes == 216  # original untouched


def test_bcast_bytes_charged_to_root_only():
    def fn(comm):
        arr = np.zeros(100, dtype=np.float64) if comm.rank == 1 else np.empty(100)
        comm.Bcast(arr, root=1)

    _, stats = run_spmd(3, fn)
    (event,) = stats.events
    np.testing.assert_array_equal(event.bytes_sent, [0, 800, 0])


def test_alltoall_excludes_self_slot():
    def fn(comm):
        comm.Alltoallv(np.zeros(comm.size, dtype=np.int64),
                       np.ones(comm.size, dtype=np.int64))

    _, stats = run_spmd(4, fn)
    header, payload = stats.events
    assert header.op == "alltoall"
    # the count header: 4 int64 slots of 8 bytes each, minus the self slot
    np.testing.assert_array_equal(header.bytes_sent, [24] * 4)
    np.testing.assert_array_equal(payload.bytes_sent, [24] * 4)


def test_alltoallv_offrank_bytes_exact():
    def fn(comm):
        # send 2 items to every rank including self
        counts = np.full(comm.size, 2, dtype=np.int64)
        buf = np.zeros(2 * comm.size, dtype=np.int64)
        comm.Alltoallv(buf, counts)

    _, stats = run_spmd(3, fn)
    counts_event, payload_event = stats.events
    assert counts_event.op == "alltoall"
    assert payload_event.op == "alltoallv"
    # 6 items * 8 bytes minus self-directed 2 * 8
    np.testing.assert_array_equal(payload_event.bytes_sent, [32] * 3)


def test_barrier_is_free():
    def fn(comm):
        comm.barrier()

    _, stats = run_spmd(4, fn)
    assert stats.total_bytes == 0


def test_summary_smoke():
    _, stats = run_spmd(2, lambda comm: comm.allreduce(1))
    text = stats.summary()
    assert "allreduce" in text and "rounds" in text
