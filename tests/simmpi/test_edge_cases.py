"""Collective edge cases and misuse diagnostics."""

import numpy as np
import pytest

from repro.simmpi import create_runtime, run_spmd
from repro.simmpi.errors import CollectiveMismatchError


def test_scatter_validates_item_count():
    def fn(comm):
        objs = [1] if comm.rank == 0 else None  # wrong length at root
        return comm.scatter(objs, root=0)

    with pytest.raises(ValueError, match="exactly"):
        run_spmd(2, fn)


def test_scatterv_validates_counts_sum():
    def fn(comm):
        if comm.rank == 0:
            return comm.Scatterv(np.arange(5.0), np.array([1, 1]), root=0)
        return comm.Scatterv(None, None, root=0)

    with pytest.raises(ValueError, match="sum"):
        run_spmd(2, fn)


def test_scatterv_requires_payload_at_root():
    def fn(comm):
        return comm.Scatterv(None, None, root=0)

    with pytest.raises(ValueError, match="root"):
        run_spmd(2, fn)


def test_allgatherv_requires_1d():
    def fn(comm):
        comm.Allgatherv(np.zeros((2, 2)))

    with pytest.raises(ValueError, match="1-D"):
        run_spmd(2, fn)


def test_alltoall_requires_leading_dim():
    def fn(comm):
        comm.Alltoall(np.zeros(comm.size + 1))

    with pytest.raises(ValueError, match="leading dim"):
        run_spmd(2, fn)


def test_mismatch_error_names_both_ops():
    def fn(comm):
        if comm.rank == 0:
            comm.allreduce(1)
        else:
            comm.barrier()

    with pytest.raises(CollectiveMismatchError) as err:
        run_spmd(2, fn)
    msg = str(err.value)
    assert "allreduce" in msg and "barrier" in msg


def test_nonroot_gather_returns_none_and_bytes_charged_to_senders():
    def fn(comm):
        return comm.gather({"rank": comm.rank}, root=1)

    out, stats = run_spmd(3, fn)
    assert out[0] is None and out[2] is None
    assert out[1] == [{"rank": r} for r in range(3)]
    (event,) = stats.events
    assert event.bytes_sent[1] == 0  # root sends nothing
    assert event.bytes_sent[0] > 0 and event.bytes_sent[2] > 0


def test_empty_alltoallv():
    def fn(comm):
        recv, counts = comm.Alltoallv(
            np.empty(0, dtype=np.int64), np.zeros(comm.size, dtype=np.int64)
        )
        return recv.size, counts.sum()

    out, _ = run_spmd(3, fn)
    assert out == [(0, 0)] * 3


def test_mixed_dtypes_across_alltoallv_calls():
    def fn(comm):
        a, _ = comm.Alltoallv(
            np.ones(comm.size, dtype=np.float64),
            np.ones(comm.size, dtype=np.int64),
        )
        b, _ = comm.Alltoallv(
            np.ones(comm.size, dtype=np.int32),
            np.ones(comm.size, dtype=np.int64),
        )
        return a.dtype.kind, b.dtype.kind

    out, _ = run_spmd(2, fn)
    assert out == [("f", "i")] * 2


def test_reduce_ops_min_max():
    def fn(comm):
        lo = comm.Reduce(np.array([comm.rank]), op="min", root=0)
        hi = comm.Reduce(np.array([comm.rank]), op="max", root=0)
        return lo, hi

    out, _ = run_spmd(4, fn)
    np.testing.assert_array_equal(out[0][0], [0])
    np.testing.assert_array_equal(out[0][1], [3])


def test_stats_accumulate_across_runs_of_same_runtime():
    rt = create_runtime("threads", nprocs=2)
    rt.run(lambda comm: comm.barrier())
    first = rt.stats.rounds
    rt.run(lambda comm: comm.barrier())
    assert rt.stats.rounds == first + 1
