"""Collective edge cases and misuse diagnostics."""

import numpy as np
import pytest

from repro.simmpi import create_runtime, run_spmd
from repro.simmpi.errors import CollectiveMismatchError


def test_allgatherv_requires_1d():
    def fn(comm):
        comm.Allgatherv(np.zeros((2, 2)))

    with pytest.raises(ValueError, match="1-D"):
        run_spmd(2, fn)


def test_alltoall_requires_leading_dim():
    # one send count per rank, no more
    def fn(comm):
        comm.Alltoallv(np.zeros(comm.size + 1),
                       np.ones(comm.size + 1, dtype=np.int64))

    with pytest.raises(ValueError, match=r"sendcounts must have shape \(2,\)"):
        run_spmd(2, fn)


def test_mismatch_error_names_both_ops():
    def fn(comm):
        if comm.rank == 0:
            comm.Allreduce(np.ones(1))
        else:
            comm.barrier()

    with pytest.raises(CollectiveMismatchError) as err:
        run_spmd(2, fn)
    msg = str(err.value)
    assert "allreduce" in msg and "barrier" in msg


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


def test_stats_accumulate_across_runs_of_same_runtime():
    rt = create_runtime("threads", nprocs=2)
    rt.run(lambda comm: comm.barrier())
    first = rt.stats.rounds
    rt.run(lambda comm: comm.barrier())
    assert rt.stats.rounds == first + 1
