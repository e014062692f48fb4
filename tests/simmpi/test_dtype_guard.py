"""Cross-rank dtype consistency in Alltoallv (silent upcasts are bugs).

Zero-length contributions are dtype-exempt: a rank that injects no data
cannot cause an upcast, so an all-but-one-empty exchange must succeed even
when the idle ranks passed buffers of a different dtype — the regression
every backend is held to below.
"""

import numpy as np
import pytest

from repro.simmpi import run_spmd

BACKENDS = ("serial", "threads", "procs")

backends = pytest.mark.parametrize("backend", BACKENDS)


def test_alltoallv_dtype_mismatch_raises():
    def fn(comm):
        dtype = np.float64 if comm.rank == 0 else np.int64
        comm.Alltoallv(
            np.ones(comm.size, dtype=dtype),
            np.ones(comm.size, dtype=np.int64),
        )

    with pytest.raises(ValueError, match="dtype mismatch"):
        run_spmd(2, fn)


def test_alltoallv_consistent_dtype_ok():
    def fn(comm):
        recv, _ = comm.Alltoallv(
            np.full(comm.size, comm.rank, dtype=np.int32),
            np.ones(comm.size, dtype=np.int64),
        )
        return recv.dtype == np.int32

    out, _ = run_spmd(3, fn)
    assert all(out)


@backends
def test_alltoallv_empty_contributions_dtype_exempt(backend):
    """All-but-one-empty exchange: idle ranks contribute zero-length
    buffers of the *wrong* dtype; no data of theirs moves, so the exchange
    must succeed and deliver rank 0's payload in rank 0's dtype."""

    def fn(comm):
        if comm.rank == 0:
            buf = np.arange(3 * comm.size, dtype=np.float64)
            counts = np.full(comm.size, 3, dtype=np.int64)
        else:
            buf = np.empty(0, dtype=np.int64)  # differs from rank 0's
            counts = np.zeros(comm.size, dtype=np.int64)
        recv, rcounts = comm.Alltoallv(buf, counts)
        return recv.dtype, recv.copy(), rcounts.copy()

    out, _ = run_spmd(3, fn, backend=backend)
    for rank, (dtype, recv, rcounts) in enumerate(out):
        assert dtype == np.float64
        np.testing.assert_array_equal(
            recv, np.arange(3, dtype=np.float64) + 3 * rank
        )
        np.testing.assert_array_equal(rcounts, [3, 0, 0])


@backends
def test_alltoallv_all_empty_keeps_own_dtype(backend):
    def fn(comm):
        recv, _ = comm.Alltoallv(
            np.empty(0, dtype=np.uint16), np.zeros(comm.size, dtype=np.int64)
        )
        return recv.dtype == np.uint16 and recv.size == 0

    out, _ = run_spmd(2, fn, backend=backend)
    assert all(out)


@backends
def test_alltoallv_fields_empty_contributions_dtype_exempt(backend):
    def fn(comm):
        if comm.rank == comm.size - 1:
            slots = np.arange(comm.size, dtype=np.uint16)
            parts = np.full(comm.size, 7, dtype=np.int16)
            counts = np.ones(comm.size, dtype=np.int64)
        else:
            slots = np.empty(0, dtype=np.int64)  # wrong dtypes, but empty
            parts = np.empty(0, dtype=np.float32)
            counts = np.zeros(comm.size, dtype=np.int64)
        (rslots, rparts), rcounts = comm.Alltoallv_fields(
            (slots, parts), counts
        )
        return rslots.copy(), rparts.copy(), rcounts.copy()

    out, _ = run_spmd(3, fn, backend=backend)
    for rank, (rslots, rparts, rcounts) in enumerate(out):
        assert rslots.dtype == np.uint16 and rparts.dtype == np.int16
        np.testing.assert_array_equal(rslots, [rank])
        np.testing.assert_array_equal(rparts, [7])
        np.testing.assert_array_equal(rcounts, [0, 0, 1])


def test_alltoallv_fields_nonempty_dtype_mismatch_raises():
    def fn(comm):
        dtype = np.int16 if comm.rank == 0 else np.int32
        comm.Alltoallv_fields(
            (np.ones(comm.size, dtype=dtype),),
            np.ones(comm.size, dtype=np.int64),
        )

    with pytest.raises(ValueError, match="dtype mismatch"):
        run_spmd(2, fn)
