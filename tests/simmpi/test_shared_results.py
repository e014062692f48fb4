"""Shared read-only collective results (the thousands-of-ranks engine).

The in-process backends (serial/threads) hand every rank the *same* sealed
(read-only) result array — O(P) result bytes per collective instead of
O(P^2) per-rank copies — while the procs backend's rank endpoints, whose
results already cross a process boundary, deliver private writable ones.
These tests pin the contract: sealed results that refuse in-place
mutation, :func:`materialize` as the copy-on-write escape hatch, and
identical values and communication records on both sides.
"""

import numpy as np
import pytest

from repro.simmpi import materialize, run_spmd

BACKENDS = ("serial", "threads", "procs")
INPROC = ("serial", "threads")

backends = pytest.mark.parametrize("backend", BACKENDS)
inproc = pytest.mark.parametrize("backend", INPROC)


# -- sealing and identity of the result objects ------------------------------

def _inspect_allreduce(comm):
    arr = np.full(8, comm.rank, dtype=np.int64)
    total = comm.Allreduce(arr, op="sum")
    return id(total), bool(total.flags.writeable), total.tolist()


@inproc
def test_allreduce_shared_hands_one_sealed_array(backend):
    out, _ = run_spmd(4, _inspect_allreduce, backend=backend)
    ids = {i for i, _, _ in out}
    assert len(ids) == 1  # literally the same object on every rank
    assert all(not writable for _, writable, _ in out)
    expect = [0 + 1 + 2 + 3] * 8
    assert all(vals == expect for _, _, vals in out)


@inproc
def test_sealed_result_refuses_inplace_mutation(backend):
    def fn(comm):
        total = comm.Allreduce(np.ones(4, dtype=np.int64))
        try:
            total += 1
        except ValueError:
            return "sealed"
        return "mutable"

    out, _ = run_spmd(2, fn, backend=backend)
    assert out == ["sealed", "sealed"]


@inproc
def test_materialize_gives_private_writable_copy(backend):
    def fn(comm):
        total = materialize(comm.Allreduce(np.ones(4, dtype=np.int64)))
        total += comm.rank  # must not raise, must not leak to peers
        peek, _ = comm.Allgatherv(total[:1])
        return tuple(peek.tolist())

    out, _ = run_spmd(3, fn, backend=backend)
    assert out == [(3, 4, 5)] * 3


@inproc
def test_allgatherv_shared_result_is_one_sealed_array(backend):
    def fn(comm):
        arr = np.full(comm.rank + 1, comm.rank, dtype=np.int64)
        merged, counts = comm.Allgatherv(arr)
        return (id(merged), bool(merged.flags.writeable),
                merged.tolist(), counts.tolist())

    out, _ = run_spmd(3, fn, backend=backend)
    assert len({i for i, _, _, _ in out}) == 1
    for _, writable, vals, counts in out:
        assert not writable
        assert vals == [0, 1, 1, 2, 2, 2]
        assert counts == [1, 2, 3]


@inproc
def test_alltoallv_shared_rows_are_sealed_and_correct(backend):
    def fn(comm):
        size = comm.size
        # rank r sends r*10 + dst to every dst, one item each
        payload = comm.rank * 10 + np.arange(size, dtype=np.int64)
        cts = np.ones(size, dtype=np.int64)
        cts[comm.rank] = 0
        payload = payload[np.arange(size) != comm.rank]
        recv, rcts = comm.Alltoallv(payload, cts)
        return bool(recv.flags.writeable), recv.tolist(), rcts.tolist()

    out, _ = run_spmd(3, fn, backend=backend)
    for rank, (writable, vals, rcts) in enumerate(out):
        assert not writable
        expect = [src * 10 + rank for src in range(3) if src != rank]
        assert vals == expect
        assert rcts == [0 if src == rank else 1 for src in range(3)]


def _idle_exchange(comm):
    """An Alltoallv_fields with no records anywhere (most exchanges at
    high rank counts): what each rank receives per field."""
    planes = [np.empty(0, dtype=np.uint16), np.empty(0, dtype=np.int8)]
    recv, rcts = comm.Alltoallv_fields(planes, np.zeros(comm.size, np.int64))
    return ([(id(f), bool(f.flags.writeable), f.dtype, f.size) for f in recv],
            rcts.tolist())


@backends
def test_all_idle_exchange_hands_one_empty_plane_per_field(backend):
    out, _ = run_spmd(4, _idle_exchange, backend=backend)
    planes = [p for p, _ in out]
    assert all(rcts == [0] * 4 for _, rcts in out)
    for field, dtype in enumerate((np.uint16, np.int8)):
        assert {p[field][2:] for p in planes} == {(np.dtype(dtype), 0)}
        ids = {p[field][0] for p in planes}
        writable = {p[field][1] for p in planes}
        if backend == "procs":
            assert writable == {True}  # each rank's own copy
        else:
            assert len(ids) == 1 and writable == {False}
    if backend != "procs":
        assert planes[0][0][0] != planes[0][1][0]  # one plane per field


@backends
def test_procs_results_stay_writable_under_shared(backend):
    """Results crossing the process boundary must never arrive sealed
    (numpy pickling preserves the read-only flag, so sealing would leak
    through)."""
    if backend != "procs":
        pytest.skip("procs-only contract")

    def fn(comm):
        total = comm.Allreduce(np.ones(4, dtype=np.int64))
        total += 1  # must be writable in every mode
        return int(total[0])

    out, _ = run_spmd(2, fn, backend=backend)
    assert out == [3, 3]


# -- bit-identity: shared (in-process) vs private copies (procs) -------------

def _workout(comm):
    """Touch every collective family with rank-dependent data."""
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    cts = rng.integers(0, 5, size=size).astype(np.int64)
    cts[rank] = 0
    payload = np.arange(int(cts.sum()), dtype=np.int64) + 100 * rank
    recv, rcts = comm.Alltoallv(payload, cts)
    merged, mcts = comm.Allgatherv(np.full(rank, rank, dtype=np.int64))
    total = int(comm.Allreduce(np.array([recv.sum() + merged.sum()]))[0])
    red = comm.Allreduce(np.full(3, rank, dtype=np.float64), op="max")
    gathered, _ = comm.Allgatherv(np.array([rank * rank]))
    top = int(comm.Allreduce(np.array([total]), op="max")[0])
    return (total, tuple(gathered.tolist()), top, int(rcts.sum()),
            mcts.tolist(), red.tolist())


@inproc
def test_shared_vs_copy_bit_identical(backend):
    out_s, st_s = run_spmd(8, _workout, backend=backend)
    out_c, st_c = run_spmd(8, _workout, backend="procs")
    assert out_s == out_c
    assert st_s.signature() == st_c.signature()
