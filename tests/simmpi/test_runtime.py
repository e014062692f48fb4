"""Runtime semantics: error propagation, deadlock detection, determinism."""

import re
import time

import numpy as np
import pytest

from repro.simmpi import (
    CollectiveMismatchError,
    DeadlockError,
    create_runtime,
    run_spmd,
)


def test_single_rank_runs_inline():
    def fn(comm):
        assert comm.size == 1 and comm.rank == 0
        comm.barrier()
        return int(comm.Allreduce(np.array([5]))[0])

    out, stats = run_spmd(1, fn)
    assert out == [5]
    assert stats.rounds == 2


def test_shared_args_and_kwargs():
    def fn(comm, a, b=0):
        return a + b + comm.rank

    out, _ = run_spmd(2, fn, 5, b=7)
    assert out == [12, 13]


def test_exception_propagates_to_caller():
    def fn(comm):
        if comm.rank == 1:
            raise RuntimeError("boom on rank 1")
        comm.barrier()

    with pytest.raises(RuntimeError, match="boom on rank 1"):
        run_spmd(3, fn)


def test_exception_before_any_collective():
    def fn(comm):
        raise ValueError("instant failure")

    with pytest.raises(ValueError, match="instant failure"):
        run_spmd(2, fn)


def test_collective_mismatch_detected():
    def fn(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.Allreduce(np.ones(1))

    with pytest.raises(CollectiveMismatchError):
        run_spmd(2, fn)


def test_deadlock_when_one_rank_returns_early():
    def fn(comm):
        if comm.rank == 0:
            return "done early"
        comm.barrier()

    with pytest.raises(DeadlockError):
        run_spmd(2, fn)


def test_deadlock_when_rank_enters_extra_collective():
    def fn(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.barrier()  # others never join

    with pytest.raises(DeadlockError):
        run_spmd(3, fn)


# The three misuse errors of the in-process rendezvous, with the rank lists
# they name.  Plain bodies run on rank threads on both backends; a short nap
# fixes the arrival order the texts name.
_IN_PROCESS = pytest.mark.parametrize("backend", ["serial", "threads"])


@_IN_PROCESS
def test_mismatch_names_caller_and_deposited_ranks(backend):
    def fn(comm):
        if comm.rank == 2:
            time.sleep(0.3)
            comm.Allreduce(np.ones(1))
        else:
            comm.barrier()

    with pytest.raises(CollectiveMismatchError, match=re.escape(
            "rank 2 called 'allreduce' (tag '') while ranks 0, 1 already in "
            "'barrier' (tag '', superstep 0)")):
        run_spmd(3, fn, backend=backend)


@_IN_PROCESS
def test_deadlock_names_rank_entering_after_a_return(backend):
    def fn(comm):
        if comm.rank == 0:
            return
        time.sleep(0.3)
        comm.barrier()

    with pytest.raises(DeadlockError, match=re.escape(
            "rank 1 entered collective 'barrier' (tag '', superstep 0) but "
            "1 rank(s) already returned")):
        run_spmd(2, fn, backend=backend)


@_IN_PROCESS
def test_deadlock_names_ranks_stuck_after_a_return(backend):
    def fn(comm):
        if comm.rank == 2:
            time.sleep(0.3)
            return
        comm.barrier()

    with pytest.raises(DeadlockError, match=re.escape(
            "2 rank(s) (ranks 0, 1) stuck in collective 'barrier' (tag '', "
            "superstep 0) after other ranks returned")):
        run_spmd(3, fn, backend=backend)


def test_deterministic_results_across_runs():
    def fn(comm):
        rng = np.random.default_rng(comm.rank)
        local = rng.random(100)
        total = comm.Allreduce(local, op="sum")
        merged, _ = comm.Allgatherv(local)
        return float(total.sum()), float(merged.sum())

    first, _ = run_spmd(4, fn)
    second, _ = run_spmd(4, fn)
    assert first == second


def test_runtime_reusable_after_success():
    rt = create_runtime("threads", nprocs=2)
    out1 = rt.run(lambda comm: comm.Allreduce(np.array([1])).tolist())
    out2 = rt.run(lambda comm: comm.Allreduce(np.array([2])).tolist())
    assert out1 == [[2], [2]] and out2 == [[4], [4]]
    assert rt.stats.rounds == 2  # stats accumulate across runs


def test_invalid_nprocs_rejected():
    with pytest.raises(ValueError):
        create_runtime("threads", nprocs=0)


def test_many_ranks():
    def fn(comm):
        return int(comm.Allreduce(np.array([comm.rank]), op="sum")[0])

    out, _ = run_spmd(32, fn)
    assert out == [sum(range(32))] * 32


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
def test_create_runtime_sets_compute_metering_on_instances(backend):
    """``meter_compute`` follows the rule of ``comm`` and ``watchdog``: a
    value is set on the runtime, new or given, and None leaves it be."""
    def fn(comm):
        if comm.rank == 0:
            t0 = time.thread_time()
            while time.thread_time() - t0 < 0.05:
                pass
        comm.barrier()

    rt = create_runtime(backend, nprocs=2, meter_compute=False)
    try:
        assert create_runtime(rt, nprocs=2, meter_compute=True) is rt
        assert rt.meter_compute
        assert create_runtime(rt, nprocs=2).meter_compute
        rt.run(fn)
    finally:
        rt.close()
    spun = rt.stats.events[0].compute_seconds
    assert spun[0] >= 0.04 and spun[1] < 0.04
    assert not create_runtime(backend, nprocs=2).meter_compute


def test_compute_metering_disabled():
    def fn(comm):
        comm.barrier()

    _, stats = run_spmd(2, fn)
    assert stats.events[0].compute_seconds.sum() == 0.0
