"""Generator rank bodies on every backend.

A rank body may be a generator function whose collectives are ``yield
from`` expressions (:mod:`repro.simmpi.stepping`).  On ``serial`` every rank
of such a body is stepped by one worker, the calling thread; on ``threads``
by one worker per usable CPU; on ``procs`` each rank drives its own
generator through the blocking collective.  The stepped form must be the
plain form: the same values and communication record, the same serial
schedule, the same misuse errors, and per-rank compute metering although
one thread runs many ranks.
"""

import re
import threading
import time

import numpy as np
import pytest

from repro.core import PulpParams, driver, xtrapulp
from repro.dist import connect_plan
from repro.graph import rmat
from repro.simmpi import (
    CollectiveMismatchError,
    DeadlockError,
    create_runtime,
    run_spmd,
)

from tests.simmpi.test_serial_schedule import NPROCS, SCHEDULE

BACKENDS = ("serial", "threads", "procs")
IN_PROCESS = ("serial", "threads")

backends = pytest.mark.parametrize("backend", BACKENDS)
in_process = pytest.mark.parametrize("backend", IN_PROCESS)


def _workout(comm):
    """Every collective family with rank-dependent data, plainly."""
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    cts = rng.integers(0, 5, size=size).astype(np.int64)
    cts[rank] = 0
    payload = np.arange(int(cts.sum()), dtype=np.int64) + 100 * rank
    recv, rcts = comm.Alltoallv(payload, cts)
    merged, mcts = comm.Allgatherv(np.full(rank, rank, dtype=np.int64))
    total = comm.allreduce(int(recv.sum()) + int(merged.sum()))
    red = comm.Allreduce(np.full(3, rank, dtype=np.float64), op="max")
    gathered = comm.allgather(rank * rank)
    top = int(comm.Bcast(np.array([total]), root=0)[0])
    comm.barrier()
    return (total, tuple(gathered), top, int(rcts.sum()),
            mcts.tolist(), red.tolist())


def _stepped_workout(comm):
    """:func:`_workout` as a generator body."""
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    cts = rng.integers(0, 5, size=size).astype(np.int64)
    cts[rank] = 0
    payload = np.arange(int(cts.sum()), dtype=np.int64) + 100 * rank
    recv, rcts = yield from comm.Alltoallv(payload, cts)
    merged, mcts = yield from comm.Allgatherv(
        np.full(rank, rank, dtype=np.int64))
    total = yield from comm.allreduce(int(recv.sum()) + int(merged.sum()))
    red = yield from comm.Allreduce(np.full(3, rank, dtype=np.float64),
                                    op="max")
    gathered = yield from comm.allgather(rank * rank)
    top = int((yield from comm.Bcast(np.array([total]), root=0))[0])
    yield from comm.barrier()
    return (total, tuple(gathered), top, int(rcts.sum()),
            mcts.tolist(), red.tolist())


@backends
@pytest.mark.parametrize("comm", ["flat", "hierarchical:2"])
def test_generator_body_is_the_plain_body(backend, comm):
    plain, plain_stats = run_spmd(6, _workout, backend=backend, comm=comm,
                                  meter_compute=False)
    stepped, stepped_stats = run_spmd(6, _stepped_workout, backend=backend,
                                      comm=comm, meter_compute=False)
    assert stepped == plain
    assert stepped_stats.signature() == plain_stats.signature()


@backends
def test_one_rank_generator_body(backend):
    out, stats = run_spmd(1, _stepped_workout, backend=backend)
    assert out == run_spmd(1, _workout, backend=backend)[0]
    assert stats.rounds == 8


def _six_collectives(comm, log):
    """``test_serial_schedule._six_collectives`` as a generator body."""
    r, n = comm.rank, comm.size
    calls = [
        (comm.barrier, ()),
        (comm.allreduce, (r,)),
        (comm.Allreduce, (np.arange(3) + r,)),
        (comm.Allgatherv, (np.full(r + 1, r),)),
        (comm.Alltoallv, (np.full(n, r), np.ones(n, dtype=np.int64))),
        (comm.Bcast, (np.array([r]), 2)),
    ]
    for step, (call, args) in enumerate(calls):
        log.append((r, "in", step))
        yield from call(*args)
        log.append((r, "out", step))


def test_stepped_serial_schedule_is_the_pinned_literal():
    rt = create_runtime("serial", nprocs=NPROCS)
    for _ in range(2):  # and again on the reused runtime
        log = []
        rt.run(_six_collectives, log)
        assert log == SCHEDULE
    assert rt.stats.saved_switches == 2 * 6
    assert rt.stats.rounds == 2 * 7


def test_xtrapulp_on_serial_runs_every_rank_on_the_callers_thread(
        monkeypatch):
    seen = {}
    real = driver.initialize

    def spy(comm, state, initial_parts=None):
        seen[comm.rank] = threading.get_ident()
        return real(comm, state, initial_parts)

    monkeypatch.setattr(driver, "initialize", spy)
    xtrapulp(rmat(8, 8, seed=1), 4, nprocs=6, backend="serial",
             params=PulpParams(seed=1))
    assert set(seen) == set(range(6))
    assert set(seen.values()) == {threading.get_ident()}


@backends
def test_generator_body_connects_an_exchange_plan(backend):
    """Connecting a plan is a collective, so a generator body gets its
    plan through ``yield from`` like any other."""
    def fn(comm):
        owned = np.arange(comm.rank, 12, comm.size)
        gids = np.setdiff1d(np.arange(12), owned)
        plan = yield from connect_plan(comm, gids, gids % comm.size,
                                       np.arange(gids.size), owned)
        copies = yield from plan.pull(comm, 10.0 * owned,
                                      np.zeros(gids.size))
        return copies.tolist() == (10.0 * gids).tolist()

    assert all(run_spmd(3, fn, backend=backend)[0])


# -- the three misuse errors, with the texts the plain bodies get -----------
# (a short nap makes the arrival order on ``threads`` the serial one)


@in_process
def test_mismatch_names_caller_and_deposited_ranks(backend):
    def fn(comm):
        if comm.rank == 2:
            time.sleep(0.3)
            yield from comm.allreduce(1)
        else:
            yield from comm.barrier()

    with pytest.raises(CollectiveMismatchError, match=re.escape(
            "rank 2 called 'allreduce' (tag '') while ranks 0, 1 already in "
            "'barrier' (tag '', superstep 0)")):
        run_spmd(3, fn, backend=backend)


@in_process
def test_deadlock_names_rank_entering_after_a_return(backend):
    def fn(comm):
        if comm.rank == 0:
            return
        time.sleep(0.3)
        yield from comm.barrier()

    with pytest.raises(DeadlockError, match=re.escape(
            "rank 1 entered collective 'barrier' (tag '', superstep 0) but "
            "1 rank(s) already returned")):
        run_spmd(2, fn, backend=backend)


@in_process
def test_deadlock_names_ranks_stuck_after_a_return(backend):
    def fn(comm):
        if comm.rank == 2:
            time.sleep(0.3)
            return
        yield from comm.barrier()

    with pytest.raises(DeadlockError, match=re.escape(
            "2 rank(s) (ranks 0, 1) stuck in collective 'barrier' (tag '', "
            "superstep 0) after other ranks returned")):
        run_spmd(3, fn, backend=backend)


@in_process
def test_a_raising_rank_closes_its_peers(backend):
    closed = []

    def fn(comm):
        try:
            yield from comm.barrier()
            if comm.rank == 1:
                raise RuntimeError("boom on rank 1")
            yield from comm.barrier()
        finally:
            closed.append(comm.rank)

    with pytest.raises(RuntimeError, match="boom on rank 1"):
        run_spmd(4, fn, backend=backend)
    assert sorted(closed) == [0, 1, 2, 3]


@backends
def test_plain_body_returning_a_generator_is_a_type_error(backend):
    def body(comm):
        yield from comm.barrier()

    with pytest.raises(TypeError, match="returned a generator"):
        run_spmd(3, lambda comm: body(comm), backend=backend)


@in_process
def test_compute_is_billed_per_rank_on_one_thread(backend):
    """With every rank on one thread, a rank is billed the thread time
    since *it* resumed, not since anyone left the last collective."""
    def fn(comm):
        yield from comm.barrier()
        if comm.rank == 0:
            t0 = time.thread_time()
            while time.thread_time() - t0 < 0.05:
                pass
        yield from comm.barrier()

    _, stats = run_spmd(4, fn, backend=backend, meter_compute=True)
    spun = stats.events[1].compute_seconds
    assert spun[0] >= 0.04
    assert (spun[1:] < 0.01).all()
