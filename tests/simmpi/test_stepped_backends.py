"""Generator rank bodies on every backend.

A rank body may be a generator function whose collectives are ``yield
from`` expressions (:mod:`repro.simmpi.stepping`).  On ``serial`` every rank
of such a body is stepped by one worker (the calling thread, or, under a
watchdog, a thread it supervises); on ``threads`` by one worker per usable
CPU; on ``procs`` each rank drives its own
generator through the blocking collective.  The stepped form must be the
plain form: the same values and communication record, the same serial
schedule, the same misuse errors, and per-rank compute metering although
one thread runs many ranks.

``serial`` also pins the order in which it steps the ranks, as a literal:
the goldens see what a run computes and meters, not that order.  Deposits
rotate round robin, the last depositor executes the collective and keeps
running (executor-continue), and the executor of superstep ``s`` deposits
first at superstep ``s + 1``.
"""

import re
import threading
import time

import numpy as np
import pytest

from repro import analytics
from repro.core import PulpParams, driver, xtrapulp
from repro.dist import connect_plan
from repro.graph import rmat, webcrawl
from repro.graph.builders import symmetrize
from repro.simmpi import (
    CollectiveMismatchError,
    DeadlockError,
    create_runtime,
    run_spmd,
)
from repro.simmpi.backends.engine import InProcessBackend
from repro.spmv import run_spmv

BACKENDS = ("serial", "threads", "procs")
IN_PROCESS = ("serial", "threads")

backends = pytest.mark.parametrize("backend", BACKENDS)
in_process = pytest.mark.parametrize("backend", IN_PROCESS)

NPROCS = 5

# (rank, "in" | "out", step) around every collective call, in the order the
# ranks appended them
SCHEDULE = [
    (0, 'in', 0), (1, 'in', 0), (2, 'in', 0), (3, 'in', 0), (4, 'in', 0),
    (4, 'out', 0), (4, 'in', 1), (0, 'out', 0), (0, 'in', 1), (1, 'out', 0),
    (1, 'in', 1), (2, 'out', 0), (2, 'in', 1), (3, 'out', 0), (3, 'in', 1),
    (3, 'out', 1), (3, 'in', 2), (4, 'out', 1), (4, 'in', 2), (0, 'out', 1),
    (0, 'in', 2), (1, 'out', 1), (1, 'in', 2), (2, 'out', 1), (2, 'in', 2),
    (2, 'out', 2), (2, 'in', 3), (3, 'out', 2), (3, 'in', 3), (4, 'out', 2),
    (4, 'in', 3), (0, 'out', 2), (0, 'in', 3), (1, 'out', 2), (1, 'in', 3),
    (1, 'out', 3), (1, 'in', 4), (2, 'out', 3), (2, 'in', 4), (3, 'out', 3),
    (3, 'in', 4), (4, 'out', 3), (4, 'in', 4), (0, 'out', 3), (0, 'in', 4),
    (0, 'out', 4), (1, 'out', 4), (2, 'out', 4), (3, 'out', 4), (4, 'out', 4),
]


def _workout(comm):
    """Every collective family with rank-dependent data, plainly."""
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
    comm.barrier()
    return (total, tuple(gathered.tolist()), top, int(rcts.sum()),
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
    total = int((yield from comm.Allreduce(
        np.array([recv.sum() + merged.sum()])))[0])
    red = yield from comm.Allreduce(np.full(3, rank, dtype=np.float64),
                                    op="max")
    gathered, _ = yield from comm.Allgatherv(np.array([rank * rank]))
    top = int((yield from comm.Allreduce(np.array([total]),
                                          op="max"))[0])
    yield from comm.barrier()
    return (total, tuple(gathered.tolist()), top, int(rcts.sum()),
            mcts.tolist(), red.tolist())


@backends
@pytest.mark.parametrize("comm", ["flat", "hierarchical:2"])
def test_generator_body_is_the_plain_body(backend, comm):
    plain, plain_stats = run_spmd(6, _workout, backend=backend, comm=comm)
    stepped, stepped_stats = run_spmd(6, _stepped_workout, backend=backend,
                                      comm=comm)
    assert stepped == plain
    assert stepped_stats.signature() == plain_stats.signature()


@backends
def test_one_rank_generator_body(backend):
    out, stats = run_spmd(1, _stepped_workout, backend=backend)
    assert out == run_spmd(1, _workout, backend=backend)[0]
    assert stats.rounds == 7


def _five_collectives(comm, log):
    """The five collectives, logged around every call."""
    r, n = comm.rank, comm.size
    calls = [
        (comm.barrier, ()),
        (comm.Allreduce, (np.arange(3) + r,)),
        (comm.Allgatherv, (np.full(r + 1, r),)),
        (comm.Alltoallv, (np.full(n, r), np.ones(n, dtype=np.int64))),
        (comm.Alltoallv_fields, ((np.full(n, r), np.zeros(n, np.int32)),
                                 np.ones(n, dtype=np.int64))),
    ]
    for step, (call, args) in enumerate(calls):
        log.append((r, "in", step))
        yield from call(*args)
        log.append((r, "out", step))


def test_stepped_serial_schedule_is_the_pinned_literal():
    log = []
    rt = create_runtime("serial", nprocs=NPROCS)
    rt.run(_five_collectives, log)
    assert log == SCHEDULE
    # one metered round per rendezvous, the Alltoallv's included
    assert rt.stats.rounds == 5


def test_watched_serial_schedule_is_the_pinned_literal():
    """An armed watchdog only adds a supervisor: the one worker steps the
    ranks in the same order."""
    log = []
    rt = create_runtime("serial", nprocs=NPROCS, watchdog=60)
    rt.run(_five_collectives, log)
    assert log == SCHEDULE
    assert rt.stats.rounds == 5


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


@in_process
def test_shipped_rank_bodies_never_run_on_rank_threads(backend, monkeypatch):
    """Every rank body ``src/`` ships is a generator body, so a run of the
    partitioner, watched or not, either SpMV layout or any of the six
    analytics is stepped: a plain body coming back would reach
    ``_run_threads``."""
    def rank_threads(*args, **kwargs):
        raise AssertionError("a shipped rank body ran on rank threads")

    monkeypatch.setattr(InProcessBackend, "_run_threads", rank_threads)
    g = rmat(7, 8, seed=1)
    parts = xtrapulp(g, 3, nprocs=3, backend=backend,
                     params=PulpParams(seed=1)).parts
    watched = xtrapulp(g, 3, nprocs=3, backend=backend,
                       params=PulpParams(seed=1), watchdog=60).parts
    assert np.array_equal(watched, parts)
    for layout in ("1d", "2d"):
        run_spmv(g, parts, layout=layout, nprocs=3, iters=1, backend=backend)
    gd = webcrawl(128, 6, seed=9, directed=True)
    for kernel, graph, kwargs in (
        (analytics.harmonic_centrality, g, {"num_sources": 2}),
        (analytics.kcore_decomposition, g, {}),
        (analytics.label_propagation_communities, g, {}),
        (analytics.pagerank, g, {}),
        (analytics.largest_scc, symmetrize(gd), {"directed": gd}),
        (analytics.weakly_connected_components, g, {}),
    ):
        analytics.run_analytic(graph, kernel, nprocs=3, backend=backend,
                               **kwargs)


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
            yield from comm.Allreduce(np.ones(1))
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

    rt = create_runtime(backend, nprocs=4, meter_compute=True)
    try:
        rt.run(fn)
    finally:
        rt.close()
    spun = rt.stats.events[1].compute_seconds
    assert spun[0] >= 0.04
    assert (spun[1:] < 0.01).all()
