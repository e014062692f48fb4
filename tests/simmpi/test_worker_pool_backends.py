"""Generator ranks stepped on a worker pool.

On ``threads`` an unwatched generator body runs on W workers, one per CPU
the process may use (at most one per rank), instead of a thread per rank.
The executor of each rendezvous leaves every waiting rank's result in its
communicator, under the engine mutex, before any worker can resume that
rank.  The stress test oversubscribes the pool (more workers than cores)
and switches the GIL as often as the interpreter allows, so a worker that
resumed a rank before its result was in place would show up as a wrong
value or a failed run.  The lifecycle tests check that the pool is W
threads and leaves none behind, however the run ends.  Every run is
joined with a timeout: a hang fails the test instead of the session.
"""

import os
import sys
import threading
import zlib

import numpy as np
import pytest

from repro.simmpi import (
    CollectiveMismatchError,
    DeadlockError,
    create_runtime,
)

RANKS = 32
#: the usable-CPU count the stress test pretends to have: more workers
#: than the cores of a small CI machine
CPUS = 8
REPS = 30
ROUNDS = 8
#: seconds one bounded run may take before the test calls it a hang
BOUND_S = 120.0


def _bounded(call, seconds=BOUND_S):
    """``call()`` on a daemon thread joined with a timeout."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except BaseException as exc:
            out["error"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"run still going after {seconds}s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _run(backend, fn, *args, nprocs=RANKS):
    """Run ``fn`` and return ``(per-rank results, signature)``."""
    rt = create_runtime(backend, nprocs=nprocs)
    try:
        out = _bounded(lambda: rt.run(fn, *args))
    finally:
        rt.close()
    return out, rt.stats.signature()


def _crc(*arrays):
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return crc


def _mix(comm, rounds):
    """Allreduce, Alltoallv_fields and Allgatherv with sizes that differ
    by rank and round; returns a checksum of everything received."""
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    crc = 0
    for it in range(rounds):
        total = yield from comm.Allreduce(
            np.arange(3, dtype=np.int64) * (rank + it), op="sum")
        counts = rng.integers(0, 3 + rank % 4, size=size).astype(np.int64)
        counts[rank] = 0
        n = int(counts.sum())
        fields = (np.arange(n, dtype=np.int64) + 1000 * rank,
                  np.full(n, rank + it, dtype=np.int32))
        (gids, vals), rcts = yield from comm.Alltoallv_fields(fields, counts)
        merged, mcts = yield from comm.Allgatherv(
            np.full((rank + it) % 5, rank * it, dtype=np.int64))
        crc = zlib.crc32(_crc(total, gids, vals, rcts, merged, mcts)
                         .to_bytes(4, "little"), crc)
    return crc


def test_oversubscribed_pool_matches_serial(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(CPUS)))
    want = _run("serial", _mix, ROUNDS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rep in range(REPS):
            assert _run("threads", _mix, ROUNDS) == want, f"rep {rep}"
    finally:
        sys.setswitchinterval(interval)


# -- lifecycle ---------------------------------------------------------------

def _threads_seen(comm, seen):
    for _ in range(4):
        seen.add(threading.get_ident())
        yield from comm.barrier()
        seen.add(threading.get_ident())
    return comm.rank


def test_ranks_run_on_at_most_one_worker_per_cpu():
    workers = min(RANKS, len(os.sched_getaffinity(0)))
    before = threading.active_count()
    seen = set()
    out, _ = _run("threads", _threads_seen, seen)
    assert out == list(range(RANKS))
    assert 1 <= len(seen) <= workers
    assert threading.active_count() == before


def _raises_on_rank_1(comm, closed):
    try:
        yield from comm.barrier()
        if comm.rank == 1:
            raise RuntimeError("boom on rank 1")
        yield from comm.barrier()
    finally:
        closed.append(comm.rank)


def _mismatch(comm):
    if comm.rank == comm.size - 1:
        yield from comm.Allreduce(np.ones(1))
    else:
        yield from comm.barrier()


def _deadlock(comm):
    if comm.rank == 0:
        return
    yield from comm.barrier()


@pytest.mark.parametrize("nprocs", [2, 4, 9])
def test_pool_leaves_no_thread_behind(nprocs):
    before = threading.active_count()
    _run("threads", _threads_seen, set(), nprocs=nprocs)
    assert threading.active_count() == before

    closed = []
    with pytest.raises(RuntimeError, match="boom on rank 1"):
        _run("threads", _raises_on_rank_1, closed, nprocs=nprocs)
    assert sorted(closed) == list(range(nprocs))
    assert threading.active_count() == before

    for body, error in ((_mismatch, CollectiveMismatchError),
                        (_deadlock, DeadlockError)):
        with pytest.raises(error):
            _run("threads", body, nprocs=nprocs)
        assert threading.active_count() == before
