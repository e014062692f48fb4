"""Cross-backend conformance: every backend implements the same SPMD
semantics — identical collective results, identical metering, identical
error behaviour — so rank code and benchmarks are backend-agnostic."""

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.simmpi import (
    Backend,
    CollectiveMismatchError,
    DeadlockError,
    RemoteRankError,
    SerialBackend,
    ThreadsBackend,
    ProcsBackend,
    available_backends,
    create_runtime,
    default_backend,
    materialize,
    run_spmd,
)

BACKENDS = ("serial", "threads", "procs")

backends = pytest.mark.parametrize("backend", BACKENDS)


def run_on(backend, nprocs, fn, **kwargs):
    return run_spmd(nprocs, fn, backend=backend, **kwargs)


# -- registry / factory ------------------------------------------------------

def test_registry_lists_all_three():
    assert set(BACKENDS) <= set(available_backends())


@backends
def test_create_runtime_by_name(backend):
    rt = create_runtime(backend, nprocs=2)
    assert isinstance(rt, Backend)
    assert rt.name == backend
    rt.close()


def test_unknown_backend_raises_with_choices():
    with pytest.raises(ValueError, match="serial") as exc:
        create_runtime("smoke-signals", nprocs=2)
    assert "smoke-signals" in str(exc.value)
    assert "threads" in str(exc.value) and "procs" in str(exc.value)


def test_env_override_honored(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert default_backend() == "serial"
    rt = create_runtime(None, nprocs=2)
    assert isinstance(rt, SerialBackend)
    monkeypatch.delenv("REPRO_BACKEND")
    assert default_backend() == "threads"


def test_backend_instance_passthrough():
    rt = SerialBackend(3)
    assert create_runtime(rt, nprocs=3) is rt
    with pytest.raises(ValueError, match="nprocs"):
        create_runtime(rt, nprocs=4)


def test_backend_classes_exported():
    assert ProcsBackend.name == "procs"
    assert {SerialBackend.name, ThreadsBackend.name} == {"serial", "threads"}


# -- collectives -------------------------------------------------------------

@backends
def test_bcast_object(backend):
    def fn(comm):
        mine = np.array([1, 2, 3]) if comm.rank == 0 else np.empty(0)
        return comm.Bcast(mine).tolist()  # root 0 by default

    out, stats = run_on(backend, 3, fn)
    assert out == [[1, 2, 3]] * 3
    assert stats.events[0].op == "bcast"


@backends
def test_Bcast_array(backend):
    def fn(comm):
        arr = np.arange(5) * 7 if comm.rank == 1 else np.empty(0)
        got = materialize(comm.Bcast(arr, root=1))
        got_sum = int(got.sum())
        got[:] = comm.rank  # materialized buffers must be rank-private
        return got_sum

    out, _ = run_on(backend, 3, fn)
    assert out == [70, 70, 70]


@backends
def test_allreduce_scalar_ops(backend):
    def fn(comm):
        return (comm.allreduce(comm.rank + 1, op="sum"),
                comm.allreduce(comm.rank, op="max"))

    out, _ = run_on(backend, 3, fn)
    assert out == [(6, 2)] * 3


@backends
def test_Allreduce_array(backend):
    def fn(comm):
        total = materialize(comm.Allreduce(np.full(4, comm.rank + 1.0)))
        total += comm.rank  # materialized buffers are rank-private
        return total.tolist()

    out, _ = run_on(backend, 3, fn)
    assert out == [[6.0 + r] * 4 for r in range(3)]


@backends
def test_allgather(backend):
    def fn(comm):
        return comm.allgather(("rank", comm.rank))

    out, _ = run_on(backend, 4, fn)
    assert out == [[("rank", r) for r in range(4)]] * 4


@backends
def test_Allgatherv(backend):
    def fn(comm):
        merged, counts = comm.Allgatherv(
            np.full(comm.rank + 1, comm.rank, dtype=np.int64))
        return merged.tolist(), counts.tolist()

    out, _ = run_on(backend, 3, fn)
    assert out == [([0, 1, 1, 2, 2, 2], [1, 2, 3])] * 3


@backends
def test_Alltoallv(backend):
    def fn(comm):
        sendbuf = np.arange(comm.size * 2, dtype=np.int64) + 100 * comm.rank
        counts = np.full(comm.size, 2, dtype=np.int64)
        recv, rcounts = comm.Alltoallv(sendbuf, counts)
        return recv.tolist(), rcounts.tolist()

    out, _ = run_on(backend, 3, fn)
    expect = [(
        [2 * r, 2 * r + 1, 100 + 2 * r, 101 + 2 * r,
         200 + 2 * r, 201 + 2 * r],
        [2, 2, 2],
    ) for r in range(3)]
    assert out == expect


@backends
def test_barrier_and_phase_tags(backend):
    def fn(comm):
        with comm.phase("alpha"):
            comm.barrier()
        comm.barrier()
        return True

    out, stats = run_on(backend, 2, fn)
    assert out == [True, True]
    assert [e.tag for e in stats.events] == ["alpha", ""]


@backends
def test_identical_stats_across_backends(backend):
    """The metering oracle: (op, tag, bytes) streams match ``serial``."""
    def fn(comm):
        with comm.phase("mix"):
            comm.charge(10 * (comm.rank + 1))
            comm.Allreduce(np.ones(8) * comm.rank)
            merged, _ = comm.Allgatherv(np.arange(comm.rank + 2.0))
            comm.Alltoallv(np.arange(comm.size, dtype=np.int64),
                           np.ones(comm.size, dtype=np.int64))
        return float(merged.sum())

    def signature(stats):
        return [(e.op, e.tag, e.bytes_sent.tolist(), e.work_units.tolist())
                for e in stats.events]

    ref_out, ref_stats = run_on("serial", 3, fn)
    out, stats = run_on(backend, 3, fn)
    assert out == ref_out
    assert signature(stats) == signature(ref_stats)


@backends
def test_rank_args_and_shared_kwargs(backend):
    def fn(comm, bonus, base=0):
        return comm.allreduce(base + bonus)

    out, _ = run_on(backend, 3, fn, rank_args=[(1,), (2,), (3,)], base=10)
    assert out == [36] * 3


@backends
def test_single_rank_inline(backend):
    def fn(comm):
        comm.barrier()
        return comm.allreduce(5)

    out, stats = run_on(backend, 1, fn)
    assert out == [5]
    assert stats.rounds == 2


# -- error paths -------------------------------------------------------------

@backends
def test_collective_mismatch(backend):
    def fn(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(1)

    # in-process: whoever arrives second names the rank already deposited;
    # procs: the designated computer lists every rank's op
    with pytest.raises(CollectiveMismatchError, match=(
            r"rank 1 called 'allreduce' .* while rank 0 already in 'barrier'"
            r"|rank 0 called 'barrier' .* while rank 1 already in 'allreduce'"
            r"|rank 0: 'barrier', rank 1: 'allreduce'")):
        run_on(backend, 2, fn)


@backends
def test_deadlock_when_one_rank_returns_early(backend):
    def fn(comm):
        if comm.rank == 0:
            return "done early"
        comm.barrier()

    with pytest.raises(DeadlockError, match=(
            r"rank 1 entered collective 'barrier' .* but 1 rank\(s\) already "
            r"returned|1 rank\(s\) \(rank 1\) stuck in collective 'barrier'")):
        run_on(backend, 2, fn)


@backends
def test_deadlock_when_rank_enters_extra_collective(backend):
    def fn(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.barrier()  # others never join

    with pytest.raises(DeadlockError, match=(
            r"rank 0 entered collective 'barrier' .* but [12] rank\(s\) "
            r"already returned"
            r"|1 rank\(s\) \(rank 0\) stuck in collective 'barrier'")):
        run_on(backend, 3, fn)


@backends
def test_remote_rank_error_propagates_original(backend):
    def fn(comm):
        if comm.rank == 1:
            raise ValueError("boom on rank 1")
        comm.barrier()

    with pytest.raises(ValueError, match="boom on rank 1"):
        run_on(backend, 3, fn)


@backends
def test_error_before_any_collective(backend):
    def fn(comm):
        raise KeyError("instant")

    with pytest.raises(KeyError):
        run_on(backend, 2, fn)


@backends
def test_error_inside_execute_propagates(backend):
    def fn(comm):
        # shape mismatch is detected inside the collective's execute step
        comm.Allreduce(np.ones(comm.rank + 1))

    with pytest.raises((ValueError, RemoteRankError)):
        run_on(backend, 2, fn)


@backends
def test_reusable_after_run_and_stats_accumulate(backend):
    rt = create_runtime(backend, nprocs=2)
    try:
        assert rt.run(lambda comm: comm.allreduce(1)) == [2, 2]
        assert rt.run(lambda comm: comm.allreduce(2)) == [4, 4]
        assert rt.stats.rounds == 2
    finally:
        rt.close()


# -- procs backend specifics -------------------------------------------------

def _live_shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def test_procs_releases_shared_memory_on_success():
    before = _live_shm_segments()
    # payload larger than a slot's initial capacity forces segment growth
    def fn(comm):
        total = comm.Allreduce(np.ones(200_000) * (comm.rank + 1))
        return float(total[0])

    out, _ = run_on("procs", 2, fn)
    assert out == [3.0, 3.0]
    assert _live_shm_segments() <= before


def test_procs_releases_shared_memory_on_rank_failure():
    before = _live_shm_segments()

    def fn(comm):
        comm.barrier()
        if comm.rank == 1:
            raise RuntimeError("mid-superstep failure")
        comm.Allreduce(np.ones(100_000))

    with pytest.raises((RuntimeError, RemoteRankError)):
        run_on("procs", 3, fn)
    assert _live_shm_segments() <= before


def test_procs_no_resource_tracker_warnings_at_shutdown():
    """End-to-end leak check: a fresh interpreter runs the procs backend
    through success *and* rank failure, then exits; the resource tracker
    must have nothing to complain about."""
    script = textwrap.dedent("""
        import numpy as np
        from repro.simmpi import run_spmd

        def ok(comm):
            return float(comm.Allreduce(np.ones(120_000))[0])

        def dies(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            comm.barrier()

        out, _ = run_spmd(2, ok, backend="procs")
        assert out == [2.0, 2.0]
        try:
            run_spmd(2, dies, backend="procs")
        except RuntimeError:
            pass
        print("SCRIPT-OK")
    """)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "SCRIPT-OK" in proc.stdout
    assert "leaked" not in proc.stderr.lower()
    assert "resource_tracker" not in proc.stderr.lower()


def test_procs_runs_rank_code_in_separate_processes():
    def fn(comm):
        return os.getpid()

    out, _ = run_on("procs", 3, fn)
    assert len(set(out)) == 3
    assert os.getpid() not in out


def test_serial_schedules_round_robin_deterministically():
    order = []

    def fn(comm):  # a generator body: serial steps it on one worker
        order.append(("a", comm.rank))
        yield from comm.barrier()
        order.append(("b", comm.rank))
        yield from comm.barrier()
        return comm.rank

    run_on("serial", 3, fn)
    first = list(order)
    order.clear()
    run_on("serial", 3, fn)
    assert order == first
    # strict round-robin: every rank reaches superstep k before any rank
    # reaches superstep k+1, in rank order
    assert first[:3] == [("a", 0), ("a", 1), ("a", 2)]
    assert set(first[3:]) == {("b", 0), ("b", 1), ("b", 2)}
