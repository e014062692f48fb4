"""Collective semantics: every SimComm operation against a sequential
reference, at several rank counts."""

import os
import time

import numpy as np
import pytest

from repro.simmpi import run_spmd

NPROCS = [1, 2, 3, 4, 8]


@pytest.mark.parametrize("nprocs", NPROCS)
def test_barrier_runs(nprocs):
    def fn(comm):
        comm.barrier()
        return comm.rank

    out, stats = run_spmd(nprocs, fn)
    assert out == list(range(nprocs))
    assert stats.rounds == 1


@pytest.mark.parametrize("nprocs", NPROCS)
def test_allgather(nprocs):
    """A scalar per rank gathers as a one-element buffer per rank."""
    def fn(comm):
        return comm.Allgatherv(np.array([comm.rank * 10]))[0].tolist()

    out, _ = run_spmd(nprocs, fn)
    expected = [r * 10 for r in range(nprocs)]
    assert all(o == expected for o in out)


@pytest.mark.parametrize("op,ref", [("sum", sum), ("max", max)])
@pytest.mark.parametrize("nprocs", NPROCS)
def test_allreduce_scalar(nprocs, op, ref):
    """A scalar reduces as a one-element buffer, metered by its nbytes."""
    def fn(comm):
        return comm.Allreduce(np.array([comm.rank + 1]), op=op).tolist()

    out, stats = run_spmd(nprocs, fn)
    expected = ref(range(1, nprocs + 1))
    assert out == [[expected]] * nprocs
    (event,) = stats.events
    assert event.bytes_sent.tolist() == [8 if nprocs > 1 else 0] * nprocs


@pytest.mark.parametrize("reduce", [
    lambda comm: comm.Allreduce(np.float64(1), op="avg"),
    lambda comm: comm.Allreduce(np.ones(2), op="min"),
], ids=["allreduce", "Allreduce"])
def test_unknown_reduction_op_names_the_valid_ops(reduce):
    with pytest.raises(ValueError, match=r"valid ops: \['max', 'sum'\]"):
        run_spmd(2, reduce)


@pytest.mark.parametrize("nprocs", NPROCS)
def test_Allreduce_array(nprocs):
    def fn(comm):
        return comm.Allreduce(np.full(5, comm.rank, dtype=np.float64), op="sum")

    out, _ = run_spmd(nprocs, fn)
    total = sum(range(nprocs))
    for o in out:
        np.testing.assert_allclose(o, total)


def test_Allreduce_shape_mismatch_raises():
    def fn(comm):
        return comm.Allreduce(np.zeros(comm.rank + 1))

    with pytest.raises(ValueError, match="shape mismatch"):
        run_spmd(3, fn)


@pytest.mark.parametrize("nprocs", NPROCS)
def test_Allgatherv(nprocs):
    def fn(comm):
        mine = np.full(comm.rank + 1, comm.rank, dtype=np.int64)
        merged, counts = comm.Allgatherv(mine)
        return merged, counts

    out, _ = run_spmd(nprocs, fn)
    expected = np.concatenate(
        [np.full(r + 1, r, dtype=np.int64) for r in range(nprocs)]
    )
    for merged, counts in out:
        np.testing.assert_array_equal(merged, expected)
        np.testing.assert_array_equal(counts, np.arange(1, nprocs + 1))


@pytest.mark.parametrize("nprocs", NPROCS)
def test_Alltoall_matrix_transpose_semantics(nprocs):
    # one item per rank pair: the Alltoallv transposes the send matrix
    def fn(comm):
        sent = np.array(
            [comm.rank * 100 + dst for dst in range(comm.size)], dtype=np.int64
        )
        recv, _ = comm.Alltoallv(sent, np.ones(comm.size, dtype=np.int64))
        return recv

    out, _ = run_spmd(nprocs, fn)
    for dst, received in enumerate(out):
        np.testing.assert_array_equal(
            received, [src * 100 + dst for src in range(nprocs)]
        )


@pytest.mark.parametrize("nprocs", NPROCS)
def test_Alltoallv_reference(nprocs):
    def fn(comm):
        # rank r sends (r, dst) pairs: dst copies of value r*1000+dst
        counts = np.array(
            [(comm.rank + dst) % 3 for dst in range(comm.size)], dtype=np.int64
        )
        buf = np.concatenate(
            [
                np.full(counts[dst], comm.rank * 1000 + dst, dtype=np.int64)
                for dst in range(comm.size)
            ]
        ) if counts.sum() else np.empty(0, dtype=np.int64)
        recv, rcounts = comm.Alltoallv(buf, counts)
        return recv, rcounts

    out, _ = run_spmd(nprocs, fn)
    for dst, (recv, rcounts) in enumerate(out):
        expected_counts = [(src + dst) % 3 for src in range(nprocs)]
        np.testing.assert_array_equal(rcounts, expected_counts)
        expected = np.concatenate(
            [
                np.full(c, src * 1000 + dst, dtype=np.int64)
                for src, c in enumerate(expected_counts)
            ]
        ) if sum(expected_counts) else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(recv, expected)


def test_Alltoallv_validates_counts():
    def fn(comm):
        return comm.Alltoallv(np.zeros(5), np.array([1, 1]))  # sums to 2 != 5

    with pytest.raises(ValueError):
        run_spmd(2, fn)


def test_Alltoallv_float_payload():
    def fn(comm):
        buf = np.full(comm.size, comm.rank + 0.5)
        recv, _ = comm.Alltoallv(buf, np.ones(comm.size, dtype=np.int64))
        return recv

    out, _ = run_spmd(4, fn)
    for recv in out:
        np.testing.assert_allclose(recv, np.arange(4) + 0.5)


@pytest.mark.parametrize("nprocs", NPROCS)
def test_Alltoallv_fields_reference(nprocs):
    """Multi-field records arrive grouped by source with each field's own
    dtype preserved, mirroring the single-buffer reference semantics."""

    def fn(comm):
        counts = np.array(
            [(comm.rank + dst) % 3 for dst in range(comm.size)], dtype=np.int64
        )
        nrec = int(counts.sum())
        slots = np.repeat(
            np.arange(comm.size, dtype=np.uint16), counts
        )
        vals = np.full(nrec, comm.rank, dtype=np.int16)
        (rslots, rvals), rcounts = comm.Alltoallv_fields(
            (slots, vals), counts
        )
        return rslots, rvals, rcounts

    out, _ = run_spmd(nprocs, fn)
    for dst, (rslots, rvals, rcounts) in enumerate(out):
        expected_counts = [(src + dst) % 3 for src in range(nprocs)]
        np.testing.assert_array_equal(rcounts, expected_counts)
        assert rslots.dtype == np.uint16 and rvals.dtype == np.int16
        np.testing.assert_array_equal(
            rslots, np.repeat(dst, sum(expected_counts))
        )
        np.testing.assert_array_equal(
            rvals,
            np.concatenate([
                np.full(c, src, dtype=np.int16)
                for src, c in enumerate(expected_counts)
            ]) if sum(expected_counts) else np.empty(0, dtype=np.int16),
        )


def test_Alltoallv_fields_meters_true_wire_bytes():
    """A (uint16, int16) record is metered at 4 bytes — not the 16 an
    int64-interleaved encoding of the same records would charge."""
    nprocs = 4

    def fn(comm):
        counts = np.ones(comm.size, dtype=np.int64)
        with comm.phase("payload"):
            comm.Alltoallv_fields(
                (np.zeros(comm.size, dtype=np.uint16),
                 np.zeros(comm.size, dtype=np.int16)),
                counts,
            )
        return True

    _, stats = run_spmd(nprocs, fn)
    payload = [e for e in stats.events
               if e.tag == "payload" and e.op == "alltoallv"]
    assert len(payload) == 1
    # 3 off-rank records x 4 bytes, per rank
    np.testing.assert_array_equal(
        payload[0].bytes_sent, np.full(nprocs, 12)
    )
    # the payload is the exchange's whole record: no count header
    assert stats.bytes_by_tag_op()["payload"] == {"alltoallv": 4 * 12}


def _charged_exchange(comm):
    before = comm.event_count
    comm.charge(7.0 + comm.rank)
    with comm.phase("x"):
        comm.Alltoallv_fields(
            (np.arange(comm.size, dtype=np.uint16),
             np.zeros(comm.size, dtype=np.int16)),
            np.ones(comm.size, dtype=np.int64),
        )
    return comm.event_count - before


@pytest.mark.parametrize("nprocs", [1, 3])
def test_Alltoallv_fields_is_one_metered_round(nprocs):
    """The sparse exchange: one event from the one rendezvous, carrying
    the charged work and each rank's message count, and the same record
    on every backend."""
    signatures = []
    for backend in ("serial", "threads", "procs"):
        advanced, stats = run_spmd(nprocs, _charged_exchange, backend=backend)
        assert advanced == [1] * nprocs
        (payload,) = stats.events
        assert (payload.op, payload.tag) == ("alltoallv", "x")
        np.testing.assert_array_equal(
            payload.bytes_sent, np.full(nprocs, (nprocs - 1) * 4))
        np.testing.assert_array_equal(
            payload.messages, np.full(nprocs, nprocs - 1))
        np.testing.assert_array_equal(
            payload.work_units, 7.0 + np.arange(nprocs))
        signatures.append(stats.signature())
    assert signatures[0] == signatures[1] == signatures[2]


def test_Alltoallv_fields_validates():
    def fn(comm):
        comm.Alltoallv_fields(
            (np.zeros(4), np.zeros(3)), np.array([2, 2], dtype=np.int64)
        )

    with pytest.raises(ValueError, match="equal-length"):
        run_spmd(2, fn)


def test_phase_tagging():
    def fn(comm):
        with comm.phase("alpha"):
            comm.barrier()
            with comm.phase("beta"):
                comm.Allreduce(np.ones(1))
        comm.barrier()
        return True

    _, stats = run_spmd(2, fn)
    tags = [e.tag for e in stats.events]
    assert tags == ["alpha", "beta", ""]


# -- Allgatherv(then=): run-once hook on the one-result collective ----------

BACKENDS = ["serial", "threads", "procs"]


def _run(backend, nprocs, fn):
    return run_spmd(nprocs, fn, backend=backend)


def _mine(comm):
    return np.arange(1000 * (comm.rank + 1), dtype=np.int64) + comm.rank


def _then(merged, counts):
    # plain containers of arrays and scalars; ``merged * 2`` is the large
    # array the ranks receive
    return ((os.getpid(), time.perf_counter_ns()),
            [merged * 2, counts.copy()], int(merged.sum()))


@pytest.mark.parametrize("backend", BACKENDS)
def test_Allgatherv_then_runs_once_and_reaches_every_rank(backend):
    def fn(comm):
        with comm.phase("hooked"):
            return comm.Allgatherv(_mine(comm), then=_then)

    def plain(comm):
        with comm.phase("hooked"):
            return comm.Allgatherv(_mine(comm))

    out, stats = _run(backend, 3, fn)
    ref, ref_stats = _run(backend, 3, plain)
    # one execution: every rank sees the same (pid, timestamp)
    assert len({who for who, _, _ in out}) == 1
    merged, counts = ref[0]
    for _, (doubled, cts), total in out:
        np.testing.assert_array_equal(doubled, merged * 2)
        np.testing.assert_array_equal(cts, counts)
        assert total == int(merged.sum())
    # metered exactly as the plain collective of the same arrays
    assert stats.signature() == ref_stats.signature()
    assert stats.total_bytes == ref_stats.total_bytes
    assert [e.op for e in stats.events] == ["allgatherv"]


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_Allgatherv_then_result_is_one_sealed_object_when_shared(backend):
    def fn(comm):
        _, (doubled, cts), _ = comm.Allgatherv(_mine(comm), then=_then)
        for arr in (doubled, cts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1
        return id(doubled)

    out, _ = _run(backend, 3, fn)
    assert len(set(out)) == 1


def test_Allgatherv_then_result_is_a_private_copy_when_not_shared():
    def fn(comm):
        _, (big, _), _ = comm.Allgatherv(_mine(comm), then=_then)
        assert big.flags.writeable  # this rank's own copy
        big += comm.rank            # must not reach any other rank
        comm.barrier()
        return big

    out, _ = _run("procs", 3, fn)
    for r, big in enumerate(out):
        np.testing.assert_array_equal(big, out[0] + r)


@pytest.mark.parametrize("backend", BACKENDS)
def test_Allgatherv_then_exception_surfaces_as_itself(backend):
    def boom(merged, counts):
        raise ValueError("then() failed on purpose")

    def fn(comm):
        return comm.Allgatherv(_mine(comm), then=boom)

    with pytest.raises(ValueError, match="failed on purpose"):
        _run(backend, 3, fn)
