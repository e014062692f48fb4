"""Alpha-beta machine-model math: one pricing rule for every event."""

from math import ceil, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import (
    BLUE_WATERS_LIKE,
    CommStats,
    MachineModel,
    TimeModel,
    run_spmd,
)
from repro.simmpi.metrics import CollectiveEvent

from tests.reference import pricing
from tests.simmpi.test_topology import _workout


def _event(op, nbytes, compute, tag="", work=None, messages=None):
    """One event; ``compute`` is the measured (never priced) thread time,
    ``work`` the charged work units (none by default), ``messages`` an
    exchange's per-rank sends."""
    return CollectiveEvent(
        op=op,
        tag=tag,
        bytes_sent=np.asarray(nbytes, dtype=np.int64),
        compute_seconds=np.asarray(compute, dtype=np.float64),
        work_units=np.asarray(
            np.zeros(len(nbytes)) if work is None else work, dtype=np.float64),
        messages=(None if messages is None
                  else np.asarray(messages, dtype=np.int64)),
    )


def cost_parts(machine, event, nprocs):
    """One event through the production (batched) pricing — and through the
    per-event oracle, which must read the same."""
    latency, bandwidth = machine.cost_parts_batch([event], nprocs)
    parts = (float(latency[0]), float(bandwidth[0]))
    assert parts == pricing.cost_parts(machine, event, nprocs)
    return parts


def collective_cost(machine, event, nprocs):
    return sum(cost_parts(machine, event, nprocs))


def superstep_time(model, event, nprocs):
    stats = CommStats(nprocs)
    stats.record(event)
    total = model.total_time(stats)
    assert total == pytest.approx(
        pricing.superstep_time(model, event, nprocs))
    return total


def test_tree_collective_cost_log_hops():
    m = MachineModel(alpha=1.0, beta=0.0)
    e = _event("allreduce", [0, 0, 0, 0], [0, 0, 0, 0])
    assert collective_cost(m, e, 4) == pytest.approx(2.0)  # log2(4) hops
    assert collective_cost(m, e, 5) == pytest.approx(3.0)  # ceil(log2(5))


def test_pairwise_collective_cost_p_minus_1():
    """A full exchange: every rank messages its p - 1 peers, then the
    consensus barrier's log2(p) hops."""
    m = MachineModel(alpha=1.0, beta=0.0)
    for p in (2, 4, 5, 16):
        e = _event("alltoallv", [0] * p, [0] * p, messages=[p - 1] * p)
        assert collective_cost(m, e, p) == (p - 1) + ceil(log2(p))


def test_exchange_nobody_sends_costs_the_barrier():
    """An exchange with no records anywhere pays the barrier alone."""
    m = MachineModel(alpha=1.0, beta=1.0)
    for p in (2, 4, 5, 256):
        e = _event("alltoallv", [0] * p, [0] * p, messages=[0] * p)
        assert cost_parts(m, e, p) == (ceil(log2(p)), 0.0)


def test_exchange_latency_is_the_busiest_sender():
    m = MachineModel(alpha=1.0, beta=0.0)
    e = _event("alltoallv", [8, 0, 16, 0], [0] * 4, messages=[1, 0, 2, 0])
    assert collective_cost(m, e, 4) == 2 + 2


def _two_round_price(machine, cmat, record_bytes):
    """What an exchange cost when it was metered as two dense rounds: an
    8-byte-per-peer count ``alltoall``, then the payload, each paying
    ``p - 1`` latency hops."""
    p = cmat.shape[0]
    off = cmat.copy()
    np.fill_diagonal(off, 0)
    payload = off.sum(axis=1) * record_bytes
    return (2 * (p - 1) * machine.alpha
            + machine.beta * (p - 1) * 8 + machine.beta * payload.max())


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.integers(2, 12),
       record_bytes=st.sampled_from([1, 6, 16]))
def test_exchange_price_is_the_oracle_and_never_above_two_rounds(
        data, p, record_bytes):
    """Random count matrices through a real exchange: the batched price
    equals the per-event oracle and never exceeds the two-round price."""
    cmat = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 3]), min_size=p, max_size=p),
        min_size=p, max_size=p)), dtype=np.int64)

    def body(comm):
        cts = cmat[comm.rank]
        comm.Alltoallv(np.zeros(int(cts.sum()), dtype=f"V{record_bytes}"),
                       cts)

    _, stats = run_spmd(p, body, backend="serial")
    (event,) = stats.events
    off = cmat.copy()
    np.fill_diagonal(off, 0)
    assert event.messages.tolist() == np.count_nonzero(off, axis=1).tolist()
    m = BLUE_WATERS_LIKE
    latency, bandwidth = cost_parts(m, event, p)
    assert latency + bandwidth <= _two_round_price(m, cmat, record_bytes)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.integers(2, 9), length=st.integers(0, 6))
def test_fused_round_is_the_merged_pair(data, p, length):
    """An exchange carrying a reduction operand records the separate
    (exchange, Allreduce) pair merged (``pricing.merged``): bytes and work
    summed per rank, the exchange's messages — and is priced below the
    pair by at least the reduction's tree."""
    cmat = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 3]), min_size=p, max_size=p),
        min_size=p, max_size=p)), dtype=np.int64)
    work = data.draw(st.lists(st.integers(0, 50), min_size=p, max_size=p))

    def body(comm, fused):
        cts = cmat[comm.rank]
        comm.charge(work[comm.rank])
        operand = np.full(length, comm.rank + 0.25)
        send = np.zeros(int(cts.sum()), dtype="V6")
        if fused:
            return comm.Alltoallv_fields([send], cts, operand)[2]
        comm.Alltoallv(send, cts)
        return comm.Allreduce(operand)

    apart, pair = run_spmd(p, body, False, backend="serial")
    one, fused = run_spmd(p, body, True, backend="serial")
    assert [a.tobytes() for a in apart] == [o.tobytes() for o in one]
    (event,) = fused.events
    want = pricing.merged(*pair.events)
    assert (event.op, event.bytes_sent.tolist(), event.messages.tolist(),
            event.work_units.tolist()) == (
        want.op, want.bytes_sent.tolist(), want.messages.tolist(),
        want.work_units.tolist())
    m = BLUE_WATERS_LIKE
    assert cost_parts(m, event, p) == cost_parts(m, want, p)
    separate = sum(collective_cost(m, e, p) for e in pair.events)
    # (up to the float rounding of re-associating the sum)
    assert collective_cost(m, event, p) <= (
        separate - m.alpha * ceil(log2(p)) + 1e-15)


def test_bandwidth_term_uses_max_rank():
    m = MachineModel(alpha=0.0, beta=1.0)
    e = _event("allreduce", [10, 50, 20], [0, 0, 0])
    assert collective_cost(m, e, 3) == pytest.approx(50.0)


def test_single_rank_comm_is_free():
    m = MachineModel(alpha=1.0, beta=1.0)
    e = _event("allreduce", [100], [0])
    assert collective_cost(m, e, 1) == 0.0


def test_superstep_time_is_compute_plus_comm():
    model = TimeModel(MachineModel(alpha=1.0, beta=2.0, gamma=0.5))
    e = _event("allreduce", [4, 8], [0.5, 0.25], work=[2, 3])
    # work 0.5*3 + latency 1*log2(2) + bandwidth 2*8; the measured
    # compute seconds are not priced
    assert superstep_time(model, e, 2) == pytest.approx(1.5 + 1.0 + 16.0)


def test_total_and_breakdown_consistent():
    stats = CommStats(2)
    stats.record(_event("allreduce", [8, 8], [0.1, 0.2], work=[10, 20]))
    stats.record(_event("alltoallv", [100, 50], [0.3, 0.1], work=[30, 10],
                        messages=[1, 1]))
    model = TimeModel(MachineModel(alpha=1e-3, beta=1e-6, gamma=1e-2))
    breakdown = model.breakdown(stats)
    assert breakdown["total"] == pytest.approx(model.total_time(stats))
    assert breakdown["work"] == pytest.approx(1e-2 * (20 + 30))
    # the allreduce's log2(2) hop; the exchange's one message + barrier
    assert breakdown["latency"] == pytest.approx(1e-3 * (1 + 2))
    assert breakdown["bandwidth"] == pytest.approx(1e-6 * (8 + 100))


def test_breakdown_has_no_measured_compute_term():
    stats = CommStats(2)
    stats.record(_event("allreduce", [8, 8], [0.5, 0.25], work=[3, 1]))
    stats.record(_event("barrier", [0, 0], [2.0, 1.0]))
    model = TimeModel(MachineModel(alpha=1e-3, beta=1e-6, gamma=1e-2))
    breakdown = model.breakdown(stats)
    assert set(breakdown) == {"work", "latency", "bandwidth", "total"}
    assert breakdown["total"] == (breakdown["work"] + breakdown["latency"]
                                  + breakdown["bandwidth"])
    assert breakdown["total"] == model.total_time(stats)


def test_batched_pricing_matches_scalar():
    """The NumPy-batched cost path must agree bit-for-bit with the
    per-event rule (``tests/reference/pricing.py``) on a live record of
    every collective family."""
    _, stats = run_spmd(8, _workout, backend="serial")
    assert {e.op for e in stats.events} == {
        "alltoallv", "allreduce", "allgatherv"}
    m = BLUE_WATERS_LIKE
    lat_b, bw_b = m.cost_parts_batch(stats.events, stats.nprocs)
    for i, e in enumerate(stats.events):
        lat_s, bw_s = pricing.cost_parts(m, e, stats.nprocs)
        assert lat_b[i] == lat_s
        assert bw_b[i] == bw_s


def test_flat_records_price_every_byte_on_the_network():
    """Under flat metering every rank is its own node and no event
    carries a wire model: every metered byte counts as network traffic,
    none as shared-memory."""
    _, stats = run_spmd(4, _workout, backend="serial", comm="flat")
    assert not stats.tiered
    assert stats.modeled_inter_bytes() == stats.total_bytes > 0
    assert stats.modeled_intra_bytes() == 0


def test_time_by_tag():
    stats = CommStats(2)
    for tag, units in (("a", 1.0), ("b", 2.0), ("a", 3.0)):
        # measured compute equal to the work: priced, it would double
        stats.record(_event("barrier", [0, 0], [units, 0.0], tag=tag,
                            work=[units, 0.0]))
    model = TimeModel(MachineModel(alpha=0.0, beta=0.0, gamma=1.0))
    by_tag = model.time_by_tag(stats)
    assert by_tag["a"] == pytest.approx(4.0)
    assert by_tag["b"] == pytest.approx(2.0)
