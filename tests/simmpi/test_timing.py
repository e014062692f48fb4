"""Alpha-beta machine-model math (single-tier and tiered flavors)."""

import numpy as np
import pytest

from repro.simmpi import (
    BLUE_WATERS_TIERED,
    CommStats,
    MachineModel,
    TieredMachineModel,
    TimeModel,
)
from repro.simmpi.metrics import CollectiveEvent, TierMetering

from tests.reference import pricing


def _event(op, nbytes, compute, tag="", tiers=None, work=None):
    """One event; ``compute`` is the measured (never priced) thread time,
    ``work`` the charged work units (none by default)."""
    return CollectiveEvent(
        op=op,
        tag=tag,
        bytes_sent=np.asarray(nbytes, dtype=np.int64),
        compute_seconds=np.asarray(compute, dtype=np.float64),
        work_units=np.asarray(
            np.zeros(len(nbytes)) if work is None else work, dtype=np.float64),
        tiers=tiers,
    )


def _tiers(intra, inter, wire_intra, wire_inter, *, intra_hops, inter_hops,
           node_of):
    """Metering of a one-rack topology: the rack tier is all zero."""
    none_leave = np.zeros(len(node_of), dtype=np.int64)
    return TierMetering(
        intra_bytes=np.asarray(intra, dtype=np.int64),
        inter_bytes=np.asarray(inter, dtype=np.int64),
        xrack_bytes=none_leave,
        wire_intra=np.asarray(wire_intra, dtype=np.int64),
        wire_inter=np.asarray(wire_inter, dtype=np.int64),
        wire_xrack=none_leave,
        intra_hops=intra_hops,
        inter_hops=inter_hops,
        xrack_hops=0,
        node_of=np.asarray(node_of, dtype=np.int32),
        rack_of=np.zeros(len(node_of), dtype=np.int32),
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
    m = MachineModel(alpha=1.0, beta=0.0)
    e = _event("alltoallv", [0, 0, 0, 0], [0, 0, 0, 0])
    assert collective_cost(m, e, 4) == pytest.approx(3.0)


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
    stats.record(_event("alltoallv", [100, 50], [0.3, 0.1], work=[30, 10]))
    model = TimeModel(MachineModel(alpha=1e-3, beta=1e-6, gamma=1e-2))
    breakdown = model.breakdown(stats)
    assert breakdown["total"] == pytest.approx(model.total_time(stats))
    assert breakdown["work"] == pytest.approx(1e-2 * (20 + 30))
    assert breakdown["latency"] == pytest.approx(1e-3 * (1 + 1))
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


def test_tiered_model_prices_each_tier():
    m = TieredMachineModel(alpha=10.0, beta=2.0, alpha_intra=1.0,
                           beta_intra=0.5)
    tiers = _tiers(
        intra=[4, 4, 0, 0], inter=[0, 0, 8, 8],
        wire_intra=[6, 2, 0, 0], wire_inter=[0, 0, 8, 16],
        intra_hops=3, inter_hops=2, node_of=[0, 0, 1, 1],
    )
    e = _event("alltoallv", [4, 4, 8, 8], [0, 0, 0, 0], tiers=tiers)
    latency, bandwidth = cost_parts(m, e, 4)
    # latency: 1.0 * 3 intra hops + 10.0 * 2 inter hops
    assert latency == pytest.approx(1.0 * 3 + 10.0 * 2)
    # bandwidth: busiest rank's shared-memory wire (6) at beta_intra,
    # busiest node's injected network wire (node 1: 8 + 16) at beta
    assert bandwidth == pytest.approx(0.5 * 6 + 2.0 * 24)
    assert collective_cost(m, e, 4) == pytest.approx(latency + bandwidth)


def test_tiered_model_falls_back_untiered():
    base = MachineModel(alpha=10.0, beta=2.0)
    tiered = TieredMachineModel(alpha=10.0, beta=2.0, alpha_intra=1.0,
                                beta_intra=0.5)
    e = _event("allreduce", [8, 16], [0, 0])  # no TierMetering attached
    assert cost_parts(tiered, e, 2) == cost_parts(base, e, 2)


def test_tiered_breakdown_consistent():
    tiers = _tiers(
        intra=[8, 0], inter=[0, 8], wire_intra=[8, 0], wire_inter=[0, 8],
        intra_hops=1, inter_hops=1, node_of=[0, 1],
    )
    stats = CommStats(2)
    stats.record(_event("allreduce", [8, 8], [0.1, 0.2], tiers=tiers))
    stats.record(_event("allreduce", [8, 8], [0.1, 0.2]))  # untiered round
    model = TimeModel(TieredMachineModel(alpha=1e-3, beta=1e-6,
                                         alpha_intra=1e-4, beta_intra=1e-7))
    breakdown = model.breakdown(stats)
    assert breakdown["total"] == pytest.approx(model.total_time(stats))
    assert breakdown["latency"] == pytest.approx(
        (1e-4 + 1e-3) + 1e-3)  # tiered round + untiered log2(2) hop
    assert breakdown["bandwidth"] == pytest.approx(
        (1e-7 * 8 + 1e-6 * 8) + 1e-6 * 8)


def test_blue_waters_tiered_constants_realistic():
    """The tiered flavor keeps the paper-calibrated network constants and
    adds a shared-memory tier in the realistic 10-20x bandwidth range."""
    m = BLUE_WATERS_TIERED
    assert m.name == "blue-waters-tiered"
    ratio = m.beta / m.beta_intra  # inter-node seconds/byte premium
    assert 10.0 <= ratio <= 20.0
    assert m.alpha > m.alpha_intra


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
