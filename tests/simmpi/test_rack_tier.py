"""The rack tier: ``hierarchical:RxK`` grammar edge cases, rack
grouping on the :class:`Topology`, the three-tier wire rule (every rank at
once == one rank at a time, and the nine numbers a round records), and
rack-aware pricing by
:class:`~repro.simmpi.timing.TieredMachineModel` — including the guarantee
that a spec naming no rack is one rack, whose rack tier prices nothing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PulpParams
from repro.simmpi import (
    BLUE_WATERS_TIERED,
    TieredMachineModel,
    TimeModel,
    run_spmd,
)
from repro.simmpi.topology import (
    Topology,
    create_communicator,
    make_topology,
    parse_comm_spec,
)
from tests.reference import pricing
from tests.reference.tiers import (
    tier_contribution,
    tier_metering,
    tier_row,
    tier_rows,
)
from tests.simmpi.test_topology import _workout, check_live_tiers

BACKENDS = ("serial", "threads", "procs")

backends = pytest.mark.parametrize("backend", BACKENDS)


# -- spec grammar edge cases -------------------------------------------------

def test_rack_spec_parses():
    assert parse_comm_spec("hierarchical:8x4") == ("hierarchical", 8, 4)
    assert parse_comm_spec("hierarchical:1x1") == ("hierarchical", 1, 1)
    assert parse_comm_spec("hierarchical:128x64") == ("hierarchical", 128, 64)


@pytest.mark.parametrize("bad", [
    "hierarchical:8x",      # dangling rack separator
    "hierarchical:x4",      # missing ranks/node
    "hierarchical:8x0",     # rack width must be positive
    "hierarchical:8x-3",
    "hierarchical:8x4x2",   # only two structure levels in the grammar
    "hierarchical:8X4",     # the separator is a lowercase 'x'
    "hierarchical:8x4.5",
    "hierarchical:8 x 4",
])
def test_rack_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_comm_spec(bad)


def test_params_accept_and_validate_rack_spec():
    assert PulpParams(comm="hierarchical:4x2").comm == "hierarchical:4x2"
    with pytest.raises(ValueError):
        PulpParams(comm="hierarchical:4x0")


def test_oversized_rack_spec_is_one_rack():
    """More nodes/rack than nodes exist: everything lands in rack 0 (same
    clamping stance as a ranks/node wider than the run) — the topology a
    spec naming no rack asks for, metered and priced identically on
    every backend."""
    c = create_communicator("hierarchical:2x64", nprocs=8)
    t = c.topology
    assert t.n_racks == 1 and not t.multi_rack
    assert t.nodes_per_rack == t.n_nodes == 4
    assert t == create_communicator("hierarchical:2", nprocs=8).topology
    for backend in BACKENDS:
        plain, oversized = (
            run_spmd(8, _workout, backend=backend, comm=spec)[1]
            for spec in ("hierarchical:2", "hierarchical:2x64"))
        assert len(plain.events) == len(oversized.events) > 0
        for a, b in zip(plain.events, oversized.events):
            assert a.tiers.wire_xrack == a.tiers.max_rack_wire_xrack == 0
            assert a.tiers.xrack_hops == 0
            assert a.tiers == b.tiers
        for x, y in zip(
                BLUE_WATERS_TIERED.cost_parts_batch(plain.events, 8),
                BLUE_WATERS_TIERED.cost_parts_batch(oversized.events, 8)):
            np.testing.assert_array_equal(x, y)


# -- rack classification -----------------------------------------------------

def test_rack_of_ranks_matches_scalar():
    t = Topology(nprocs=22, ranks_per_node=4, nodes_per_rack=2)
    racks = t.rack_of_ranks()
    assert racks.dtype == np.int32
    np.testing.assert_array_equal(racks, [t.rack_of(r) for r in range(22)])


def test_rack_grouping_with_short_tail():
    # 22 ranks / 4 per node = 6 nodes (last short) / 2 per rack = 3 racks
    t = Topology(nprocs=22, ranks_per_node=4, nodes_per_rack=2)
    assert t.n_racks == 3
    assert t.ranks_per_rack == 8
    assert t.rack_span(0) == (0, 8)
    assert t.rack_span(2) == (16, 22)  # short last rack
    with pytest.raises(ValueError):
        t.rack_span(3)
    assert t.rack_of(0) == t.rack_of(7) != t.rack_of(8)


def test_rack_leaders():
    t = Topology(nprocs=16, ranks_per_node=2, nodes_per_rack=2)
    assert [r for r in range(16) if t.is_rack_leader(r)] == [0, 4, 8, 12]
    assert t.is_rack_leader(0) and t.is_rack_leader(4)
    assert not t.is_rack_leader(2)  # node leader, but not rack leader
    one_rack = Topology(nprocs=16, ranks_per_node=2)
    # one rack, one rack leader: rank 0
    assert [r for r in range(16) if one_rack.is_rack_leader(r)] == [0]


def test_make_topology_threads_rack_width_through():
    t = make_topology(32, ranks_per_node=4, nodes_per_rack=2)
    assert t.nodes_per_rack == 2 and t.n_racks == 4
    one_rack = make_topology(32, ranks_per_node=4)
    assert one_rack.nodes_per_rack == one_rack.n_nodes == 8
    assert one_rack.n_racks == 1


def test_degenerate_one_rank_racks():
    """hierarchical:1x1 — every rank its own node *and* rack: nothing
    moves locally or inside a rack, so every metered byte crosses racks."""
    c = create_communicator("hierarchical:1x1", nprocs=4)
    dest = np.array([0, 10, 20, 30], dtype=np.int64)
    assert tier_row(c, "alltoallv", 0, int(dest.sum()),
                    dest_bytes=dest) == (0, 0, 60)


def test_tier_contribution_rack_split():
    # 8 ranks: nodes {0,1} {2,3} {4,5} {6,7}; racks {0..3} {4..7}
    c = create_communicator("hierarchical:2x2", nprocs=8)
    dest = np.array([0, 1, 2, 4, 8, 16, 32, 64], dtype=np.int64)
    wire_intra, wire_inter, wire_xrack = tier_row(
        c, "alltoallv", 0, int(dest.sum()), dest_bytes=dest)
    assert wire_inter == 2 + 4        # ranks 2,3: off-node, same rack
    assert wire_xrack == 8 + 16 + 32 + 64
    # rank 1 (same node) locally, then the remote scatter of the off-node
    # bytes not addressed to a node leader (ranks 3, 5, 7)
    assert wire_intra == 1 + (4 + 16 + 64)
    assert 1 + wire_inter + wire_xrack == dest.sum()


# -- the matrix is the scalar rule, row by row --------------------------------

#: every op SimComm emits
_OPS = ("alltoallv", "allreduce", "barrier", "allgather", "allgatherv",
        "checkpoint")


#: (nprocs, ranks/node, nodes/rack): a single node, one rank per node, a
#: short last node, a short last rack (and node), one-rank racks, one rack
_SHAPES = [(4, 4, None), (5, 1, None), (10, 4, None), (22, 4, 2), (6, 1, 1),
           (8, 2, 64)]


@st.composite
def _topologies(draw):
    """The named shapes, and random two- and three-tier ones."""
    nprocs, rpn, npr = draw(st.one_of(
        st.sampled_from(_SHAPES),
        st.integers(1, 24).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(1, n + 1),
            st.one_of(st.none(), st.integers(1, 4))))))
    spec = f"hierarchical:{rpn}" + ("" if npr is None else f"x{npr}")
    return create_communicator(spec, nprocs=nprocs)


@settings(max_examples=300, deadline=None)
@given(comm=_topologies(), op=st.sampled_from(_OPS), data=st.data())
def test_tier_rows_are_the_scalar_rule(comm, op, data):
    """Every rank of a round metered at once == the rule the ranks used
    to evaluate one deposit at a time (``tests/reference/tiers.py``), and
    the round's nine numbers == that rule's rows reduced rank by rank."""
    nprocs = comm.topology.nprocs
    if op == "alltoallv":
        # sparse, so the rule sees zero and non-zero slots
        traffic = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 1, 8, 1000]),
                     min_size=nprocs, max_size=nprocs),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
        np.fill_diagonal(traffic, 0)
        nbytes = traffic.sum(axis=1)
    else:
        nbytes = traffic = np.array(data.draw(st.lists(
            st.sampled_from([0, 8, 1000]),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
    columns = comm.wire_columns(op, traffic)
    assert [c.dtype for c in columns] == [np.int64] * 3
    assert tier_rows(columns) == [
        tier_contribution(
            comm.topology, op, r, nbytes[r],
            dest_bytes=traffic[r] if traffic.ndim == 2 else None)
        for r in range(nprocs)]
    tiers = dataclasses.asdict(comm.tiers(op, traffic))
    assert all(type(v) is int for v in tiers.values())
    assert tiers == tier_metering(comm.topology, op, traffic)


# -- the live record ----------------------------------------------------------

@backends
def test_three_tier_split_sums_to_bytes_sent(backend):
    _, st = run_spmd(8, _workout, backend=backend, comm="hierarchical:2x2")
    tiered = check_live_tiers(
        st, create_communicator("hierarchical:2x2", nprocs=8).topology)
    assert any(e.tiers.wire_xrack for e in tiered)  # rack tier engaged
    assert st.modeled_xrack_bytes() > 0


def test_flat_records_price_every_byte_on_the_network():
    """Under flat metering every rank is its own node and rack and no
    event carries a wire model: every metered byte counts as network
    traffic, none as shared-memory or cross-rack."""
    _, st = run_spmd(4, _workout, backend="serial", comm="flat")
    assert not st.tiered
    assert st.modeled_inter_bytes() == st.total_bytes > 0
    assert st.modeled_intra_bytes() == st.modeled_xrack_bytes() == 0


@backends
def test_rack_tier_never_changes_results(backend):
    out_h, st_h = run_spmd(8, _workout, backend=backend, comm="hierarchical:2")
    out_r, st_r = run_spmd(8, _workout, backend=backend,
                           comm="hierarchical:2x2")
    assert out_h == out_r
    assert st_h.signature() == st_r.signature()


# -- pricing -----------------------------------------------------------------

def _stats(comm_spec):
    _, st = run_spmd(8, _workout, backend="serial", comm=comm_spec)
    return st


def test_rack_terms_price_rack_traffic():
    st = _stats("hierarchical:2x2")
    base = TimeModel(machine=BLUE_WATERS_TIERED).total_time(st)
    pricier = TieredMachineModel(
        alpha=BLUE_WATERS_TIERED.alpha, beta=BLUE_WATERS_TIERED.beta,
        alpha_intra=BLUE_WATERS_TIERED.alpha_intra,
        beta_intra=BLUE_WATERS_TIERED.beta_intra,
        alpha_rack=10 * BLUE_WATERS_TIERED.alpha_rack,
        beta_rack=10 * BLUE_WATERS_TIERED.beta_rack,
    )
    assert TimeModel(machine=pricier).total_time(st) > base


def test_rackless_records_price_independent_of_rack_constants():
    """On one rack the xrack meters are zero, so the rack constants must
    be inert."""
    for spec in ("flat", "hierarchical:2"):
        st = _stats(spec)
        base = TimeModel(machine=BLUE_WATERS_TIERED).total_time(st)
        scaled = TieredMachineModel(
            alpha=BLUE_WATERS_TIERED.alpha, beta=BLUE_WATERS_TIERED.beta,
            alpha_intra=BLUE_WATERS_TIERED.alpha_intra,
            beta_intra=BLUE_WATERS_TIERED.beta_intra,
            alpha_rack=1000 * BLUE_WATERS_TIERED.alpha_rack,
            beta_rack=1000 * BLUE_WATERS_TIERED.beta_rack,
        )
        assert TimeModel(machine=scaled).total_time(st) == base


def test_batched_pricing_matches_scalar():
    """The NumPy-batched cost path must agree bit-for-bit with the
    per-event rule (``tests/reference/pricing.py``), rack terms included."""
    st = _stats("hierarchical:2x2")
    m = BLUE_WATERS_TIERED
    lat_b, bw_b = m.cost_parts_batch(st.events, st.nprocs)
    for i, e in enumerate(st.events):
        lat_s, bw_s = pricing.cost_parts(m, e, st.nprocs)
        assert lat_b[i] == lat_s
        assert bw_b[i] == bw_s
