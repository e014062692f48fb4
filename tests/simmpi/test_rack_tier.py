"""The rack tier: ``hierarchical:RxK`` grammar edge cases, rack
classification on the :class:`Topology`, three-tier byte conservation
(``intra + inter + xrack == bytes_sent``), and rack-aware pricing by
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
from tests.reference.tiers import tier_contribution, tier_row

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
    columns = ("intra_bytes", "inter_bytes", "xrack_bytes",
               "wire_intra", "wire_inter", "wire_xrack")
    for backend in BACKENDS:
        plain, oversized = (
            run_spmd(8, _workout, backend=backend, comm=spec)[1]
            for spec in ("hierarchical:2", "hierarchical:2x64"))
        assert len(plain.events) == len(oversized.events) > 0
        for a, b in zip(plain.events, oversized.events):
            for tiers in (a.tiers, b.tiers):
                assert [getattr(tiers, col).shape for col in columns] == [
                    (8,)] * 6
                assert not tiers.xrack_bytes.any()
                assert not tiers.wire_xrack.any()
                assert tiers.xrack_hops == 0
            for f in dataclasses.fields(a.tiers):
                np.testing.assert_array_equal(getattr(a.tiers, f.name),
                                              getattr(b.tiers, f.name))
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
    """hierarchical:1x1 — every rank its own node *and* rack: nothing is
    intra or in-rack, so every metered byte classifies cross-rack."""
    c = create_communicator("hierarchical:1x1", nprocs=4)
    dest = np.array([0, 10, 20, 30], dtype=np.int64)
    intra, inter, xrack, *_ = tier_row(
        c, "alltoallv", 0, int(dest.sum()), dest_bytes=dest)
    assert (intra, inter, xrack) == (0, 0, 60)


def test_tier_contribution_rack_split():
    # 8 ranks: nodes {0,1} {2,3} {4,5} {6,7}; racks {0..3} {4..7}
    c = create_communicator("hierarchical:2x2", nprocs=8)
    dest = np.array([0, 1, 2, 4, 8, 16, 32, 64], dtype=np.int64)
    intra, inter, xrack, wi, we, wx = tier_row(
        c, "alltoallv", 0, int(dest.sum()), dest_bytes=dest)
    assert intra == 1            # rank 1: same node
    assert inter == 2 + 4        # ranks 2,3: off-node, same rack
    assert xrack == 8 + 16 + 32 + 64
    assert intra + inter + xrack == dest.sum()


# -- the matrix is the scalar rule, row by row --------------------------------

#: every op SimComm emits (the count header included), "teleport" for an
#: op no rule names
_OPS = ("alltoall", "alltoallv", "allreduce", "barrier", "allgather",
        "allgatherv", "bcast", "checkpoint", "teleport")
_DEST_ADDRESSED = _OPS[:2]


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
@given(comm=_topologies(), op=st.sampled_from(_OPS), counts=st.booleans(),
       with_dest=st.booleans(), data=st.data())
def test_tier_matrix_rows_are_the_scalar_rule(comm, op, counts, with_dest,
                                              data):
    """Every rank of a round classified at once == the rule the ranks used
    to evaluate one deposit at a time (``tests/reference/tiers.py``)."""
    nprocs = comm.topology.nprocs
    ranks = range(nprocs)
    root = data.draw(st.one_of(st.none(), st.sampled_from(ranks)))
    dest = None
    if op in _DEST_ADDRESSED and with_dest:
        # sparse, so the count-header rule sees zero and non-zero slots
        dest = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 1, 8, 1000]),
                     min_size=nprocs, max_size=nprocs),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
        np.fill_diagonal(dest, 0)
        nbytes = dest.sum(axis=1)
    else:
        nbytes = np.array(data.draw(st.lists(
            st.sampled_from([0, 8, 1000]),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
    matrix = comm.tier_matrix(op, nbytes, dest, root, counts)
    assert matrix.dtype == np.int64
    for r in ranks:
        assert tuple(matrix[r]) == tier_contribution(
            comm.topology, op, r, nbytes[r],
            dest_bytes=None if dest is None else dest[r],
            root=root, counts=counts)


# -- three-tier conservation on live runs ------------------------------------

def _workout(comm):
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    cts = rng.integers(0, 5, size=size).astype(np.int64)
    cts[rank] = 0
    payload = np.arange(int(cts.sum()), dtype=np.int64) + 100 * rank
    recv, rcts = comm.Alltoallv(payload, cts)
    total = comm.allreduce(int(recv.sum()))
    gathered = comm.allgather(rank * rank)
    top = int(comm.Bcast(np.array([total]), root=0)[0])
    return total, tuple(gathered), top, int(rcts.sum())


@backends
def test_three_tier_split_sums_to_bytes_sent(backend):
    _, st = run_spmd(8, _workout, backend=backend, comm="hierarchical:2x2")
    tiered = [e for e in st.events if e.tiers is not None]
    assert tiered
    assert any(e.tiers.xrack_bytes.any() for e in tiered)  # rack tier engaged
    for e in tiered:
        np.testing.assert_array_equal(
            e.tiers.intra_bytes + e.tiers.inter_bytes + e.tiers.xrack_bytes,
            e.bytes_sent)
    by_op = st.bytes_by_op()
    for op, (intra, inter, xrack) in st.rack_tier_bytes_by_op().items():
        assert intra + inter + xrack == by_op[op]
    assert st.modeled_xrack_bytes() > 0


def test_flat_records_classify_as_xrack():
    """Under flat metering every rank is its own node and rack, so the
    three-way rollup puts every byte in the widest tier."""
    _, st = run_spmd(4, _workout, backend="serial", comm="flat")
    by_op = st.bytes_by_op()
    for op, (intra, inter, xrack) in st.rack_tier_bytes_by_op().items():
        assert intra == 0 and inter == 0 and xrack == by_op[op]
    assert st.modeled_xrack_bytes() == 0  # no *wire* model without tiers


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
