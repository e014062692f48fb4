"""Topology-aware communication subsystem: spec grammar, the node/rack
model, the ``create_communicator`` factory, the hierarchical two-level
metering rules, and — the load-bearing guarantee — flat vs hierarchical
bit-identity of results and communication records on every backend."""

import numpy as np
import pytest

from repro.core import PulpParams, xtrapulp
from repro.graph import generators
from repro.simmpi import run_spmd
from repro.simmpi import create_runtime
from repro.simmpi.topology import (
    COUNT_WIRE_BYTES,
    DEFAULT_RANKS_PER_NODE,
    HierarchicalCommunicator,
    Topology,
    create_communicator,
    make_topology,
    parse_comm_spec,
)
from tests.reference.tiers import tier_row

BACKENDS = ("serial", "threads", "procs")

backends = pytest.mark.parametrize("backend", BACKENDS)


# -- spec grammar ------------------------------------------------------------

def test_parse_comm_spec_name_only():
    assert parse_comm_spec("flat") == ("flat", None, None)
    assert parse_comm_spec("hierarchical") == ("hierarchical", None, None)


def test_parse_comm_spec_ranks_per_node():
    assert parse_comm_spec("hierarchical:16") == ("hierarchical", 16, None)


def test_parse_comm_spec_full():
    assert parse_comm_spec("hierarchical:8x4") == ("hierarchical", 8, 4)


@pytest.mark.parametrize("bad", [
    "", ":8", "hierarchical:", "hierarchical:abc", "hierarchical:8x",
    "hierarchical:8xq", "hierarchical:0", "hierarchical:8x0",
    "hierarchical:-2",
])
def test_parse_comm_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_comm_spec(bad)


def test_parse_comm_spec_rejects_non_string():
    with pytest.raises(ValueError):
        parse_comm_spec(None)


# -- topology model ----------------------------------------------------------

def test_topology_node_grouping():
    t = Topology(nprocs=10, ranks_per_node=4)
    assert t.n_nodes == 3  # 4 + 4 + 2
    assert t.multi_node
    assert t.max_node_size == 4
    assert [t.node_of(r) for r in range(10)] == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]
    assert t.node_size(2) == 2  # short last node
    assert t.leader_of(6) == 4
    assert t.is_leader(4) and not t.is_leader(5)
    assert t.node_of(4) == t.node_of(7) != t.node_of(3)


def test_topology_node_of_ranks_matches_scalar():
    t = Topology(nprocs=10, ranks_per_node=4)
    node_map = t.node_of_ranks()
    assert node_map.dtype == np.int32
    np.testing.assert_array_equal(
        node_map, [t.node_of(r) for r in range(10)])


def test_topology_rack_tier():
    t = Topology(nprocs=32, ranks_per_node=4, nodes_per_rack=2)
    assert t.nodes_per_rack == 2 and t.multi_rack
    assert t.n_racks == 4
    assert t.rack_of(0) == 0 and t.rack_of(8) == 1 and t.rack_of(31) == 3
    # no rack width: one rack holding every node
    one_rack = Topology(nprocs=32, ranks_per_node=4)
    assert one_rack.nodes_per_rack == one_rack.n_nodes == 8
    assert one_rack.n_racks == 1 and not one_rack.multi_rack
    assert one_rack.rack_of(31) == 0


def test_topology_validates():
    with pytest.raises(ValueError):
        Topology(nprocs=0, ranks_per_node=4)
    with pytest.raises(ValueError):
        Topology(nprocs=4, ranks_per_node=0)
    with pytest.raises(ValueError):
        Topology(nprocs=8, ranks_per_node=4, nodes_per_rack=0)
    with pytest.raises(ValueError):
        Topology(nprocs=8, ranks_per_node=4).node_size(2)


def test_make_topology_defaults_and_clamps():
    assert make_topology(64).ranks_per_node == DEFAULT_RANKS_PER_NODE
    # a run smaller than one default node becomes a single full node
    tiny = make_topology(3)
    assert tiny.ranks_per_node == 3 and tiny.n_nodes == 1
    assert not tiny.multi_node


# -- factory -----------------------------------------------------------------

def test_create_by_name_and_spec():
    c = create_communicator("hierarchical:4", nprocs=16)
    assert isinstance(c, HierarchicalCommunicator)
    assert c.topology.ranks_per_node == 4 and c.topology.n_nodes == 4
    # flat is the absence of a strategy, whatever node width it names
    assert create_communicator("flat", nprocs=16) is None
    assert create_communicator("flat:4", nprocs=16) is None


def test_default_is_flat():
    """A runtime meters flat unless a strategy is asked for, and None
    leaves a pre-built runtime's strategy as it is."""
    rt = create_runtime("serial", nprocs=4)
    assert rt.comm_strategy is None
    assert PulpParams().comm is None
    rt = create_runtime("serial", nprocs=4, comm="hierarchical:2")
    assert create_runtime(rt, nprocs=4).comm_strategy is rt.comm_strategy
    assert create_runtime(rt, nprocs=4, comm="flat").comm_strategy is None


def test_unknown_strategy_raises_with_choices():
    with pytest.raises(ValueError, match="hierarchical") as exc:
        create_communicator("smoke-signals", nprocs=4)
    assert "smoke-signals" in str(exc.value)
    assert "flat" in str(exc.value)


@pytest.mark.parametrize("bad", [
    "hierarchical:8x", "hierarchical:0", "hierarchical: 8",
])
@pytest.mark.parametrize("entry", ["create_runtime", "run_spmd", "params"])
def test_malformed_suffix_reports_the_grammar_error(bad, entry):
    """A valid strategy name with a bad ``:R[xK]`` suffix is a grammar
    error, not an unknown strategy — through every front door."""
    with pytest.raises(ValueError) as exc:
        if entry == "create_runtime":
            create_runtime("serial", nprocs=2, comm=bad)
        elif entry == "run_spmd":
            run_spmd(2, lambda comm: None, backend="serial", comm=bad)
        else:
            PulpParams(comm=bad)
    assert bad in str(exc.value)
    assert "unknown communicator strategy" not in str(exc.value)


# -- hierarchical metering rules ---------------------------------------------

def _hier(nprocs, rpn):
    return create_communicator(f"hierarchical:{rpn}", nprocs=nprocs)


def test_dest_split_is_sum_preserving():
    c = _hier(8, 4)  # nodes {0..3}, {4..7}
    dest = np.array([0, 10, 20, 30, 40, 50, 60, 70], dtype=np.int64)
    intra, inter, xrack, wire_intra, wire_inter, wire_xrack = tier_row(
        c, "alltoallv", 0, int(dest.sum()), dest_bytes=dest)
    assert intra == 10 + 20 + 30
    assert inter == 40 + 50 + 60 + 70
    assert xrack == wire_xrack == 0  # one rack: nothing leaves it
    assert intra + inter == dest.sum()
    # payload exchange ships the off-node bytes on the network unchanged
    assert wire_inter == inter


def test_dest_wire_legs():
    c = _hier(8, 4)
    dest = np.full(8, 100, dtype=np.int64)
    dest[1] = 0  # self slot zeroed by the caller
    # rank 1 (non-leader): local delivery (200 to ranks 0,2... minus self)
    # + gather-to-leader of its 400 inter bytes + remote scatter of the
    # 300 off-node bytes not addressed to the remote leader (rank 4)
    intra, inter, xrack, wire_intra, _, _ = tier_row(
        c, "alltoallv", 1, int(dest.sum()), dest_bytes=dest)
    assert (intra, inter, xrack) == (300, 400, 0)
    assert wire_intra == 300 + 400 + 300
    # the leader skips the gather leg
    dest0 = np.full(8, 100, dtype=np.int64)
    dest0[0] = 0
    intra0, inter0, xrack0, wire_intra0, _, _ = tier_row(
        c, "alltoallv", 0, int(dest0.sum()), dest_bytes=dest0)
    assert (intra0, inter0, xrack0) == (300, 400, 0)
    assert wire_intra0 == 300 + 300


def test_count_headers_reencoded_uint32():
    c = _hier(8, 4)
    dest = np.full(8, 8, dtype=np.int64)  # int64 count slots per dest
    dest[0] = 0
    _, _, _, _, wire_inter, wire_xrack = tier_row(
        c, "alltoall", 0, int(dest.sum()), dest_bytes=dest, counts=True)
    assert wire_xrack == 0
    # 4 off-node destinations (ranks 4-7) at 4 wire bytes each, instead of
    # the 4 * 8 int64 bytes the flat exchange would ship
    assert wire_inter == 4 * COUNT_WIRE_BYTES
    assert wire_inter < int(dest[4:].sum())


def test_reduce_leaders_only():
    c = _hier(8, 4)
    b = 64
    # non-leader: reduces onto its leader over shared memory
    assert tier_row(c, "allreduce", 1, b) == (b, 0, 0, b, 0, 0)
    # leader: injects one value inter-node, fans the result back down
    assert tier_row(c, "allreduce", 0, b) == (0, b, 0, b, b, 0)
    # single node: everything is intra
    single = _hier(4, 4)
    assert tier_row(single, "allreduce", 0, b) == (b, 0, 0, b, 0, 0)


def test_reduce_inter_wire_is_leaders_count():
    """The hierarchical-allreduce saving: n_nodes contributions cross the
    network instead of nprocs."""
    c = _hier(16, 8)
    b = 8
    wire_inter = sum(
        tier_row(c, "allreduce", r, b)[4] for r in range(16))
    assert wire_inter == c.topology.n_nodes * b  # 2*8, not 16*8


def test_concat_all_inter_on_multi_node():
    c = _hier(8, 4)
    intra, inter, xrack, wire_intra, wire_inter, wire_xrack = tier_row(
        c, "allgatherv", 1, 32)
    assert (intra, inter, xrack) == (0, 32, 0)
    assert wire_intra == 32 and wire_inter == 32  # local gather leg
    assert wire_xrack == 0


def test_bcast_classified_by_root():
    c = _hier(8, 4)
    assert tier_row(c, "bcast", 1, 64, root=0) == (0, 0, 0, 0, 0, 0)
    assert tier_row(c, "bcast", 0, 64, root=0) == (0, 64, 0, 64, 64, 0)
    single = _hier(4, 4)
    assert tier_row(single, "bcast", 0, 64, root=0) == (64, 0, 0, 64, 0, 0)


def test_checkpoint_always_inter():
    c = _hier(8, 4)
    single = _hier(4, 4)
    assert tier_row(c, "checkpoint", 1, 128)[:3] == (0, 128, 0)
    assert tier_row(single, "checkpoint", 0, 128)[:3] == (0, 128, 0)


def test_unknown_op_conservatively_inter():
    c = _hier(8, 4)
    assert tier_row(c, "teleport", 3, 9) == (0, 9, 0, 0, 9, 0)
    single = _hier(4, 4)
    assert tier_row(single, "teleport", 3, 9) == (9, 0, 0, 9, 0, 0)


def test_hops_structure():
    c = _hier(32, 8)  # 4 nodes x 8
    # gather+exchange+scatter, n-1, no other rack
    assert c.hops("alltoallv") == (3 * 7, 3, 0)
    assert c.hops("allreduce") == (2 * 3, 2, 0)  # up+down log2(8), log2(4)
    single = _hier(8, 8)
    assert single.hops("alltoallv") == (7, 0, 0)  # degenerates to flat
    assert single.hops("allreduce") == (3, 0, 0)


# -- cross-strategy bit-identity ---------------------------------------------

def _workout(comm):
    """Touch every collective family with rank-dependent data."""
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
def test_flat_vs_hierarchical_bit_identical(backend):
    out_f, st_f = run_spmd(8, _workout, backend=backend, comm="flat")
    out_h, st_h = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    assert out_f == out_h
    assert st_f.signature() == st_h.signature()
    assert not st_f.tiered
    assert st_h.tiered


@backends
def test_tier_split_sums_to_bytes_sent(backend):
    _, st = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    tiered_events = [e for e in st.events if e.tiers is not None]
    assert tiered_events
    for e in tiered_events:
        np.testing.assert_array_equal(
            e.tiers.intra_bytes + e.tiers.inter_bytes, e.bytes_sent)
        assert not e.tiers.xrack_bytes.any()  # one rack: nothing leaves it
    # and the per-op rollup agrees with the untiered byte totals
    by_op = st.bytes_by_op()
    for op, (intra, inter, xrack) in st.rack_tier_bytes_by_op().items():
        assert intra + inter == by_op[op] and xrack == 0


@backends
def test_hierarchical_cuts_modeled_inter_bytes(backend):
    _, st_f = run_spmd(8, _workout, backend=backend, comm="flat")
    _, st_h = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    assert st_f.modeled_inter_bytes() == st_f.total_bytes
    assert st_h.modeled_inter_bytes() < st_f.modeled_inter_bytes()
    assert st_h.modeled_intra_bytes() > 0


def test_single_rank_run_has_no_tiers():
    out, st = run_spmd(1, lambda comm: comm.allreduce(1),
                       comm="hierarchical:4")
    assert out == [1]
    assert not st.tiered


@backends
def test_zero_length_contributions_stay_dtype_exempt(backend):
    """The dtype guard's zero-length exemption must survive the
    hierarchical metering path (which inspects per-destination counts)."""
    def fn(comm):
        if comm.rank == 0:
            send = np.arange(1, comm.size, dtype=np.int32)
            cts = np.ones(comm.size, dtype=np.int64)
            cts[0] = 0
        else:
            send = np.empty(0, dtype=np.float64)  # idle, different dtype
            cts = np.zeros(comm.size, dtype=np.int64)
        recv, _ = comm.Alltoallv(send, cts)
        return recv.dtype.str, recv.tolist()

    out, st = run_spmd(4, fn, backend=backend, comm="hierarchical:2")
    assert out[1] == ("<i4", [1])
    assert st.tiered


# -- end-to-end: xtrapulp under both strategies ------------------------------

@pytest.fixture(scope="module")
def small_rmat():
    return generators.rmat(8, avg_degree=8, seed=7)


@backends
def test_xtrapulp_partition_invariant_under_comm(small_rmat, backend):
    flat = xtrapulp(small_rmat, 4, nprocs=4,
                    params=PulpParams(seed=123, comm="flat"),
                    backend=backend)
    hier = xtrapulp(small_rmat, 4, nprocs=4,
                    params=PulpParams(seed=123, comm="hierarchical:2"),
                    backend=backend)
    np.testing.assert_array_equal(flat.parts, hier.parts)
    assert flat.stats.signature() == hier.stats.signature()
    assert flat.comm == "flat" and hier.comm == "hierarchical"
    assert not flat.stats.tiered
    assert hier.stats.tiered


def test_params_validate_comm_spec():
    PulpParams(comm="hierarchical:8x4")  # grammar ok, lazy name check
    with pytest.raises(ValueError):
        PulpParams(comm="hierarchical:0")
