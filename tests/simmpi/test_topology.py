"""Topology-aware communication subsystem: spec grammar, the node
model, the ``create_communicator`` factory, the hierarchical two-level
metering rules (every rank at once == one rank at a time), and — the
load-bearing guarantee — flat vs hierarchical bit-identity of results
and communication records on every backend."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PulpParams, xtrapulp
from repro.graph import generators
from repro.simmpi import TimeModel, create_runtime, run_spmd
from repro.simmpi.topology import (
    DEFAULT_RANKS_PER_NODE,
    HierarchicalCommunicator,
    Topology,
    create_communicator,
    make_topology,
    parse_comm_spec,
)
from tests.reference.tiers import (
    tier_contribution,
    tier_metering,
    tier_row,
    tier_rows,
)

BACKENDS = ("serial", "threads", "procs")

backends = pytest.mark.parametrize("backend", BACKENDS)


# -- spec grammar ------------------------------------------------------------

def test_parse_comm_spec_name_only():
    assert parse_comm_spec("flat") == ("flat", None)
    assert parse_comm_spec("hierarchical") == ("hierarchical", None)


def test_parse_comm_spec_ranks_per_node():
    assert parse_comm_spec("hierarchical:16") == ("hierarchical", 16)


def test_parse_comm_spec_full():
    """``NAME[:R]`` is the whole grammar: a rack width is a typed error
    that names it."""
    with pytest.raises(ValueError, match=r"NAME\[:R\]"):
        parse_comm_spec("hierarchical:8x4")


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
    assert t.node_of_ranks().tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]


def test_topology_node_of_ranks_matches_scalar():
    t = Topology(nprocs=10, ranks_per_node=4)
    node_map = t.node_of_ranks()
    assert node_map.dtype == np.int32
    np.testing.assert_array_equal(
        node_map, [r // t.ranks_per_node for r in range(10)])


def test_topology_validates():
    with pytest.raises(ValueError):
        Topology(nprocs=0, ranks_per_node=4)
    with pytest.raises(ValueError):
        Topology(nprocs=4, ranks_per_node=0)


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
    "hierarchical:8x4",  # a rack width: no topology has racks
])
@pytest.mark.parametrize("entry", ["create_runtime", "run_spmd", "params"])
def test_malformed_suffix_reports_the_grammar_error(bad, entry):
    """A valid strategy name with a bad ``:R`` suffix is a grammar
    error naming ``NAME[:R]``, not an unknown strategy — through every
    front door (the CLI's is in ``tests/test_cli.py``)."""
    with pytest.raises(ValueError) as exc:
        if entry == "create_runtime":
            create_runtime("serial", nprocs=2, comm=bad)
        elif entry == "run_spmd":
            run_spmd(2, lambda comm: None, backend="serial", comm=bad)
        else:
            PulpParams(comm=bad)
    assert bad in str(exc.value) and "NAME[:R]" in str(exc.value)
    assert "unknown communicator strategy" not in str(exc.value)


# -- hierarchical metering rules ---------------------------------------------

def _hier(nprocs, rpn):
    return create_communicator(f"hierarchical:{rpn}", nprocs=nprocs)


def test_dest_split_is_sum_preserving():
    c = _hier(8, 4)  # nodes {0..3}, {4..7}
    dest = np.array([0, 10, 20, 30, 40, 50, 60, 70], dtype=np.int64)
    wire_intra, wire_inter = tier_row(
        c, "alltoallv", 0, int(dest.sum()), dest_bytes=dest)
    # payload exchange ships the off-node bytes on the network unchanged
    assert wire_inter == 40 + 50 + 60 + 70
    # local delivery, then the remote scatter of the off-node bytes not
    # addressed to the remote leader (rank 4)
    assert wire_intra == (10 + 20 + 30) + (50 + 60 + 70)
    # the node-local bytes and the network's are the whole payload
    assert (10 + 20 + 30) + wire_inter == dest.sum()


def test_dest_wire_legs():
    c = _hier(8, 4)
    dest = np.full(8, 100, dtype=np.int64)
    dest[1] = 0  # self slot zeroed by the caller
    # rank 1 (non-leader): local delivery (200 to ranks 0,2... minus self)
    # + gather-to-leader of its 400 inter bytes + remote scatter of the
    # 300 off-node bytes not addressed to the remote leader (rank 4)
    wire_intra, wire_inter = tier_row(
        c, "alltoallv", 1, int(dest.sum()), dest_bytes=dest)
    assert wire_inter == 400
    assert wire_intra == 300 + 400 + 300
    # the leader skips the gather leg
    dest0 = np.full(8, 100, dtype=np.int64)
    dest0[0] = 0
    assert tier_row(c, "alltoallv", 0, int(dest0.sum()),
                    dest_bytes=dest0) == (300 + 300, 400)


def test_exchange_wire_carries_no_count_header():
    """An exchange is one round: under the hierarchical strategy its
    network wire carries the payload's off-node bytes and nothing else."""
    def fn(comm):
        cts = np.arange(comm.size, dtype=np.int64) % 3
        comm.Alltoallv(np.zeros(int(cts.sum()), dtype=np.int64), cts)

    _, stats = run_spmd(8, fn, backend="serial", comm="hierarchical:4")
    (event,) = stats.events
    assert event.op == "alltoallv"
    # rank r sends r' % 3 int64 words to every r'; nodes {0..3}, {4..7}
    sends = 8 * (np.arange(8) % 3)
    off_node = 4 * sends[4:].sum() + 4 * sends[:4].sum()
    assert event.tiers.wire_inter == off_node == stats.modeled_inter_bytes()
    assert off_node > 0


def test_reduce_leaders_only():
    c = _hier(8, 4)
    b = 64
    # non-leader: reduces onto its leader over shared memory
    assert tier_row(c, "allreduce", 1, b) == (b, 0)
    # leader: injects one value inter-node, fans the result back down
    assert tier_row(c, "allreduce", 0, b) == (b, b)
    # single node: everything is intra
    single = _hier(4, 4)
    assert tier_row(single, "allreduce", 0, b) == (b, 0)


def test_reduce_inter_wire_is_leaders_count():
    """The hierarchical-allreduce saving: n_nodes contributions cross the
    network instead of nprocs."""
    c = _hier(16, 8)
    b = 8
    wire_inter = sum(
        tier_row(c, "allreduce", r, b)[1] for r in range(16))
    assert wire_inter == c.topology.n_nodes * b  # 2*8, not 16*8


def test_concat_all_inter_on_multi_node():
    c = _hier(8, 4)
    wire_intra, wire_inter = tier_row(c, "allgatherv", 1, 32)
    assert wire_inter == 32
    assert wire_intra == 32  # local gather leg


def test_unknown_op_has_no_tier_rule():
    """Every op SimComm emits has a rule (``test_simmpi_surface.py``), so
    an op without one is an error, not a guess."""
    with pytest.raises(ValueError, match="no tier rule"):
        tier_row(_hier(8, 4), "teleport", 3, 9)


# -- the matrix is the scalar rule, row by row --------------------------------

#: every op SimComm emits
_OPS = ("alltoallv", "allreduce", "barrier", "allgatherv")

#: (nprocs, ranks/node): a single node, one rank per node, a short last
#: node, a short last node of many, full nodes
_SHAPES = [(4, 4), (5, 1), (10, 4), (22, 4), (8, 2)]


@st.composite
def _topologies(draw):
    """The named shapes, and random ones."""
    nprocs, rpn = draw(st.one_of(
        st.sampled_from(_SHAPES),
        st.integers(1, 24).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n + 1)))))
    return _hier(nprocs, rpn)


@settings(max_examples=300, deadline=None)
@given(comm=_topologies(), op=st.sampled_from(_OPS), data=st.data())
def test_tier_rows_are_the_scalar_rule(comm, op, data):
    """Every rank of a round metered at once == the rule the ranks used
    to evaluate one deposit at a time (``tests/reference/tiers.py``), and
    the round's two numbers == that rule's rows summed rank by rank —
    for an exchange, with or without a reduction operand riding it."""
    nprocs = comm.topology.nprocs
    reduced = None
    if op == "alltoallv":
        # sparse, so the rule sees zero and non-zero slots
        traffic = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0, 0, 1, 8, 1000]),
                     min_size=nprocs, max_size=nprocs),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
        np.fill_diagonal(traffic, 0)
        nbytes = traffic.sum(axis=1)
        if data.draw(st.booleans()):
            reduced = np.full(nprocs, data.draw(st.sampled_from([0, 8, 24])),
                              dtype=np.int64)
    else:
        nbytes = traffic = np.array(data.draw(st.lists(
            st.sampled_from([0, 8, 1000]),
            min_size=nprocs, max_size=nprocs)), dtype=np.int64)
    columns = comm.wire_columns(op, traffic, reduced)
    assert [c.dtype for c in columns] == [np.int64] * 2
    rows = [tier_contribution(
                comm.topology, op, r, nbytes[r],
                dest_bytes=traffic[r] if traffic.ndim == 2 else None)
            for r in range(nprocs)]
    if reduced is not None:
        rows = [tuple(a + b for a, b in zip(row, tier_contribution(
                    comm.topology, "allreduce", r, reduced[r])))
                for r, row in enumerate(rows)]
    assert tier_rows(columns) == rows
    tiers = dataclasses.asdict(comm.tiers(op, traffic, reduced))
    assert all(type(v) is int for v in tiers.values())
    assert tiers == tier_metering(comm.topology, op, traffic, reduced)


# -- cross-strategy bit-identity ---------------------------------------------

def _workout(comm):
    """Touch every collective family with rank-dependent data (the
    exchange's bytes are :func:`_workout_traffic`)."""
    rank, size = comm.rank, comm.size
    rng = np.random.default_rng(rank)
    cts = rng.integers(0, 5, size=size).astype(np.int64)
    cts[rank] = 0
    payload = np.arange(int(cts.sum()), dtype=np.int64) + 100 * rank
    recv, rcts = comm.Alltoallv(payload, cts)
    total = int(comm.Allreduce(np.array([recv.sum()]))[0])
    gathered, _ = comm.Allgatherv(np.array([rank * rank]))
    top = int(comm.Allreduce(np.array([total]), op="max")[0])
    return total, tuple(gathered.tolist()), top, int(rcts.sum())


def _workout_traffic(size):
    """The ``P x P`` bytes :func:`_workout`'s exchange sends."""
    traffic = np.stack([
        8 * np.random.default_rng(rank).integers(0, 5, size=size)
        for rank in range(size)]).astype(np.int64)
    np.fill_diagonal(traffic, 0)
    return traffic


def check_live_tiers(stats, topo):
    """Every tiered event of a :func:`_workout` run holds the two numbers
    the one-rank-at-a-time rule gives, and the exchange's node-local
    bytes and network wire sum to its ``bytes_sent``."""
    tiered = [e for e in stats.events if e.tiers is not None]
    assert len(tiered) == len(stats.events) > 0
    traffic = _workout_traffic(topo.nprocs)
    for e in tiered:
        got = dataclasses.asdict(e.tiers)
        assert all(type(v) is int for v in got.values())
        assert got == tier_metering(
            topo, e.op, traffic if e.op == "alltoallv" else e.bytes_sent)
        if e.op == "alltoallv":
            local = sum(
                int(traffic[lo:lo + topo.ranks_per_node,
                            lo:lo + topo.ranks_per_node].sum())
                for lo in range(0, topo.nprocs, topo.ranks_per_node))
            assert local + e.tiers.wire_inter == e.total_bytes
    return tiered


@backends
def test_flat_vs_hierarchical_bit_identical(backend):
    out_f, st_f = run_spmd(8, _workout, backend=backend, comm="flat")
    out_h, st_h = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    assert out_f == out_h
    assert st_f.signature() == st_h.signature()
    assert not st_f.tiered
    assert st_h.tiered
    # one machine model: the tier report never enters the price
    assert (repr(TimeModel().breakdown(st_f))
            == repr(TimeModel().breakdown(st_h)))


@backends
def test_tier_split_sums_to_bytes_sent(backend):
    _, st = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    check_live_tiers(st, _hier(8, 4).topology)


@backends
def test_hierarchical_cuts_modeled_inter_bytes(backend):
    _, st_f = run_spmd(8, _workout, backend=backend, comm="flat")
    _, st_h = run_spmd(8, _workout, backend=backend, comm="hierarchical:4")
    assert st_f.modeled_inter_bytes() == st_f.total_bytes
    assert st_h.modeled_inter_bytes() < st_f.modeled_inter_bytes()
    assert st_h.modeled_intra_bytes() > 0


def test_single_rank_run_has_no_tiers():
    out, st = run_spmd(1, lambda comm: comm.Allreduce(np.ones(1)).tolist(),
                       comm="hierarchical:4")
    assert out == [[1.0]]
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
    PulpParams(comm="hierarchical:8")  # grammar ok, lazy name check
    with pytest.raises(ValueError, match=r"NAME\[:R\]"):
        PulpParams(comm="hierarchical:8x4")
    with pytest.raises(ValueError):
        PulpParams(comm="hierarchical:0")
