"""Wire format of ``ExchangeUpdates``.

Update records travel as build-time-routed ``(ghost slot, part)`` pairs in
the narrowest dtypes the global graph admits — the paper's 16-byte
``(gid, part)`` int64 pair shrunk by the dtype ratio.  The metered payload
of every label-propagation phase must be whole records of that size, and
partitions and records must agree on every backend (their absolute values
are pinned by ``tests/golden``, case ``rmat-p8-ranks3-flat``).
"""

import numpy as np

from repro.core import PulpParams, xtrapulp
from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.dist.wire import make_wire_spec
from repro.graph import generators
from repro.simmpi import run_spmd

BACKENDS = ("serial", "threads", "procs")
LP_PHASES = ("vertex_balance", "vertex_refine", "edge_balance", "edge_refine")


# -- spec construction -------------------------------------------------------


def test_make_wire_spec_narrows_dtypes():
    spec = make_wire_spec(max_ghost_global=1000, num_parts=16)
    assert spec.slot_dtype == np.uint16 and spec.part_dtype == np.int16
    assert spec.bytes_per_record == 4
    wide = make_wire_spec(max_ghost_global=2**20, num_parts=2**20)
    assert wide.slot_dtype == np.uint32 and wide.part_dtype == np.int32
    assert wide.bytes_per_record == 8


# -- what the phases put on the wire -----------------------------------------


def test_exchange_payload_is_whole_records():
    g = generators.rmat(9, avg_degree=8, seed=11)
    dist = make_distribution("random", g.n, 4, seed=3)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=8, params=PulpParams(seed=123))
        initialize(comm, state)
        lp_phase(comm, state, SPECS["vertex_balance"], 5)
        lp_phase(comm, state, SPECS["vertex_refine"], 10)
        lp_phase(comm, state, SPECS["edge_balance"], 5)
        lp_phase(comm, state, SPECS["edge_refine"], 10)
        return state.wire.bytes_per_record

    out, stats = run_spmd(4, main)
    record = out[0]
    assert out == [record] * 4
    # at least 3x below the 16-byte record of the paper's listing
    assert 3 * record <= 16
    per_tag = stats.bytes_by_tag_op()
    for tag in LP_PHASES:
        payload = per_tag[tag]["alltoallv"]
        assert payload > 0 and payload % record == 0


# -- agreement on every backend ----------------------------------------------


def test_backends_agree_under_compact_wire():
    g = generators.rmat(9, avg_degree=8, seed=17)
    runs = [
        xtrapulp(g, 8, nprocs=4, params=PulpParams(seed=123), backend=b)
        for b in BACKENDS
    ]
    for other in runs[1:]:
        np.testing.assert_array_equal(other.parts, runs[0].parts)
        assert other.stats.bytes_by_tag() == runs[0].stats.bytes_by_tag()
