"""Inter-node traffic: two-level (hierarchical) exchange vs flat.

Runs the full XtraPuLP pipeline at 64 simulated ranks under the default
``flat`` communicator and under ``hierarchical:8`` (8 nodes x 8
ranks/node) on every execution backend, and compares the *modeled
inter-node wire bytes* — what each strategy would put on the network.
Under ``flat`` every rank is its own node, so all metered bytes cross the
network; the two-level protocol keeps node-local payload in shared
memory, injects one aggregated message per node pair, and runs
reductions leaders-only.

Acceptance: >= 2x reduction in modeled inter-node bytes overall, with the
hierarchical run bit-identical to flat in partition and communication
record on serial, threads, and procs (the strategy is metering-only).
"""

import numpy as np

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp

PARTS = 16
NPROCS = 64
RANKS_PER_NODE = 8
BACKENDS = ("serial", "threads", "procs")
GRAPH = "rmat"
REDUCTION_FLOOR = 2.0  # acceptance: >= 2x less modeled inter-node traffic


def _run(graph, comm, backend):
    return xtrapulp(
        graph, PARTS, nprocs=NPROCS,
        params=PulpParams(seed=42, comm=comm), backend=backend,
    )


def _inter_by_op(stats):
    """Modeled inter-node wire bytes per op (untiered events ship their
    full payload: one rank per node under flat)."""
    out = {}
    for e in stats.events:
        inter = (e.tiers.wire_inter if e.tiers is not None
                 else e.total_bytes)
        out[e.op] = out.get(e.op, 0) + inter
    return out


def test_hierarchy_volume(benchmark, suite_graph):
    table = ExperimentTable(
        "hierarchy_volume",
        ["backend", "op", "inter_flat", "inter_hier", "reduction"],
        notes=f"{GRAPH}/small, {PARTS} parts on {NPROCS} ranks as "
              f"{NPROCS // RANKS_PER_NODE} nodes x {RANKS_PER_NODE}; "
              "modeled inter-node wire bytes per collective op; TOTAL "
              f"rows gate the acceptance (>= {REDUCTION_FLOOR}x)",
    )

    def experiment():
        g = suite_graph(GRAPH, "small")
        return {
            b: (_run(g, "flat", b),
                _run(g, f"hierarchical:{RANKS_PER_NODE}", b))
            for b in BACKENDS
        }

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    ref_parts = runs["serial"][0].parts
    for b in BACKENDS:
        flat, hier = runs[b]
        # metering-only: same partition, same communication record, both
        # across strategies and across backends
        np.testing.assert_array_equal(flat.parts, hier.parts)
        np.testing.assert_array_equal(flat.parts, ref_parts)
        assert flat.stats.signature() == hier.stats.signature()
        assert not flat.stats.tiered and hier.stats.tiered
        assert flat.comm == "flat" and hier.comm == "hierarchical"

        per_f, per_h = _inter_by_op(flat.stats), _inter_by_op(hier.stats)
        assert per_f.keys() == per_h.keys()
        for op in sorted(per_f):
            ratio = per_f[op] / max(per_h[op], 1)
            table.add(b, op, per_f[op], per_h[op], round(ratio, 2))
        tot_f = flat.stats.modeled_inter_bytes()
        tot_h = hier.stats.modeled_inter_bytes()
        assert tot_f == sum(per_f.values())
        assert tot_h == sum(per_h.values())
        total_ratio = tot_f / max(tot_h, 1)
        table.add(b, "TOTAL", tot_f, tot_h, round(total_ratio, 2))
        assert total_ratio >= REDUCTION_FLOOR, (
            f"{b}: only {total_ratio:.2f}x modeled inter-node reduction"
        )
    table.emit()
