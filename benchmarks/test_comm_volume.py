"""Communication volume of ExchangeUpdates against the paper's record.

Runs the full XtraPuLP pipeline on the standard bench graphs and records
the metered Alltoallv payload bytes per exchange phase beside what the
same records would weigh as the paper's 16-byte ``(gid, part)`` int64
pairs (``16 * bytes / bytes_per_record``).  Acceptance: every phase ships
whole records, and a record is at least 3x smaller than the paper's.
"""

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.dist import build_dist_graph, make_distribution
from repro.dist.wire import make_wire_spec
from repro.simmpi import run_spmd

PARTS = 8
NPROCS = 4
GRAPHS = ("rmat", "webcrawl")
PHASES = ("vertex_balance", "vertex_refine", "edge_balance", "edge_refine")
PAPER_RECORD = 16  # two interleaved int64 items
REDUCTION_FLOOR = 3.0  # acceptance: >=3x smaller records


def _run(graph, seed=42):
    """The default pipeline and the record width its exchanges used."""
    dist = make_distribution("random", graph.n, NPROCS, seed=seed)
    max_ghost = run_spmd(
        NPROCS,
        lambda comm: build_dist_graph(comm, graph, dist).max_ghost_global,
    )[0][0]
    result = xtrapulp(
        graph, PARTS, nprocs=NPROCS, params=PulpParams(seed=seed),
        distribution=dist,
    )
    return result, make_wire_spec(max_ghost, PARTS).bytes_per_record


def test_comm_volume(benchmark, suite_graph):
    table = ExperimentTable(
        "comm_volume",
        ["graph", "phase", "bytes", "bytes_per_record", "bytes_paper_record",
         "reduction"],
        notes=f"{'/'.join(GRAPHS)}/small, {PARTS} parts on {NPROCS} ranks, "
              "metered Alltoallv payload bytes per phase beside the same "
              f"records at the paper's {PAPER_RECORD} B; acceptance: whole "
              f"records, >= {REDUCTION_FLOOR}x smaller",
    )

    def experiment():
        return {name: _run(suite_graph(name, "small")) for name in GRAPHS}

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    for name in GRAPHS:
        result, record = runs[name]
        reduction = PAPER_RECORD / record
        assert reduction >= REDUCTION_FLOOR, (
            f"{name}: a {record} B record is only {reduction:.2f}x smaller"
        )
        per_tag = result.stats.bytes_by_tag_op()
        total = 0
        for ph in PHASES:
            payload = per_tag.get(ph, {}).get("alltoallv", 0)
            assert payload > 0 and payload % record == 0, (
                f"{name}/{ph}: {payload} B is not whole {record} B records"
            )
            total += payload
            table.add(name, ph, payload, record,
                      PAPER_RECORD * payload // record, round(reduction, 2))
        table.add(name, "TOTAL", total, record,
                  PAPER_RECORD * total // record, round(reduction, 2))
    table.emit()
