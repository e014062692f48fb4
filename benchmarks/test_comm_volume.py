"""Communication volume of ExchangeUpdates against the paper's record.

Runs the full XtraPuLP pipeline on the standard bench graphs and records
the ExchangeUpdates record bytes per exchange phase beside what the same
records would weigh as the paper's 16-byte ``(gid, part)`` int64 pairs
(``16 * bytes / bytes_per_record``).  Acceptance: every phase ships whole
records, and a record is at least 3x smaller than the paper's.

A phase's metered Alltoallv bytes are its records plus the size-delta
operand each LP iteration's exchange carries on its consensus (the
paper's ``AllReduce(C)``): ``d x p`` 8-byte entries per rank and
iteration, for the phase's ``d`` tracked totals and ``p`` parts.  The
operand is subtracted and booked in its own column.
"""

from repro.bench import ExperimentTable
from repro.core import PulpParams, xtrapulp
from repro.core.lp import SPECS
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
         "reduction", "operand_bytes"],
        notes=f"{'/'.join(GRAPHS)}/small, {PARTS} parts on {NPROCS} ranks, "
              "ExchangeUpdates record bytes per phase beside the same "
              f"records at the paper's {PAPER_RECORD} B, and the size-delta "
              "operand the phase's exchanges carried; acceptance: whole "
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
        params = result.params
        per_tag = result.stats.bytes_by_tag_op()
        total = operand_total = 0
        for ph in PHASES:
            spec = SPECS[ph]
            iters = params.outer_iters * getattr(params, spec.iters)
            per_rank = len(spec.totals) * PARTS * 8
            operand = iters * NPROCS * per_rank
            # exactly one exchange per iteration, every rank's carrying
            # the operand: the subtraction removes the operand and no
            # record
            exchanges = [e for e in result.stats.events
                         if e.tag == ph and e.op == "alltoallv"]
            assert len(exchanges) == iters, (name, ph, len(exchanges))
            assert all((e.bytes_sent >= per_rank).all() for e in exchanges)
            payload = per_tag.get(ph, {}).get("alltoallv", 0) - operand
            assert payload > 0 and payload % record == 0, (
                f"{name}/{ph}: {payload} B is not whole {record} B records"
            )
            total += payload
            operand_total += operand
            table.add(name, ph, payload, record,
                      PAPER_RECORD * payload // record, round(reduction, 2),
                      operand)
        table.add(name, "TOTAL", total, record,
                  PAPER_RECORD * total // record, round(reduction, 2),
                  operand_total)
    table.emit()
