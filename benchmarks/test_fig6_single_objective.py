"""Fig. 6: single-objective single-constraint comparison (vs KaHIP et al.).

Paper: with edge-balancing disabled, XtraPuLP's cut is within a small
factor of Meyerhenke et al. (KaHIP) and ParMETIS on lj / rmat_22 /
uk-2002 while running far faster than both; execution-time performance
ratios 1.27 (PuLP), 1.73 (XtraPuLP), 11.81 (ParMETIS), 26.5 (KaHIP).

Here: social / rmat / webcrawl analogs, parts 2→64; XtraPuLP and PuLP in
single-objective mode vs the multilevel baseline in both quality modes.
"""

from functools import partial

from repro.baselines import (
    MultilevelResourceError,
    multilevel_partition,
    pulp,
)
from repro.bench import ExperimentTable
from repro.bench.harness import run_xtrapulp
from repro.core.driver import PartitionResult
from repro.core.quality import performance_ratios
from repro.simmpi.timing import SINGLE_NODE_MPI

GRAPHS = ["social", "rmat", "webcrawl"]  # lj / rmat_22 / uk-2002 analogs
PART_COUNTS = [2, 8, 32]
#: "All codes are run using 16-way parallelism": PuLP = 16 threads,
#: XtraPuLP = 16 single-core MPI ranks sharing a node.
WAYS = 16


def test_fig6_single_objective(benchmark, suite_graph):
    table = ExperimentTable(
        "fig6_single_objective",
        ["graph", "partitioner", "parts", "cut_ratio", "modeled_s", "wall_s"],
        notes="single-objective mode; multilevel 'high' = KaHIP-like; "
              "modeled_s for label propagation only",
    )

    def experiment():
        out = {}
        for name in GRAPHS:
            g = suite_graph(name, "small")
            methods = {
                "XtraPuLP": partial(run_xtrapulp, graph_name=name, nprocs=WAYS,
                                    single_objective=True,
                                    machine=SINGLE_NODE_MPI),
                "PuLP": partial(pulp, threads=WAYS, single_objective=True),
                "ParMETIS-like": partial(multilevel_partition, seed=0),
                "KaHIP-like": partial(multilevel_partition, quality="high",
                                      seed=0),
            }
            for p in PART_COUNTS:
                for label, partition in methods.items():
                    try:
                        r = partition(g, num_parts=p)
                    except MultilevelResourceError:
                        continue  # a missing row, as in the paper's figure
                    modeled = (r.modeled_seconds
                               if isinstance(r, PartitionResult) else None)
                    out[(name, label, p)] = (
                        r.quality(g).cut_ratio, modeled, r.wall_seconds)
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for (name, partitioner, p), (cut, modeled, wall) in sorted(results.items()):
        table.add(name, partitioner, p, cut,
                  "-" if modeled is None else modeled, wall)
    table.emit()

    # time performance ratios: label propagation far cheaper than multilevel
    methods = ["XtraPuLP", "PuLP", "ParMETIS-like", "KaHIP-like"]
    keys = [
        (g_, p) for g_ in GRAPHS for p in PART_COUNTS
        if all(results.get((g_, m, p)) for m in methods)
    ]

    def seconds(row):
        """Modeled seconds where the machine model prices the run (label
        propagation), wall seconds for the multilevel codes."""
        _, modeled, wall = row
        return wall if modeled is None else modeled

    times = {
        m: [seconds(results[(g_, m, p)]) for (g_, p) in keys] for m in methods
    }
    ratios = performance_ratios(times)
    # the paper's time ordering: PuLP <= XtraPuLP << multilevel codes
    assert ratios["PuLP"] <= ratios["XtraPuLP"] * 1.05
    assert ratios["PuLP"] < ratios["ParMETIS-like"]
    assert ratios["XtraPuLP"] < ratios["ParMETIS-like"]
    assert ratios["XtraPuLP"] < ratios["KaHIP-like"]
    print(f"   time performance ratios: { {k: round(v,2) for k,v in ratios.items()} }")
