"""Fig. 5: quality vs. rank count at fixed part count (WDC12 analog).

Paper: 256 parts of WDC12 on 256→2048 Blue Waters nodes.  Edge cut ratio
stays 0.04–0.07 — far below vertex-block (0.16) and random (~1.0); the
partitions stay edge-balanced while block partitioning's "low cut" comes
with a 1.85 edge imbalance; the scaled max cut drifts up with rank count
(the mult throttle grants each rank fewer updates).

Here: webcrawl analog, 32 parts, ranks 2→16, plus the block/random
reference lines.
"""

from repro.baselines import random_partition, vertex_block_partition
from repro.bench import ExperimentTable
from repro.bench.harness import run_xtrapulp
from repro.core.quality import edge_balance, edge_cut_ratio

RANKS = [2, 4, 8, 16]
PARTS = 32


def test_fig5_quality_vs_ranks(benchmark, suite_graph):
    table = ExperimentTable(
        "fig5_quality_vs_ranks",
        ["config", "nprocs", "cut_ratio", "max_cut_ratio", "edge_balance"],
        notes="webcrawl analog of WDC12, 32 parts (paper: 256 parts, 256-2048 nodes)",
    )

    def experiment():
        g = suite_graph("webcrawl", "medium")
        runs = {
            nprocs: run_xtrapulp(g, "webcrawl", PARTS, nprocs).quality(g)
            for nprocs in RANKS
        }
        block = vertex_block_partition(g, PARTS)
        rand = random_partition(g, PARTS, seed=0)
        refs = {
            "VertexBlock": (
                edge_cut_ratio(g, block, PARTS), edge_balance(g, block, PARTS)
            ),
            "Random": (
                edge_cut_ratio(g, rand, PARTS), edge_balance(g, rand, PARTS)
            ),
        }
        return runs, refs

    runs, refs = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for nprocs, q in runs.items():
        table.add("XtraPuLP", nprocs, q.cut_ratio, q.max_cut_ratio,
                  q.edge_balance)
    for name, (cut, ebal) in refs.items():
        table.add(name, "-", cut, "-", ebal)
    table.emit()

    block_cut, block_ebal = refs["VertexBlock"]
    rand_cut, _ = refs["Random"]
    for nprocs, q in runs.items():
        # far below random cut at every rank count
        assert q.cut_ratio < 0.5 * rand_cut
        # and edge-balanced, unlike block partitioning
        assert q.edge_balance < block_ebal
    assert rand_cut > 0.9  # random cuts nearly everything
    assert block_ebal > 1.3  # crawl-block is imbalanced (paper: 1.85)
