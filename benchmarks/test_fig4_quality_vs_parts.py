"""Fig. 4: partition quality vs. part count, three partitioners.

Paper: edge cut ratio and scaled max cut for XtraPuLP / PuLP / ParMETIS on
six graphs, parts 2→256.  Key shapes: cut ratio rises with part count and
approaches 1.0 for rmat; the mesh (nlpkkt240) stays nearly flat and low;
XtraPuLP tracks PuLP closely; ParMETIS fails on some irregular inputs but
is clearly best on the mesh class.
"""

from functools import partial

from repro.baselines import MultilevelResourceError, multilevel_partition, pulp
from repro.bench import ExperimentTable
from repro.bench.harness import run_xtrapulp
from repro.suite import REPRESENTATIVE_SIX

PART_COUNTS = [2, 8, 32, 128]


def test_fig4_quality_vs_parts(benchmark, suite_graph):
    table = ExperimentTable(
        "fig4_quality_vs_parts",
        ["graph", "partitioner", "parts", "cut_ratio", "max_cut_ratio"],
        notes="paper sweeps 2-256 parts; '(fail)' rows omitted",
    )

    def experiment():
        out = {}
        for name in REPRESENTATIVE_SIX:
            g = suite_graph(name, "small")
            methods = {
                "XtraPuLP": partial(run_xtrapulp, graph_name=name, nprocs=4),
                "PuLP": partial(pulp, threads=4),
                "Multilevel": partial(multilevel_partition, seed=0),
            }
            for p in PART_COUNTS:
                for label, partition in methods.items():
                    try:
                        q = partition(g, num_parts=p).quality(g)
                    except MultilevelResourceError:
                        q = None
                    out[(name, label, p)] = q
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for (name, partitioner, p), q in sorted(results.items()):
        if q is not None:
            table.add(name, partitioner, p, q.cut_ratio, q.max_cut_ratio)
    table.emit()

    def cut(name, partitioner, p):
        q = results[(name, partitioner, p)]
        return None if q is None else q.cut_ratio

    # cut rises with part count for the skewed classes, approaching 1
    for name in ("rmat", "social"):
        assert cut(name, "XtraPuLP", 128) > cut(name, "XtraPuLP", 2)
        assert cut(name, "XtraPuLP", 128) > 0.7
    # mesh stays low even at high part counts (paper's nlpkkt240 shape)
    assert cut("mesh", "XtraPuLP", 128) < 0.5
    # XtraPuLP tracks PuLP within a modest factor everywhere
    for name in REPRESENTATIVE_SIX:
        for p in PART_COUNTS:
            a, b = cut(name, "XtraPuLP", p), cut(name, "PuLP", p)
            if a and b:
                assert a < 1.8 * b + 0.05
