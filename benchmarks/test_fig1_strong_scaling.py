"""Fig. 1: strong scaling on the Blue Waters analog.

Paper: partitioning WDC12 / RMAT / RandER / RandHD (3.56 B vertices each)
into 256 parts on 256→2048 nodes; speedups 2.9× (WDC12), 8.4× (RMAT),
6.8× (RandER), 5.7× (RandHD) over the 8× node range.

Here: the same four graph classes at 2^15 vertices, 32 parts, 2→16 ranks
(the same 8× span), modeled Blue-Waters-like time.

Shapes to reproduce: all four curves fall with rank count; the synthetic
graphs scale better than the crawl (load balance); RandHD is the cheapest
per rank count, RMAT the most expensive.
"""

from repro.bench import ExperimentTable
from repro.bench.harness import run_xtrapulp, speedup_series

GRAPHS = ["webcrawl", "rmat", "rander", "randhd"]  # webcrawl == WDC12 analog
RANKS = [2, 4, 8, 16]
PARTS = 32


def test_fig1_strong_scaling(benchmark, suite_graph):
    table = ExperimentTable(
        "fig1_strong_scaling",
        ["graph", "nprocs", "modeled_s", "speedup_vs_2"],
        notes=f"{PARTS} parts, scale=medium; paper: 256 parts on 256-2048 nodes",
    )

    def experiment():
        out = {}
        for name in GRAPHS:
            g = suite_graph(name, "medium")
            times = {}
            for nprocs in RANKS:
                times[nprocs] = run_xtrapulp(g, name, PARTS, nprocs).modeled_seconds
            out[name] = times
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for name, times in results.items():
        speedups = speedup_series(times)
        for nprocs in RANKS:
            table.add(name, nprocs, times[nprocs], round(speedups[nprocs], 2))
    table.emit()

    for name, times in results.items():
        speedup = times[RANKS[0]] / times[RANKS[-1]]
        assert speedup > 1.5, f"{name} shows no strong scaling ({speedup:.2f}x)"
    # RandHD cheapest, RMAT most expensive at the largest rank count (paper)
    last = {name: times[RANKS[-1]] for name, times in results.items()}
    assert last["randhd"] < last["rmat"]
