"""Table II: XtraPuLP (16 ranks) vs PuLP (1 node) vs ParMETIS-like times.

Paper (Cluster-1, computing 16 parts): single-node PuLP beats ParMETIS on
every small-world class (up to 100×); ParMETIS wins only on the regular
meshes; 16-node XtraPuLP beats single-node PuLP on all small-world graphs
(1.3–7.2×); ParMETIS fails (OOM) on several large irregular inputs.

Here the time comparison between the label-propagation family and the
multilevel family is **wall clock of the two real NumPy implementations**
(same interpreter, same machine — per-edge constants comparable), while
the XtraPuLP-vs-PuLP comparison uses the deterministic modeled times
(same engine, different machine models).  Known deviation recorded in
EXPERIMENTS.md: the paper's ParMETIS *wins* on meshes thanks to decades of
bucket-FM engineering our vectorized refinement does not replicate; the
reproduced invariant is the *relative* ordering across classes (multilevel
is closest to label propagation on meshes, furthest on small-world).
"""

from functools import partial

from repro.baselines import MultilevelResourceError, multilevel_partition, pulp
from repro.bench import ExperimentTable
from repro.bench.harness import run_xtrapulp
from repro.suite import REPRESENTATIVE_SIX

PARTS = 16


def test_table2_partitioner_times(benchmark, suite_graph):
    table = ExperimentTable(
        "table2_partitioner_times",
        ["graph", "xtrapulp16_model_s", "pulp_model_s", "xtra_vs_pulp",
         "pulp_wall_s", "ml_wall_s", "ml_vs_pulp_wall"],
        notes="16 parts; ml '(fail)' = resource failure (ParMETIS-OOM analog)",
    )

    def experiment():
        out = {}
        for name in REPRESENTATIVE_SIX:
            g = suite_graph(name, "small")
            # the wall-to-wall comparison runs PuLP sequentially (one python
            # thread, like the multilevel code) so neither pays simulation
            # rendezvous overhead the other does not
            methods = {
                "xtra": partial(run_xtrapulp, graph_name=name, nprocs=16),
                "pulp": partial(pulp, threads=16),
                "pulp_seq": partial(pulp, threads=1),
                "ml": partial(multilevel_partition, seed=0),
            }
            r = {}
            for label, partition in methods.items():
                try:
                    r[label] = partition(g, num_parts=PARTS)
                except MultilevelResourceError:
                    r[label] = None
            out[name] = (r["xtra"].modeled_seconds, r["pulp"].modeled_seconds,
                         r["pulp_seq"].wall_seconds,
                         None if r["ml"] is None else r["ml"].wall_seconds)
        return out

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for name, (xtra, pulp_m, pulp_w, ml) in results.items():
        table.add(
            name,
            xtra,
            pulp_m,
            round(pulp_m / xtra, 2),
            pulp_w,
            "(fail)" if ml is None else round(ml, 3),
            "(fail)" if ml is None else round(ml / pulp_w, 2),
        )
    table.emit()

    small_world = ["social", "webcrawl", "rmat", "rander"]
    # multilevel costs more wall time than the label-prop engine on every
    # small-world class, and the gap is largest there (mesh is its best case)
    ml_ratio = {
        name: results[name][3] / results[name][2]
        for name in REPRESENTATIVE_SIX
        if results[name][3] is not None
    }
    for name in small_world:
        if name in ml_ratio:
            assert ml_ratio[name] > 1.0, f"multilevel unexpectedly fast on {name}"
    if "mesh" in ml_ratio:
        assert ml_ratio["mesh"] <= min(
            ml_ratio[n] for n in small_world if n in ml_ratio
        ) * 1.5
    # distributed XtraPuLP stays within a small factor of one shared-memory
    # node (paper: it *beats* PuLP on 16 nodes; the network costs modeled
    # here keep it close at laptop scale)
    for name in small_world:
        xtra, pulp_m = results[name][0], results[name][1]
        assert xtra < 5 * pulp_m
