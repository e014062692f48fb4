"""Frontier (active-set) sweeps vs the paper's exhaustive sweeps.

Runs the full XtraPuLP pipeline at default iteration counts on the
standard bench graphs twice — as shipped, and under the test-only
exhaustive schedule of ``tests/reference/exhaustive.py`` (column suffix
``_legacy``) — and records, for every sweep, the fraction
of owned vertices that were active and the edges gathered/tallied by the
scoring kernel, summed across ranks.  The acceptance bar for the active
set is a >=2x reduction in total edges touched; the per-sweep rows show
where the win comes from (late refine iterations collapse to a few
percent of the graph).
"""

import numpy as np

from repro.bench import ExperimentTable
from repro.core import PulpParams
from repro.core.initialization import initialize
from repro.core.lp import SPECS, lp_phase
from repro.core.quality import edge_cut
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.simmpi import run_spmd
from tests.reference.exhaustive import exhaustive_sweeps

PARTS = 8
NPROCS = 4
GRAPHS = ("rmat", "webcrawl")
SPEEDUP_FLOOR = 2.0  # acceptance: >=2x fewer edges touched overall


def _run_logged(graph, seed=42):
    """Full default pipeline; returns (global parts, merged sweep log).

    The merged log has one entry per sweep: (phase, active, owned, edges)
    summed across ranks.
    """
    params = PulpParams(seed=seed)
    dist = make_distribution("random", graph.n, NPROCS, seed=seed)

    def main(comm):
        dg = build_dist_graph(comm, graph, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=params)
        initialize(comm, state)
        state.sweep_log.clear()
        state.iter_tot = 0
        for _ in range(params.outer_iters):
            for spec in (SPECS["vertex_balance"], SPECS["vertex_refine"]):
                lp_phase(comm, state, spec, getattr(params, spec.iters))
        state.iter_tot = 0
        for _ in range(params.outer_iters):
            for spec in (SPECS["edge_balance"], SPECS["edge_refine"]):
                lp_phase(comm, state, spec, getattr(params, spec.iters))
        return dg.owned_gids.copy(), state.parts[: dg.n_local].copy(), \
            state.sweep_log

    results = run_spmd(NPROCS, main)[0]
    parts = np.empty(graph.n, dtype=np.int64)
    for gids, owned, _ in results:
        parts[gids] = owned
    logs = [r[2] for r in results]
    assert len({len(log) for log in logs}) == 1  # sweeps are collective
    merged = []
    for entries in zip(*logs):
        phase = entries[0][0]
        merged.append((
            phase,
            sum(e[2] for e in entries),
            sum(e[3] for e in entries),
            sum(e[4] for e in entries),
        ))
    return parts, merged


def test_frontier_speedup(benchmark, suite_graph):
    table = ExperimentTable(
        "frontier_speedup",
        ["graph", "sweep", "phase", "active_frac", "edges_frontier",
         "edges_legacy", "cut_frontier", "cut_legacy"],
        notes=f"{'/'.join(GRAPHS)}/small, {PARTS} parts on {NPROCS} ranks, "
              "default iteration counts; TOTAL rows carry the edges-touched "
              f"reduction (acceptance: >= {SPEEDUP_FLOOR}x)",
    )

    def experiment():
        out = {}
        for name in GRAPHS:
            g = suite_graph(name, "small")
            active = _run_logged(g)
            with exhaustive_sweeps():
                out[name] = (g, active, _run_logged(g))
        return out

    runs = benchmark.pedantic(experiment, rounds=1, iterations=1)

    reductions = {}
    for name in GRAPHS:
        g, (parts_f, log_f), (parts_l, log_l) = runs[name]
        assert len(log_f) == len(log_l)
        cut_f = edge_cut(g, parts_f, PARTS)
        cut_l = edge_cut(g, parts_l, PARTS)
        for i, ((ph, act, owned, e_f), (_, _, _, e_l)) in enumerate(
            zip(log_f, log_l)
        ):
            table.add(name, i, ph, round(act / max(owned, 1), 4),
                      int(e_f), int(e_l), "", "")
        tot_f = sum(e for *_, e in log_f)
        tot_l = sum(e for *_, e in log_l)
        reductions[name] = tot_l / max(tot_f, 1.0)
        table.add(name, "TOTAL", f"x{reductions[name]:.2f}",
                  round(np.mean([a / max(o, 1) for _, a, o, _ in log_f]), 4),
                  int(tot_f), int(tot_l), cut_f, cut_l)
        # coarse quality guard: the active set must not blow up the cut
        # (the tight 5% statistical bound lives in tests/core/test_frontier)
        assert cut_f <= cut_l * 1.10 + 8
    table.emit()

    for name, r in reductions.items():
        assert r >= SPEEDUP_FLOOR, (
            f"{name}: only {r:.2f}x edges-touched reduction"
        )
