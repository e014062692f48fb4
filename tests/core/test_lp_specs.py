"""The spec table of ``repro.core.lp``: one test over the five rule sets."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core.driver import PARTITION_PHASES
from repro.core.initialization import initialize
from repro.core.lp import SPECS, Constraint, PhaseSpec, lp_phase
from repro.core.params import PulpParams
from repro.core.state import RankState
from repro.dist import build_dist_graph, make_distribution
from repro.graph import rmat
from repro.simmpi import run_spmd

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"
PARTS, ITERS = 8, 2


def design_row(spec: PhaseSpec) -> str:
    """The spec's row of DESIGN.md's table, rendered from the literal."""
    by_total = {c.total: c for c in spec.constraints}
    cells = [f"`{spec.tag}`", f"`{spec.iters}`", spec.tally,
             spec.part_weight or "—"]
    for total in "vec":
        c = by_total.get(total)
        cells.append("—" if c is None
                     else f"{c.limit} / {c.cap or 'tracked only'}")
    cells.append(", ".join(
        flag for flag in ("reseed", "isolated") if getattr(spec, flag)) or "—")
    cells.append("—" if spec.cleanup is None else f"iters − {spec.cleanup}")
    return "| " + " | ".join(cells) + " |"


def test_the_table_holds_the_five_phases_of_the_pipeline():
    assert list(SPECS) == ["vertex_balance", "vertex_refine", "ml_refine",
                           "edge_balance", "edge_refine"]


@pytest.mark.parametrize("spec", SPECS.values(), ids=list(SPECS))
def test_spec(spec):
    assert SPECS[spec.tag] is spec
    assert spec.tag in PARTITION_PHASES  # its work counts as partitioning
    assert getattr(PulpParams(), spec.iters) > 0
    assert design_row(spec) in DESIGN.read_text(), design_row(spec)

    # totals tracked == rows of the one Allreduce at entry == rows of the
    # delta block every iteration's exchange sums on its consensus
    g = rmat(8, 8, seed=3)
    dist = make_distribution("random", g.n, 2, seed=1)

    def main(comm):
        dg = build_dist_graph(comm, g, dist)
        state = RankState(dg=dg, num_parts=PARTS, params=PulpParams(seed=1))
        initialize(comm, state)
        kwargs = {}
        if spec.tally == "arc":
            kwargs["arc_weights"] = np.ones(dg.adj.size)
            with pytest.raises(ValueError, match="arc_weights"):
                lp_phase(comm, state, spec, ITERS)
        lp_phase(comm, state, spec, ITERS, **kwargs)

    _, stats = run_spmd(2, main)
    d = len(spec.totals)
    reduces = [e for e in stats.events
               if e.tag == spec.tag and e.op == "allreduce"]
    # reseed's alive count, then the entry totals; the deltas — a [p]
    # vector when only v is tracked, else the [d × p] block as it is —
    # ride each iteration's exchange: a rank that sends no records meters
    # the operand alone
    assert len(reduces) == spec.reseed + 1
    assert reduces[-1].bytes_sent.tolist() == [d * PARTS * 8] * 2
    exchanges = [e for e in stats.events
                 if e.tag == spec.tag and e.op == "alltoallv"][-ITERS:]
    assert len(exchanges) == ITERS
    for event in exchanges:
        assert (event.bytes_sent >= d * PARTS * 8).all()
        idle = event.messages == 0
        assert (event.bytes_sent[idle] == d * PARTS * 8).all()


@pytest.mark.parametrize("change", [
    {"tally": "plurality"},
    {"part_weight": "cut"},
    {"iters": "sweeps"},
    {"constraints": (Constraint("v", "tighten", "limit"),)},
    {"constraints": (Constraint("v", "ratchet", "half"),)},
    {"constraints": (Constraint("v", "ratchet", "gain"),)},
    {"constraints": (Constraint("e", "ratchet", "limit"),)},
    {"constraints": (Constraint("v", "ratchet", "limit"),
                     Constraint("e", "ratchet", "limit"),
                     Constraint("c", "recompute", "limit"))},
    {"part_weight": "edge_cut"},
])
def test_unknown_rule_is_rejected_at_construction(change):
    """... when the module is imported, not at iteration 7."""
    with pytest.raises(ValueError, match="vertex_refine"):
        dataclasses.replace(SPECS["vertex_refine"], **change)
