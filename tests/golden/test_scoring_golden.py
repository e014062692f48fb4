"""Partitions and communication records pinned in ``scoring.json``
(each captured at the commit before the kernel change it guards — see
README.md): both sides of the kernel choice, flat and multilevel, four
graph classes, unit and weighted vertices, on every backend."""

import pytest

from tests.golden.regen import (
    digests,
    load_cases,
    load_phase_cases,
    phase_pins,
)

CASES = load_cases()
PHASE_CASES = load_phase_cases()


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_pinned_digests(case, backend):
    """The digests and, beside them, the quality and modeled time they
    stand for (``cut_ratio``, ``vertex_balance``, ``edge_balance``,
    ``modeled_s``)."""
    got = digests(case, backend)
    assert {"cut_ratio", "vertex_balance", "edge_balance",
            "modeled_s"} <= got.keys()
    assert got == {key: case[key] for key in got}


@pytest.mark.parametrize(
    "case", PHASE_CASES, ids=[c["name"] for c in PHASE_CASES])
def test_pinned_phases(case):
    """Finer than end to end: owned parts + ``sweep_log`` after every step
    of the plan, and the bytes a checkpointed run writes."""
    got = phase_pins(case)
    assert got == {key: case[key] for key in got}
