"""Partitions and communication records pinned in ``scoring.json``
(each captured at the commit before the kernel change it guards — see
README.md): both sides of the kernel choice, flat and multilevel, four
graph classes, unit and weighted vertices, on every backend."""

import pytest

from tests.golden.regen import (
    digests,
    load_cases,
    load_phase_cases,
    moved,
    phase_pins,
)

CASES = load_cases()
PHASE_CASES = load_phase_cases()


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_pinned_digests(case, backend):
    """The digests and, beside them, the quality, modeled time and
    partition-phase round count they stand for (``cut_ratio``,
    ``vertex_balance``, ``edge_balance``, ``modeled_s``, ``rounds``)."""
    got = digests(case, backend)
    assert {"cut_ratio", "vertex_balance", "edge_balance",
            "modeled_s", "rounds"} <= got.keys()
    assert got == {key: case[key] for key in got}


@pytest.mark.parametrize(
    "case", PHASE_CASES, ids=[c["name"] for c in PHASE_CASES])
def test_pinned_phases(case):
    """Finer than end to end: owned parts + ``sweep_log`` after every step
    of the plan, and the bytes a checkpointed run writes."""
    got = phase_pins(case)
    assert got == {key: case[key] for key in got}


def test_regen_names_the_moved_pins():
    """A regeneration says which pins moved, with the figures old → new."""
    old = {"name": "c", "parts_sha256": "a", "signature_sha256": "b",
           "modeled_s": "2.0", "cut_ratio": "0.5"}
    assert moved(old, dict(old)) == "c: unmoved"
    new = dict(old, signature_sha256="x", modeled_s="1.0")
    assert moved(old, new) == (
        "c: signature, modeled; cut_ratio 0.5 -> 0.5; modeled_s 2.0 -> 1.0")
    old["rounds"] = 9
    assert moved(old, dict(new, rounds=5)) == (
        "c: signature, modeled, rounds; cut_ratio 0.5 -> 0.5; "
        "modeled_s 2.0 -> 1.0; rounds 9 -> 5")
    phase = {"name": "p", "steps": ["s"], "ckpt_bytes": 2}
    assert moved(phase, dict(phase, ckpt_bytes=1)) == "p: ckpt_bytes"
