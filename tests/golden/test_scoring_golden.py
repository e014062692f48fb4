"""Partitions and communication records pinned in ``scoring.json``
(each captured at the commit before the kernel change it guards — see
README.md): both sides of the kernel choice, flat and multilevel, four
graph classes, unit and weighted vertices, on every backend."""

import pytest

from tests.golden.regen import digests, load_cases

CASES = load_cases()


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_pinned_digests(case, backend):
    got = digests(case, backend)
    assert got == {key: case[key] for key in got}
