"""Partitions and communication records pinned in ``scoring.json``
(captured at the commit before the two-kernel scorer landed): one case on
each side of the kernel choice, flat and multilevel, on every backend."""

import pytest

from tests.golden.regen import digests, load_cases

CASES = load_cases()


@pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_pinned_digests(case, backend):
    got = digests(case, backend)
    assert got == {key: case[key] for key in got}
