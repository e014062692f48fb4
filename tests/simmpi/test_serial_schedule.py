"""The ``serial`` backend's schedule across runs of one runtime.

The schedule itself is pinned as a literal in ``test_stepped_backends``;
a runtime carries no scheduling state from one run into the next, so a
second run on it must step the ranks in the same order.
"""

from repro.simmpi import create_runtime
from tests.simmpi.test_stepped_backends import (
    NPROCS,
    SCHEDULE,
    _five_collectives,
)


def test_serial_schedule_repeats_on_a_reused_runtime():
    rt = create_runtime("serial", nprocs=NPROCS)
    first, second = [], []
    rt.run(_five_collectives, first)
    rt.run(_five_collectives, second)
    assert first == second == SCHEDULE
    # one metered round per rendezvous, the Alltoallv's included
    assert rt.stats.rounds == 2 * 5
