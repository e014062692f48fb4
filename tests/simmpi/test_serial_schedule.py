"""The ``serial`` backend's schedule, pinned as a literal.

The goldens see what a run computes and meters, not the order in which the
ranks ran.  ``serial`` promises that order is a pure function of the program:
deposits rotate round-robin, the last depositor executes the collective and
keeps running (executor-continue), and the executor of superstep ``s``
deposits first at superstep ``s + 1``.
"""

import numpy as np

from repro.simmpi import create_runtime

NPROCS = 5

# (rank, "in" | "out", step) around every collective call, in the order the
# ranks appended them
SCHEDULE = [
    (0, 'in', 0), (1, 'in', 0), (2, 'in', 0), (3, 'in', 0), (4, 'in', 0),
    (4, 'out', 0), (4, 'in', 1), (0, 'out', 0), (0, 'in', 1), (1, 'out', 0),
    (1, 'in', 1), (2, 'out', 0), (2, 'in', 1), (3, 'out', 0), (3, 'in', 1),
    (3, 'out', 1), (3, 'in', 2), (4, 'out', 1), (4, 'in', 2), (0, 'out', 1),
    (0, 'in', 2), (1, 'out', 1), (1, 'in', 2), (2, 'out', 1), (2, 'in', 2),
    (2, 'out', 2), (2, 'in', 3), (3, 'out', 2), (3, 'in', 3), (4, 'out', 2),
    (4, 'in', 3), (0, 'out', 2), (0, 'in', 3), (1, 'out', 2), (1, 'in', 3),
    (1, 'out', 3), (1, 'in', 4), (2, 'out', 3), (2, 'in', 4), (3, 'out', 3),
    (3, 'in', 4), (4, 'out', 3), (4, 'in', 4), (0, 'out', 3), (0, 'in', 4),
    (0, 'out', 4), (0, 'in', 5), (1, 'out', 4), (1, 'in', 5), (2, 'out', 4),
    (2, 'in', 5), (3, 'out', 4), (3, 'in', 5), (4, 'out', 4), (4, 'in', 5),
    (4, 'out', 5), (0, 'out', 5), (1, 'out', 5), (2, 'out', 5), (3, 'out', 5),
]


def _six_collectives(comm, log):
    r, n = comm.rank, comm.size
    calls = [
        comm.barrier,
        lambda: comm.allreduce(r),
        lambda: comm.Allreduce(np.arange(3) + r, op="sum"),
        lambda: comm.Allgatherv(np.full(r + 1, r)),
        lambda: comm.Alltoallv(np.full(n, r), np.ones(n, dtype=np.int64)),
        lambda: comm.Bcast(np.array([r]), root=2),
    ]
    for step, call in enumerate(calls):
        log.append((r, "in", step))
        call()
        log.append((r, "out", step))


def test_serial_schedule_is_the_pinned_literal():
    log = []
    rt = create_runtime("serial", nprocs=NPROCS)
    rt.run(_six_collectives, log)
    assert log == SCHEDULE
    # one saved park / wake per rendezvous; the Alltoallv's count header is
    # a second metered round of the same rendezvous
    assert rt.stats.saved_switches == 6
    assert rt.stats.rounds == 7


def test_serial_schedule_repeats_on_a_reused_runtime():
    rt = create_runtime("serial", nprocs=NPROCS)
    first, second = [], []
    rt.run(_six_collectives, first)
    rt.run(_six_collectives, second)
    assert first == second == SCHEDULE
