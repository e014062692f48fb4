"""The paper's sweep schedule as a test oracle: every iteration of a phase
scores every owned vertex.  ``exhaustive_sweeps()`` makes the sweeper seed
"all owned" after each exchange, which charges no maintenance work."""

from contextlib import contextmanager
from unittest import mock

from repro.core.frontier import FrontierSweeper


def _seed_all(self, moved, ghost_lids):
    self._frontier = None


@contextmanager
def exhaustive_sweeps():
    with mock.patch.object(FrontierSweeper, "_seed_next", _seed_all):
        yield
