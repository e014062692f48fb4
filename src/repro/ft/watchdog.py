"""Active liveness detection: progress, one stall clock, escalation.

The ft subsystem (:mod:`repro.ft.recovery`) can *recover* from any failure
it is told about, but a rank that silently hangs tells nobody.  The
algorithms are bulk-synchronous, so progress shows in one place — every
rank interaction is a collective — and the thread or process that
started the ranks supervises them on every backend.  It polls the run's
progress (on ``procs`` every :data:`POLL_INTERVAL`, the heartbeats each
rank publishes into a fork-shared :class:`HeartbeatBoard` before every
rendezvous; in process every :func:`slice_seconds`, the engine's deposit
count) into a :class:`StallClock`, and handles each stall it declares:

* ``procs`` sends ``SIGTERM`` to the live ranks with the lowest
  heartbeat, ``SIGKILL`` to any left after :data:`GRACE`, and keeps
  watching;
* in process the run fails, blaming the ranks that are running, and a
  thread that does not unwind within ``timeout + GRACE`` is abandoned.

Either way the run raises :class:`~repro.simmpi.errors.HungRankError`,
which :func:`repro.ft.recovery.run_with_retries` treats like a ``die``
fault: relaunch from the last committed checkpoint epoch.  An in-process
``delay`` fault past the deadline sleeps it out and raises
(:meth:`repro.ft.faults.FaultPlan.check`).

The watchdog is its timeout: ``Backend.watchdog`` holds the seconds of
global stall — no rank reaching a rendezvous — after which a run is
declared hung, or None.  It bounds the stall, not a collective's
duration, so size it to the longest computation between two collectives.
With no watchdog (the default) nobody polls.
"""

from __future__ import annotations

import logging
from multiprocessing import sharedctypes
from typing import List, Optional, Sequence

#: Fraction of the timeout at which a soft warning is emitted.
WARN_FRACTION = 0.5
#: Seconds between ``SIGTERM`` and ``SIGKILL`` when killing a hung rank
#: process.
GRACE = 1.0
#: Supervisor-side heartbeat polling period (seconds).
POLL_INTERVAL = 0.01
#: Allowance before the *first* heartbeat of a run (fork + import + graph
#: build happen before any rank beats): the deadline until then is
#: ``max(timeout, STARTUP_GRACE)``.
STARTUP_GRACE = 5.0

#: Fixed width of a phase name in the heartbeat board (bytes, NUL-padded).
_PHASE_CAP = 32


def slice_seconds(timeout: float) -> float:
    """Polling period of the in-process supervisor: short enough to notice
    a stall promptly, long enough that a generous timeout costs almost no
    extra wakeups."""
    return max(min(timeout / 4.0, 0.25), 0.002)


def rank_barrier_timeout(timeout: float) -> float:
    """Deadline for *child-side* barrier waits on the procs backend.

    Deliberately much longer than the supervisor's deadline: the watchdog
    kills hung peers first (which breaks the barrier and wakes the
    waiters); this bound is only the last-ditch escape if the supervisor
    itself is gone.
    """
    return (timeout + GRACE) * 4.0 + 10.0


class HeartbeatBoard:
    """Fork-shared per-rank health segment: (superstep, phase).

    Built on ``multiprocessing.sharedctypes.RawArray`` like the session's
    release cursors: allocated in the parent before forking, so every rank
    process and the supervisor share the same pages.  One writer per rank
    slot and word-sized stores make the board wait-free; the supervisor
    only needs monotonicity of the step counter, so torn phase strings
    during a beat are harmless.
    """

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        self._steps = sharedctypes.RawArray("q", [-1] * nprocs)
        self._phases = sharedctypes.RawArray("c", nprocs * _PHASE_CAP)

    def beat(self, rank: int, step: int, phase: str) -> None:
        """Publish rank progress (called rank-side before each rendezvous)."""
        raw = phase.encode("utf-8", "replace")[:_PHASE_CAP - 1]
        base = rank * _PHASE_CAP
        self._phases[base:base + len(raw)] = raw
        self._phases[base + len(raw)] = b"\0"
        # the step store is the publication point: supervisor-side progress
        # detection reads only this word
        self._steps[rank] = step

    def steps(self) -> List[int]:
        return list(self._steps)

    def phase_of(self, rank: int) -> str:
        base = rank * _PHASE_CAP
        raw = bytes(self._phases[base:base + _PHASE_CAP])
        return raw.split(b"\0", 1)[0].decode("utf-8", "replace")




class StallClock:
    """Decides, from the progress counts its caller feeds it, when a run
    has stopped advancing; it owns no thread.

    Once the count stops growing the clock warns at :data:`WARN_FRACTION`
    of the deadline and declares the run stalled at the deadline (at
    least :data:`STARTUP_GRACE` before the first progress: forking and the
    graph build precede it), then restarts — a further stall is timed
    from the declaration.  ``heartbeats_seen`` is the last count fed,
    ``detection_seconds`` the first declaration's stall.  The caller
    handles the hung ranks and names them in :meth:`declare`.
    """

    def __init__(self, timeout: float, now: float, scope: str) -> None:
        self.timeout = timeout
        self.scope = scope
        self.heartbeats_seen = 0
        self.detection_seconds = 0.0
        self._since, self._warned = now, False

    def tick(self, progress: int, now: float) -> Optional[float]:
        """Feed the run's progress count (never decreasing) at ``now``.
        Returns the stall in seconds when this tick declares the run
        stalled, else None."""
        if progress > self.heartbeats_seen:
            self.heartbeats_seen = progress
            self._since, self._warned = now, False
            return None
        stalled = now - self._since
        deadline = (self.timeout if self.heartbeats_seen
                    else max(self.timeout, STARTUP_GRACE))
        if not self._warned and stalled >= deadline * WARN_FRACTION:
            self._warned = True
            self.warn(f"no rank progress for {stalled:.2f}s (deadline "
                      f"{deadline:.2f}s) after {progress} steps")
        if stalled < deadline:
            return None
        self.detection_seconds = self.detection_seconds or stalled
        self._since, self._warned = now, False
        return stalled

    def declare(self, ranks: Sequence[int], where: str,
                stalled: float) -> None:
        """Log the ranks a declaration blames, and where they stalled."""
        self.warn(f"declaring {list(ranks)} hung {where} after "
                  f"{stalled:.2f}s without progress")

    def warn(self, message: str) -> None:
        logging.getLogger(__name__).warning(
            f"[watchdog:{self.scope}] {message}")
