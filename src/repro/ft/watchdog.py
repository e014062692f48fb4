"""Active liveness detection: heartbeats, collective deadlines, escalation.

The ft subsystem (:mod:`repro.ft.recovery`) can *recover* from any failure
it is told about, but a rank that silently hangs tells nobody: the procs
supervisor would block unbounded on its children, and the in-process
backends would sleep a stalled rendezvous forever.  This module closes
that gap with the standard HPC watchdog pattern:

* **Heartbeats** (:class:`HeartbeatBoard`) — on the ``procs`` backend each
  rank publishes ``(superstep, phase, monotonic clock)`` into a small
  fork-shared health segment right before every rendezvous.  Writes are
  wait-free single-writer stores; the supervisor polls the board.
* **Watchdog** (:class:`Watchdog`) — a supervisor-side daemon thread that
  enforces the configured per-collective deadline with escalation: a soft
  warning at ``warn_fraction`` of the deadline, a bounded number of probe
  re-checks with exponentially growing spacing, then a declaration of
  death — the laggard ranks (lowest heartbeat superstep) get ``SIGTERM``,
  a grace period, then ``SIGKILL``.  The parent surfaces the kill as
  :class:`~repro.simmpi.errors.HungRankError`, which
  :func:`repro.ft.recovery.run_with_retries` treats exactly like a ``die``
  fault: relaunch from the last committed checkpoint epoch.
* **In-process deadlines** — the serial/threads backends have no separate
  processes to kill; instead every rendezvous wait is sliced
  (:meth:`WatchdogConfig.slice_seconds`) and a rank whose wait exceeds the
  deadline raises :class:`~repro.simmpi.errors.HungRankError` itself,
  releasing its peers.  A ``delay`` fault longer than the deadline
  therefore *raises* after ``deadline`` seconds instead of sleeping the
  whole run (see :meth:`repro.ft.faults.FaultPlan.check`).

Deadline semantics: the timeout bounds the *stall*, i.e. the time since
any rank last made progress, not a collective's total duration — a slow
but advancing job never trips it.  On the serial backend (one rank runs
at a time) a parked rank's wait spans the full scheduling round, so size
the timeout to a round, not a single deposit.  With no watchdog
configured (the default) every wait stays unbounded and behavior is
byte-for-byte unchanged.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import sharedctypes
from typing import Any, List, Optional, Sequence, Union

#: Environment variable consulted when no watchdog is requested explicitly:
#: a float timeout in seconds; unset, empty, or "0" disables the watchdog.
WATCHDOG_ENV_VAR = "REPRO_WATCHDOG_TIMEOUT"

#: Fixed width of a phase name in the heartbeat board (bytes, NUL-padded).
_PHASE_CAP = 32


@dataclass(frozen=True)
class WatchdogConfig:
    """Liveness policy: the per-collective deadline and escalation shape.

    Attributes
    ----------
    timeout:
        Seconds of global stall (no rank advancing its heartbeat) after
        which the laggard ranks are declared hung.
    warn_fraction:
        Fraction of ``timeout`` at which a soft warning is emitted.
    probes:
        Number of probe re-checks between the warning and the deadline,
        spaced with exponential backoff; each probe that still sees no
        progress counts as a deadline extension in the health counters.
    grace:
        Seconds between ``SIGTERM`` and ``SIGKILL`` when killing a hung
        rank process.
    poll_interval:
        Supervisor-side heartbeat polling period.
    startup_grace:
        Extra allowance before the *first* heartbeat of a run (fork +
        import + graph build happen before any rank beats); the effective
        deadline until then is ``max(timeout, startup_grace)``.
    """

    timeout: float
    warn_fraction: float = 0.5
    probes: int = 3
    grace: float = 1.0
    poll_interval: float = 0.01
    startup_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"watchdog timeout must be > 0, got {self.timeout}")
        if not (0.0 < self.warn_fraction < 1.0):
            raise ValueError("warn_fraction must be in (0, 1)")

    def slice_seconds(self) -> float:
        """Wait-slice for deadline-bounded in-process rendezvous: short
        enough to notice a stall promptly, long enough that a generous
        timeout costs almost no extra wakeups."""
        return max(min(self.timeout / 4.0, 0.25), 0.002)

    def rank_barrier_timeout(self) -> float:
        """Deadline for *child-side* barrier waits on the procs backend.

        Deliberately much longer than the supervisor's deadline: the
        watchdog kills hung peers first (which breaks the barrier and
        wakes the waiters); this bound is only the last-ditch escape if
        the supervisor itself is gone.
        """
        return (self.timeout + self.grace) * 4.0 + 10.0


def as_watchdog_config(
    value: Union[None, int, float, WatchdogConfig],
) -> Optional[WatchdogConfig]:
    """Coerce a user-facing watchdog argument: None, seconds, or a config."""
    if value is None or isinstance(value, WatchdogConfig):
        return value
    timeout = float(value)
    if timeout == 0:
        return None
    return WatchdogConfig(timeout=timeout)


def default_watchdog() -> Optional[WatchdogConfig]:
    """The watchdog used when none is requested explicitly (env or off)."""
    raw = os.environ.get(WATCHDOG_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ValueError(
            f"${WATCHDOG_ENV_VAR}={raw!r} is not a number of seconds"
        ) from None
    return as_watchdog_config(timeout)


class HeartbeatBoard:
    """Fork-shared per-rank health segment: (superstep, phase, clock).

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
        self._times = sharedctypes.RawArray("d", [0.0] * nprocs)
        self._phases = sharedctypes.RawArray("c", nprocs * _PHASE_CAP)

    def beat(self, rank: int, step: int, phase: str) -> None:
        """Publish rank progress (called rank-side before each rendezvous)."""
        raw = phase.encode("utf-8", "replace")[:_PHASE_CAP - 1]
        base = rank * _PHASE_CAP
        self._phases[base:base + len(raw)] = raw
        self._phases[base + len(raw)] = b"\0"
        self._times[rank] = time.monotonic()
        # the step store is the publication point: supervisor-side progress
        # detection reads only this word
        self._steps[rank] = step

    def steps(self) -> List[int]:
        return list(self._steps)

    def phase_of(self, rank: int) -> str:
        base = rank * _PHASE_CAP
        raw = bytes(self._phases[base:base + _PHASE_CAP])
        return raw.split(b"\0", 1)[0].decode("utf-8", "replace")

    def age_of(self, rank: int) -> float:
        """Seconds since ``rank`` last beat (0 if it never beat)."""
        t = self._times[rank]
        return time.monotonic() - t if t else 0.0


class Watchdog(threading.Thread):
    """Supervisor-side liveness enforcement for the procs backend.

    Polls the heartbeat board; whenever *global* progress stalls past the
    deadline, the laggard rank processes (lowest heartbeat superstep) are
    terminated with escalation.  Runs as a daemon thread next to the
    supervisor's stats-draining loop and keeps watching after a kill — if
    further ranks stay wedged (e.g. two independent hangs), subsequent
    stalls are escalated the same way until every child is gone.

    Health counters (read by the backend after the run):

    ``heartbeats_seen``
        Total heartbeat step increments observed across all ranks.
    ``deadline_extensions``
        Probe re-checks that still saw no progress (warn → deadline span).
    ``killed``
        Ranks declared hung and killed, in kill order.
    ``detection_seconds``
        Stall duration at the first declaration of death (0.0 if none).
    """

    def __init__(self, config: WatchdogConfig, board: HeartbeatBoard,
                 procs: Sequence[Any], label: str = "procs") -> None:
        super().__init__(name="simmpi-watchdog", daemon=True)
        self.config = config
        self.board = board
        self.procs = procs
        self.label = label
        self.heartbeats_seen = 0
        self.deadline_extensions = 0
        self.killed: List[int] = []
        self.killed_phase = ""
        self.detection_seconds = 0.0
        self.warnings: List[str] = []
        self._stop_evt = threading.Event()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(timeout=self.config.grace + 5.0)

    # -- escalation timeline -----------------------------------------------

    def _probe_offsets(self, deadline: float) -> List[float]:
        """Stall offsets of the probe re-checks: exponential backoff from
        the warning point toward the deadline."""
        cfg = self.config
        warn_at = deadline * cfg.warn_fraction
        span = deadline - warn_at
        total = float(2 ** cfg.probes - 1) or 1.0
        return [warn_at + span * (2 ** (i + 1) - 1) / total
                for i in range(cfg.probes)]

    def run(self) -> None:  # pragma: no cover - exercised via procs runs
        cfg = self.config
        last_steps = self.board.steps()
        last_progress = time.monotonic()
        warned = False
        probes_done = 0
        while not self._stop_evt.wait(cfg.poll_interval):
            steps = self.board.steps()
            alive = [p.is_alive() for p in self.procs]
            advanced = sum(
                max(0, s - t) for s, t in zip(steps, last_steps)
            )
            self.heartbeats_seen += advanced
            if advanced or not any(alive):
                last_steps = steps
                last_progress = time.monotonic()
                warned = False
                probes_done = 0
                continue
            # startup allowance: before any rank ever beat, forking and
            # prologue build time must not count as a stall
            deadline = cfg.timeout
            if max(steps) < 0:
                deadline = max(cfg.timeout, cfg.startup_grace)
            stalled = time.monotonic() - last_progress
            if not warned and stalled >= deadline * cfg.warn_fraction:
                warned = True
                self._warn(
                    f"no rank progress for {stalled:.2f}s "
                    f"(deadline {deadline:.2f}s); supersteps={steps}"
                )
            offsets = self._probe_offsets(deadline)
            while probes_done < cfg.probes and stalled >= offsets[probes_done]:
                probes_done += 1
                self.deadline_extensions += 1
            if stalled < deadline:
                continue
            self._declare_dead(steps, alive, stalled)
            last_steps = self.board.steps()
            last_progress = time.monotonic()
            warned = False
            probes_done = 0

    def _declare_dead(self, steps: List[int], alive: List[bool],
                      stalled: float) -> None:
        """Kill the laggard ranks: SIGTERM, grace, SIGKILL."""
        cfg = self.config
        live = [r for r in range(len(self.procs)) if alive[r]]
        if not live:
            return
        floor = min(steps[r] for r in live)
        victims = [r for r in live if steps[r] == floor]
        if not self.killed:
            self.detection_seconds = stalled
            self.killed_phase = self.board.phase_of(victims[0])
        phase = self.board.phase_of(victims[0])
        # record the declaration *before* signalling: SIGTERM breaks the
        # rendezvous barrier, peers exit, and the supervisor may collect
        # results before the grace wait below finishes
        self.killed.extend(victims)
        self._warn(
            f"declaring {victims} hung at superstep {floor} "
            f"(phase {phase!r}) after {stalled:.2f}s without progress; "
            f"sending SIGTERM"
        )
        for r in victims:
            try:
                self.procs[r].terminate()
            except Exception:
                pass
        deadline = time.monotonic() + cfg.grace
        while time.monotonic() < deadline:
            if not any(self.procs[r].is_alive() for r in victims):
                break
            time.sleep(min(cfg.poll_interval, 0.05))
        for r in victims:
            if self.procs[r].is_alive():  # pragma: no cover - SIGTERM masked
                self._warn(f"rank {r} survived SIGTERM; sending SIGKILL")
                try:
                    self.procs[r].kill()
                except Exception:
                    pass

    def _warn(self, message: str) -> None:
        line = f"[watchdog:{self.label}] {message}"
        self.warnings.append(line)
        logging.getLogger(__name__).warning(line)
