"""Error types raised by the simulated MPI runtime."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_ranks(ranks: Iterable[int], limit: int = 16) -> str:
    """Human-readable rank list for diagnostics (``"ranks 1, 3, 7"``).

    Long lists are elided — at thousands of ranks an error message naming
    every blocked rank is itself unreadable.
    """
    ranks = sorted(set(int(r) for r in ranks))
    if not ranks:
        return "no ranks"
    shown = ", ".join(str(r) for r in ranks[:limit])
    if len(ranks) > limit:
        shown += f", ... ({len(ranks) - limit} more)"
    return ("rank " if len(ranks) == 1 else "ranks ") + shown


class SimMPIError(RuntimeError):
    """Base class for all simulated-MPI failures."""


class CollectiveMismatchError(SimMPIError):
    """Ranks disagreed on which collective to execute at a superstep.

    Real MPI programs that call mismatched collectives deadlock or corrupt
    data; the simulator turns the bug into an immediate, diagnosable error.
    """


class DeadlockError(SimMPIError):
    """Some ranks entered a collective that other ranks will never reach.

    Raised when at least one rank has returned (or died) while others are
    still blocked in a rendezvous, which in a real MPI job would hang.
    """


class RemoteRankError(SimMPIError):
    """An exception escaped from a *different* rank's code.

    All surviving ranks blocked in collectives are released with this error
    so the whole SPMD program shuts down; the originating exception is
    re-raised to the caller of
    :meth:`repro.simmpi.backends.base.Backend.run`.
    """


class UnpicklableRankError(SimMPIError):
    """A rank's own exception could not cross the process boundary.

    Raised by the procs backend in place of a rank exception that fails
    to round-trip through pickle.  Unlike :class:`RemoteRankError` it
    represents the *originating* failure, so the parent re-raises it with
    full priority.  Carries the original context as attributes:

    ``original_type``
        Name of the original exception type.
    ``original_args``
        The original ``args`` tuple, with unpicklable entries replaced by
        their ``repr``.
    ``original_traceback``
        The fully formatted traceback from the failing rank.
    """

    def __init__(self, message: str, *, original_type: str = "",
                 original_args: tuple = (),
                 original_traceback: str = "") -> None:
        super().__init__(message)
        self.original_type = original_type
        self.original_args = original_args
        self.original_traceback = original_traceback


class HungRankError(SimMPIError):
    """A rank (or the whole job) stopped making progress past the liveness
    deadline.

    Raised by the watchdog machinery (:mod:`repro.ft.watchdog`): on the
    ``procs`` backend the supervisor-side watchdog thread declares the
    laggard rank processes dead (``SIGTERM`` then ``SIGKILL``) and the
    parent surfaces this error; on the in-process backends a rank whose
    rendezvous wait exceeds the deadline raises it directly.  Unlike
    :class:`RemoteRankError` it represents the *originating* failure, so
    :meth:`Backend._raise_collected` re-raises it with full priority and
    :func:`repro.ft.recovery.run_with_retries` treats it exactly like a
    ``die`` fault (relaunch from the last committed epoch).  Attributes:

    ``ranks``
        The ranks declared hung (tuple, possibly empty when unknown).
    ``phase``
        The phase tag the stall was observed in ("" when unknown).
    ``detection_seconds``
        Stall duration observed before the hang was declared.
    """

    def __init__(self, message: str, *, ranks: Sequence[int] = (),
                 phase: str = "", detection_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.ranks = tuple(int(r) for r in ranks)
        self.phase = phase
        self.detection_seconds = float(detection_seconds)


class PayloadCorruptionError(SimMPIError):
    """A payload failed its end-to-end checksum at receive.

    Raised when integrity checking (:mod:`repro.ft.integrity`,
    ``--integrity crc``) finds that a collective contribution or a
    rendezvous slot no longer matches the crc32 computed at send time — a flipped bit anywhere between serialize
    and deserialize.  The supervisor maps it to restart-from-checkpoint
    like any other rank failure.  Attributes:

    ``rank``
        The rank whose payload failed verification (None when unknown).
    ``location``
        Where the mismatch was detected (``"slot"``, a segment name, or
        ``"contribution"``).
    """

    def __init__(self, message: str, *, rank: "int | None" = None,
                 location: str = "") -> None:
        super().__init__(message)
        self.rank = rank
        self.location = location


class InjectedFault(SimMPIError):
    """A deliberate failure planted by :class:`repro.ft.faults.FaultPlan`.

    Raised rank-side at the planned superstep so crash/recovery paths are
    exercisable deterministically in tests and CI.  Travels the same error
    path as a genuine rank exception on every backend.
    """


class RankFailure(SimMPIError):
    """A checkpointed run died and may be retried from its last epoch.

    Raised by :func:`repro.core.driver.xtrapulp` (instead of the raw rank
    exception, which becomes ``__cause__``) when checkpointing or resuming
    was requested, so supervisors can distinguish "retriable SPMD failure"
    from configuration errors.  Attributes:

    ``run_dir``
        The checkpoint run directory of the failed attempt (or None).
    ``epoch``
        Index of the latest *committed* epoch available for ``resume=``,
        or None if no checkpoint was committed before the failure.
    """

    def __init__(self, message: str, *, run_dir: "str | None" = None,
                 epoch: "int | None" = None) -> None:
        super().__init__(message)
        self.run_dir = run_dir
        self.epoch = epoch
