"""Supervised re-execution: relaunch a failed run from its last epoch.

:func:`run_with_retries` wraps :func:`repro.core.driver.xtrapulp` the way a
batch scheduler wraps an MPI job: run, and on a rank failure relaunch —
resuming from the newest *committed* checkpoint epoch if one exists, from
scratch otherwise — with capped exponential backoff between attempts.
Every absorbed failure is recorded as a
:class:`~repro.simmpi.metrics.RecoveryEvent` on the final result's stats,
so the communication record of a recovered run also documents its history.

Determinism contract: because a resumed run is bit-identical to the
uninterrupted one (see :mod:`repro.ft.checkpoint`), a supervised execution
that survives any number of injected faults returns the same partition and
event record as a fault-free run — the property ``tests/ft`` asserts on
every backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.ft.checkpoint import epoch_dir
from repro.simmpi.errors import (
    HungRankError,
    PayloadCorruptionError,
    RankFailure,
    RemoteRankError,
)
from repro.simmpi.metrics import RecoveryEvent

#: Seconds slept before the first relaunch; each further one doubles it.
BACKOFF_BASE = 0.05
#: Upper bound on one backoff (seconds).
BACKOFF_CAP = 2.0


def backoff(attempt: int) -> float:
    """Seconds to wait before relaunch ``attempt`` (0-based count of prior
    failures): ``min(BACKOFF_BASE * 2**attempt, BACKOFF_CAP)``."""
    return min(BACKOFF_BASE * (2.0 ** attempt), BACKOFF_CAP)


@dataclass(frozen=True)
class RetryPolicy:
    """Relaunch budget.  ``sleep`` waits out each :func:`backoff`; it is
    injectable so tests can assert the schedule without waiting it out."""

    max_retries: int = 3
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)


def _causes(exc: BaseException) -> Iterator[BaseException]:
    """Each exception of ``exc``'s ``__cause__`` / ``__context__`` chain,
    once, breadth first from ``exc``."""
    seen = set()
    queue = [exc]
    while queue:
        e = queue.pop(0)
        if e is None or id(e) in seen:
            continue
        seen.add(id(e))
        yield e
        queue.extend((e.__cause__, e.__context__))


def classify_failure(exc: BaseException) -> str:
    """Name the failure class of a rank failure's cause chain.

    Walks ``__cause__``/``__context__`` looking for the most specific
    typed failure: ``"hang"`` (a stall the supervisor declared),
    ``"corruption"`` (checksum mismatch), ``"crash"`` (a rank process
    died or a peer observed the failure remotely), else ``"exception"``
    (an ordinary error raised by rank code).
    """
    fallback = "exception"
    for e in _causes(exc):
        if isinstance(e, HungRankError):
            return "hang"
        if isinstance(e, PayloadCorruptionError):
            return "corruption"
        if isinstance(e, RemoteRankError):
            fallback = "crash"
    return fallback


def _detection_seconds(exc: BaseException) -> float:
    """Detection latency carried by the cause chain (0.0 if none)."""
    return next((float(e.detection_seconds) for e in _causes(exc)
                 if getattr(e, "detection_seconds", 0.0)), 0.0)


def run_with_retries(
    graph,
    num_parts: int,
    *,
    checkpoint,
    fault_plan: Any = None,
    retry: Optional[RetryPolicy] = None,
    resume: Optional[str] = None,
    **xtrapulp_kwargs,
):
    """Partition with supervision: relaunch on rank failure.

    Parameters mirror :func:`~repro.core.driver.xtrapulp`; ``checkpoint``
    (a :class:`~repro.ft.checkpoint.CkptPolicy` or directory path) is
    required — supervision without checkpoints would re-run from scratch
    every time, which the caller can do with a plain loop.  If a
    ``fault_plan`` is given, its :attr:`current_attempt` is advanced before
    each launch so a spec armed for attempt 0 does not re-fire on the
    retry that recovers from it.

    Returns the successful :class:`~repro.core.driver.PartitionResult`
    with any absorbed failures appended to ``result.stats.recoveries``;
    re-raises the last :class:`RankFailure` once ``retry.max_retries``
    relaunches are exhausted.
    """
    from repro.core.driver import xtrapulp  # deferred: driver imports ft

    policy = retry or RetryPolicy()
    recoveries = []
    for attempt in range(policy.max_retries + 1):
        if fault_plan is not None:
            fault_plan.current_attempt = attempt
        try:
            result = xtrapulp(
                graph, num_parts, checkpoint=checkpoint,
                resume=resume, fault_plan=fault_plan, **xtrapulp_kwargs,
            )
        except RankFailure as exc:
            if attempt >= policy.max_retries:
                raise
            # the failure names the epoch xtrapulp found committed
            resume = (None if exc.epoch is None
                      else epoch_dir(exc.run_dir, exc.epoch))
            wait = backoff(attempt)
            recoveries.append(RecoveryEvent(
                attempt=attempt + 1,
                epoch=exc.epoch,
                error=repr(exc.__cause__ if exc.__cause__ is not None else exc),
                backoff_seconds=wait,
                failure_class=classify_failure(exc),
                detection_seconds=_detection_seconds(exc),
            ))
            policy.sleep(wait)
            continue
        for rec in recoveries:
            result.stats.record_recovery(rec)
        return result
    raise AssertionError("unreachable")  # pragma: no cover
