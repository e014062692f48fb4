"""Deterministic fault injection for the simulated MPI runtime.

A :class:`FaultPlan` plants failures at exact supersteps: "rank 2's third
collective inside phase ``vertex_refine`` raises", or dies hard, or stalls
for 50 ms, or ships a payload with one flipped byte (``corrupt`` — the
integrity subsystem's detection oracle).  The runtime consults the plan
right before every collective deposit, through
:func:`repro.simmpi.backends.base.fault_preamble` on every backend; on
``procs`` a ``die`` fault is a real ``os._exit`` of the rank process
mid-superstep (the case the shared-memory hygiene and supervision code must
survive).

Determinism is the point: the same plan against the same program fails at
the same superstep every time, so crash/recover tests can assert exact
outcomes, and :meth:`FaultPlan.random` draws reproducible plans from a seed
for property tests.

Supersteps are counted **per (attempt, rank, phase-tag)**.  Counting within
the tag makes specs line up with checkpoint boundaries (phases), and the
attempt axis means a spec fires on the attempt it names and never again —
so a supervised retry of the same program does not re-trip the same bomb.
:func:`repro.ft.recovery.run_with_retries` advances
:attr:`FaultPlan.current_attempt` before each relaunch.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simmpi.errors import HungRankError, InjectedFault

#: Exit code used for hard process death, distinctive in supervisor output.
DIE_EXIT_CODE = 86

_ACTIONS = ("raise", "die", "delay", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One planted fault.

    Attributes
    ----------
    rank:
        The rank that fails.
    phase:
        Phase tag (:meth:`repro.simmpi.comm.SimComm.phase`) the fault lives
        in, e.g. ``"vertex_refine"``; ``"*"`` matches any phase.
    step:
        0-based collective index *within that rank's view of the phase* at
        which the fault fires (counted per attempt).
    action:
        ``"raise"`` raises :class:`InjectedFault` inside the rank function;
        ``"die"`` kills the rank process outright where ranks are processes
        (``procs`` backend) and downgrades to ``"raise"`` where they are
        not; ``"delay"`` sleeps ``delay`` seconds and lets the collective
        proceed — latency injection that must not change the metered
        record (under a watchdog deadline, a delay *past* the deadline
        models an indefinite hang: on process backends the rank really
        sleeps and the watchdog kills it, in-process the rank raises
        :class:`~repro.simmpi.errors.HungRankError` once the deadline
        passes instead of sleeping the run); ``"corrupt"`` deterministically
        flips one byte of the rank's outgoing payload at that superstep —
        detected (and only detected) when integrity checking is on.
    delay:
        Sleep duration for ``action="delay"``.
    attempt:
        Which supervised attempt (0-based) the fault arms on.  Specs for
        attempt 0 fire during the first execution and stay quiet on
        retries.
    """

    rank: int
    phase: str
    step: int
    action: str = "raise"
    delay: float = 0.0
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{_ACTIONS}"
            )
        if self.step < 0 or self.rank < 0 or self.attempt < 0:
            raise ValueError(f"negative field in {self!r}")
        if not 0 <= self.delay < math.inf:
            raise ValueError(
                f"fault delay must be finite and >= 0, got {self.delay}")


class FaultPlan:
    """A set of :class:`FaultSpec` consulted before every collective.

    The plan is fork-shipped to rank processes on the ``procs`` backend and
    shared across rank threads elsewhere; superstep counters are keyed by
    ``(attempt, rank, phase)`` so concurrent ranks never touch the same
    counter.
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()) -> None:
        self.specs: List[FaultSpec] = list(specs)
        #: Set by the recovery supervisor before each (re)launch.
        self.current_attempt = 0
        self._counts: Dict[Tuple[int, int, str], int] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.specs!r}, attempt={self.current_attempt})"

    # -- construction helpers ----------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        nprocs: int,
        phases: Sequence[str],
        max_step: int,
        action: str = "raise",
        attempt: int = 0,
    ) -> "FaultPlan":
        """Draw one reproducible fault point from ``seed``."""
        import numpy as np

        rng = np.random.default_rng(seed)
        spec = FaultSpec(
            rank=int(rng.integers(nprocs)),
            phase=str(phases[int(rng.integers(len(phases)))]),
            step=int(rng.integers(max_step)),
            action=action,
            attempt=attempt,
        )
        return cls([spec])

    # -- runtime hook ------------------------------------------------------

    def check(self, rank: int, op: str, tag: str, *,
              can_die: bool = False,
              deadline: Optional[float] = None) -> Optional[FaultSpec]:
        """Fire any armed fault for this rank's next collective in ``tag``.

        Called by the backend with the deposit about to happen; ``op`` is
        unused for matching (specs address phases, not collective kinds)
        but kept in the signature for debuggability of raised faults.
        ``deadline`` is the backend's watchdog timeout (None when no
        watchdog is configured): it caps how long an injected ``delay``
        may stall an in-process rank before the stall is surfaced as a
        hang.  Returns the matched ``corrupt`` spec, if any, so the
        backend can flip a byte of the outgoing payload *after* it is
        checksummed; all other actions fire in place.
        """
        attempt = self.current_attempt
        key = (attempt, rank, tag)
        step = self._counts.get(key, 0)
        self._counts[key] = step + 1
        corrupt: Optional[FaultSpec] = None
        for spec in self.specs:
            if spec.attempt != attempt or spec.rank != rank:
                continue
            if spec.phase != "*" and spec.phase != tag:
                continue
            if spec.step != step:
                continue
            fired = self._fire(spec, rank, op, tag, step, can_die, deadline)
            if fired is not None and corrupt is None:
                corrupt = fired
        return corrupt

    def _fire(self, spec: FaultSpec, rank: int, op: str, tag: str,
              step: int, can_die: bool,
              deadline: Optional[float] = None) -> Optional[FaultSpec]:
        where = (f"rank {rank}, phase {tag!r}, superstep {step} "
                 f"(op {op!r}, attempt {spec.attempt})")
        if spec.action == "corrupt":
            return spec
        if spec.action == "delay":
            if deadline is not None and spec.delay > deadline and not can_die:
                # In-process backends cannot be killed from outside; model
                # the watchdog by sleeping out the deadline, then raising
                # instead of stalling the whole run for the full delay.
                time.sleep(deadline)
                raise HungRankError(
                    f"injected {spec.delay:.3g}s delay at {where} exceeded "
                    f"the {deadline:.3g}s watchdog deadline",
                    ranks=(rank,), phase=tag, detection_seconds=deadline,
                )
            # On process backends (can_die) the rank really sleeps — a
            # delay past the deadline is then an actual hang for the
            # supervisor-side watchdog to detect and kill.
            time.sleep(spec.delay)
            return None
        if spec.action == "die" and can_die:
            # Hard death of a real rank process: no unwinding, no error
            # announcement — the supervisor must notice the corpse.
            os._exit(DIE_EXIT_CODE)
        raise InjectedFault(f"injected fault at {where}")


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI form ``RANK:PHASE:STEP[:ACTION[:SECONDS]]``.

    Examples: ``2:vertex_refine:5``, ``0:edge_balance:3:die``,
    ``1:vertex_balance:4:corrupt``, ``1:vertex_refine:4:delay:30`` (a 30 s
    stall — under ``--watchdog-timeout`` this models an indefinite hang).
    Only ``delay`` takes the SECONDS argument.
    """
    parts = text.split(":")
    if len(parts) not in (3, 4, 5):
        raise ValueError(
            f"--inject-fault expects RANK:PHASE:STEP[:ACTION[:SECONDS]], "
            f"got {text!r}"
        )
    try:
        rank = int(parts[0])
        step = int(parts[2])
    except ValueError:
        raise ValueError(
            f"--inject-fault RANK and STEP must be integers, got {text!r}"
        ) from None
    action = parts[3] if len(parts) > 3 else "raise"
    delay = 0.0
    if len(parts) == 5:
        if action != "delay":
            raise ValueError(
                f"--inject-fault: only the delay action takes a SECONDS "
                f"argument, got {text!r}"
            )
        try:
            delay = float(parts[4])
        except ValueError:
            raise ValueError(
                f"--inject-fault delay SECONDS must be a number, got {text!r}"
            ) from None
    return FaultSpec(rank=rank, phase=parts[1], step=step, action=action,
                     delay=delay)
