"""Abstract execution-backend interface for the simulated MPI runtime.

A *backend* owns the four mechanics every SPMD execution needs:

1. **spawn** — start one execution context per simulated rank and run the
   user's rank function in it (`:meth:`Backend.run``);
2. **rendezvous** — block each rank at a collective until all ranks have
   deposited a matching contribution (`:meth:`Backend.collective``);
3. **collective compute** — apply the collective's ``execute`` function to
   the full contribution list exactly once, hand each rank its slice and
   record the round's traffic, which ``execute`` reads off the
   contributions (`:meth:`Backend._record``, the one record path);
4. **teardown** — release any OS resources (threads, processes, shared
   memory) the backend acquired (`:meth:`Backend.close``).

Everything *above* this interface — :class:`repro.simmpi.comm.SimComm`,
the partitioner, the analytics engine — is backend-agnostic: the same rank
code runs unmodified on every backend, and because a round meters itself
where it executes (op, tag, traffic, per-rank work), a fixed-seed program
produces bit-identical results and
:class:`~repro.simmpi.metrics.CommStats` on all of them.  That invariant
is the subsystem's correctness oracle and is enforced by
``tests/test_backends_conformance.py``.

Concrete backends live next to this module and are selected by name via
:func:`repro.simmpi.backends.create_runtime` (chainermn-style factory).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.simmpi.errors import RemoteRankError
from repro.simmpi.metrics import CollectiveEvent, CommStats
from repro.simmpi.stepping import run_body


def fault_preamble(plan: Any, deadline: Optional[float], rank: int, op: str,
                   tag: str, *, can_die: bool) -> Optional[int]:
    """Give the fault plan its turn before a deposit, on every backend.

    One consultation per deposit, and so per metered round: a
    ``FaultSpec`` step counts the rank's collectives.  ``can_die`` says
    whether the rank is a killable process (``procs``); elsewhere ``die``
    is downgraded to a raised fault.  The watchdog ``deadline``, if any, is
    forwarded so injected delays past it surface as hangs.

    Returns the seed of the byte flip a matched ``corrupt`` spec asks for,
    or None; the caller applies it *after* the send-side checksum is
    taken, modeling damage in flight.
    """
    if plan is None:
        return None
    spec = plan.check(rank, op, tag, can_die=can_die, deadline=deadline)
    if spec is None:
        return None
    from repro.ft.integrity import corruption_seed

    return corruption_seed(rank, spec.step, spec.attempt)


class Backend(ABC):
    """Abstract execution backend (one subclass per parallelism strategy).

    Parameters
    ----------
    nprocs:
        Number of simulated MPI ranks.
    """

    #: Registry name of the backend (set by each subclass).
    name: str = "abstract"

    #: Whether the ranks a :class:`~repro.simmpi.comm.SimComm` of this
    #: runtime serves live in one address space, so that a one-result
    #: collective hands them all the same sealed (read-only) object.
    shares_results = True

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = int(nprocs)
        self.stats = CommStats(self.nprocs)
        #: Whether each rank stamps the ``thread_time`` it spent between
        #: collectives into the events' ``compute_seconds`` — a profiling
        #: instrument the machine model never prices.  Off unless
        #: :func:`repro.simmpi.backends.create_runtime` turns it on.
        self.meter_compute = False
        #: Optional :class:`repro.ft.faults.FaultPlan` (duck-typed: anything
        #: with ``check(rank, op, tag, can_die=...)``).  Consulted rank-side
        #: before every collective deposit so deterministic crashes/delays
        #: can be planted at exact supersteps on every backend.
        self.fault_plan: Optional[Any] = None
        #: Communicator strategy (see :mod:`repro.simmpi.topology`) that
        #: meters each collective's traffic on the machine's tiers.  None
        #: is flat metering; set by
        #: :func:`repro.simmpi.backends.create_runtime`.
        self.comm_strategy: Optional[Any] = None
        #: Optional :class:`repro.ft.checkpoint.CkptCommitter` (duck-typed:
        #: ``commit(stats)``).  Invoked in the driver/parent process right
        #: after each round is recorded, and commits the epoch a checkpoint
        #: round wrote — the process that owns ``stats`` is the only one
        #: that can write the epoch's event prefix, and running commit at
        #: record time orders it after the rank files were persisted by
        #: the round's writer.
        self.ckpt_committer: Optional[Any] = None
        # deferred import: repro.ft sits above simmpi in the layering, but
        # this is a leaf config module (env parsing) with no backend
        # dependency, so the cycle is only cosmetic
        from repro.ft.integrity import default_integrity

        #: Liveness deadline in seconds (:mod:`repro.ft.watchdog`), or None
        #: for unbounded waits; set by
        #: :func:`repro.simmpi.backends.create_runtime`.
        self.watchdog: Optional[float] = None
        #: Payload integrity mode (``"crc"`` / ``"off"``), resolved from
        #: ``$REPRO_INTEGRITY`` at construction; overridable via
        #: :func:`repro.simmpi.backends.create_runtime`.  ``"crc"``
        #: checksums every payload at send and verifies at receive.
        self.integrity = default_integrity()

    # -- rendezvous + collective compute -----------------------------------

    def collective(
        self,
        rank: int,
        op: str,
        tag: str,
        contribution: Any,
        execute: Callable[[List[Any]], Any],
        compute_seconds: float,
        work_units: float = 0.0,
    ) -> Any:
        """Deposit ``contribution`` for ``op``; block until all ranks match.

        ``execute`` maps the full list of contributions (indexed by rank) to
        the per-rank results and the round's traffic (see
        :mod:`repro.simmpi.comm`); it runs exactly once per superstep, and
        :meth:`_record` meters the round from that traffic.  A deposit
        carries no metering input of its own.

        Under ``integrity == "crc"`` the contribution is checksummed here
        (at "send time") and the checksum rides along to the rendezvous,
        where the receiving side re-computes and compares before
        ``execute`` runs — an injected ``corrupt`` fault flips a payload
        byte *after* the checksum is taken, modeling in-flight damage.

        One rank has nobody to wait for and is served here, on every
        backend; more ranks meet in the backend's ``_rendezvous`` (the
        in-process engine's — ``procs`` ranks deposit through their own
        endpoints, never through the parent's backend object).
        """
        checksum = self._send_side(rank, op, tag, contribution)
        if self.nprocs == 1:
            results, traffic = execute([contribution])
            self._record(tag, op, traffic, np.array([compute_seconds]),
                         np.array([work_units]))
            return results[0]
        return self._rendezvous(rank, op, tag, contribution, execute,
                                compute_seconds, work_units, checksum)

    def _send_side(self, rank: int, op: str, tag: str,
                   contribution: Any) -> Optional[int]:
        """The send side of a deposit: the fault plan's turn, then, with
        peers to send to, the contribution's crc under ``integrity ==
        "crc"`` (else None) and the in-flight damage a ``corrupt`` fault
        asked for.  Returns the crc."""
        corrupt_seed = fault_preamble(self.fault_plan, self.watchdog, rank,
                                      op, tag, can_die=False)
        if self.nprocs == 1 or (
                self.integrity != "crc" and corrupt_seed is None):
            return None
        from repro.ft import integrity

        checksum = None
        if self.integrity == "crc":
            checksum = integrity.checksum_obj(contribution)
        if corrupt_seed is not None:
            integrity.corrupt_object(contribution, corrupt_seed)
        return checksum

    def _record(self, tag: str, op: str, traffic: np.ndarray,
                compute_seconds: np.ndarray, work_units: np.ndarray) -> None:
        """Record one completed rendezvous — one metered round — under
        ``tag``, on every backend and the one-rank path alike.

        ``traffic`` is what the round's ``execute`` read off the
        contributions: each rank's bytes, or for an exchange the per-
        destination byte matrix (diagonal zero), whose row sums are
        ``bytes_sent`` and non-zero counts each rank's ``messages`` — paired,
        when the exchange carries a reduction, with each rank's operand
        bytes, which ``bytes_sent`` adds and ``messages`` does not count.
        A lone rank sends nothing off-rank and has no tier to send it
        over; otherwise a tiered strategy splits the traffic here, once
        for all ranks."""
        traffic, reduced = (traffic if isinstance(traffic, tuple)
                            else (traffic, None))
        if self.nprocs == 1:
            traffic, reduced = np.zeros_like(traffic), None
        bytes_sent, messages, tiers = traffic, None, None
        if self.comm_strategy is not None and self.nprocs > 1:
            tiers = self.comm_strategy.tiers(op, traffic, reduced)
        if traffic.ndim == 2:
            bytes_sent = traffic.sum(axis=1)
            if reduced is not None:
                bytes_sent += reduced
            # counted in place — the matrix is this round's alone, and a
            # P x P boolean temporary would raise peak memory at
            # thousands of ranks
            messages = np.minimum(traffic, 1, out=traffic).sum(axis=1)
        self.stats.record(CollectiveEvent(
            op=op, tag=tag, bytes_sent=bytes_sent,
            compute_seconds=compute_seconds, work_units=work_units,
            messages=messages, tiers=tiers,
        ))
        if self.ckpt_committer is not None:
            self.ckpt_committer.commit(self.stats)

    # -- spawning SPMD programs --------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any,
            **kwargs: Any) -> List[Any]:
        """Run ``fn(comm, *args, **kwargs)`` on every rank.

        Returns the list of per-rank return values.  ``args``/``kwargs`` are
        shared across ranks (treat them as read-only inside ``fn``; a rank
        tells itself apart by ``comm.rank``).  ``fn`` is a
        plain function or a generator function whose collectives are
        ``yield from`` expressions (:mod:`repro.simmpi.stepping`); a plain
        function that returns a generator is a TypeError.
        """
        from repro.simmpi.comm import SimComm

        if self.nprocs == 1:
            return [run_body(fn, SimComm(self, 0), *args, **kwargs)]
        return self._run_parallel(fn, args, kwargs)

    @abstractmethod
    def _run_parallel(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> List[Any]:
        """Run the SPMD program with ``nprocs >= 2`` ranks."""

    @staticmethod
    def _raise_collected(
        errors: Sequence[Optional[BaseException]],
        failure: Optional[BaseException] = None,
    ) -> None:
        """Re-raise the most meaningful failure of a finished run.

        Priority: a rank's own (non-remote) exception, then the recorded
        first failure (e.g. a DeadlockError raised on behalf of ranks that
        only ever observed a RemoteRankError), then any RemoteRankError.
        """
        primary = next((e for e in errors if e is not None
                        and not isinstance(e, RemoteRankError)), None)
        if primary is not None:
            raise primary
        if failure is not None and not isinstance(failure, RemoteRankError):
            raise failure
        secondary = next((e for e in errors if e is not None), None)
        if secondary is not None:
            raise secondary

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources.  Idempotent; default is a no-op."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(nprocs={self.nprocs})"
