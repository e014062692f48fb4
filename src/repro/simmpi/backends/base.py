"""Abstract execution-backend interface for the simulated MPI runtime.

A *backend* owns the four mechanics every SPMD execution needs:

1. **spawn** — start one execution context per simulated rank and run the
   user's rank function in it (`:meth:`Backend.run``);
2. **rendezvous** — block each rank at a collective until all ranks have
   deposited a matching contribution (`:meth:`Backend.collective``);
3. **collective compute** — apply the collective's ``execute`` function to
   the full contribution list exactly once and hand each rank its slice;
4. **teardown** — release any OS resources (threads, processes, shared
   memory) the backend acquired (`:meth:`Backend.close``).

Everything *above* this interface — :class:`repro.simmpi.comm.SimComm`,
the partitioner, the analytics engine — is backend-agnostic: the same rank
code runs unmodified on every backend, and because metering happens at the
rendezvous (op, tag, per-rank bytes/work), a fixed-seed program produces
bit-identical results and :class:`~repro.simmpi.metrics.CommStats` on all
of them.  That invariant is the subsystem's correctness oracle and is
enforced by ``tests/test_backends_conformance.py``.

Concrete backends live next to this module and are selected by name via
:func:`repro.simmpi.backends.create_runtime` (chainermn-style factory).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.simmpi.errors import RemoteRankError
from repro.simmpi.metrics import CollectiveEvent, CommStats, TierMetering
from repro.simmpi.stepping import run_body


def fault_preamble(plan: Any, deadline: Optional[float], rank: int, op: str,
                   tag: str, header_slot: Optional[int], *,
                   can_die: bool) -> Optional[int]:
    """Give the fault plan its turn before a deposit, on every backend.

    One consultation per *metered round*, so a deposit that also stands
    for its count header (``header_slot``) takes two steps of the plan —
    the header's, then the payload's — and a ``FaultSpec`` step means what
    it meant when the header was a rendezvous of its own.  ``can_die``
    says whether the rank is a killable process (``procs``); elsewhere
    ``die`` is downgraded to a raised fault.  The watchdog ``deadline``,
    if any, is forwarded so injected delays past it surface as hangs.

    Returns the seed of the byte flip a matched ``corrupt`` spec (the
    header's first) asks for, or None; the caller applies it *after* the
    send-side checksum is taken, modeling damage in flight.
    """
    if plan is None:
        return None
    header_spec = None
    if header_slot is not None:
        header_spec = plan.check(rank, "alltoall", tag, can_die=can_die,
                                 deadline=deadline)
    spec = plan.check(rank, op, tag, can_die=can_die, deadline=deadline)
    spec = header_spec or spec
    if spec is None:
        return None
    from repro.ft.integrity import corruption_seed

    return corruption_seed(rank, spec.step, spec.attempt)


def metered_rounds(
    strategy: Optional[Any],
    op: str,
    nbytes: np.ndarray,
    compute: np.ndarray,
    work: np.ndarray,
    dest_rows: Sequence[Optional[np.ndarray]] = (),
    root: Optional[int] = None,
    header_slot: Optional[int] = None,
) -> List[tuple]:
    """The ``(op, bytes, compute, work, tiers)`` rows one completed
    rendezvous records, in event order.

    A *rendezvous* is the simulator's unit (every rank parks once); a
    *metered round* is the modeled machine's.  They differ for an
    Alltoallv: Algorithm 3 exchanges the counts (an ``alltoall`` of one
    ``header_slot``-byte entry per rank pair), then the payload, and both
    rounds are metered, but the ranks deposit once — the payload deposit
    carries the counts.  The header row comes first and takes the
    superstep's compute and work; the payload row has none.

    Tiers are split here, once per round for all ranks, from the inputs
    the ranks deposited (``nbytes``, ``dest_rows``, ``root``); ``strategy``
    None (flat metering) leaves them None.
    """
    nprocs = len(nbytes)
    rows = []
    if header_slot is not None:
        # one count entry from every rank to every other rank
        hdr = np.full(nprocs, (nprocs - 1) * header_slot, dtype=np.int64)
        tiers = None
        if strategy is not None:
            hdr_dest = np.full((nprocs, nprocs), header_slot, dtype=np.int64)
            np.fill_diagonal(hdr_dest, 0)
            tiers = strategy.tier_matrix("alltoall", hdr, hdr_dest,
                                         counts=True)
        rows.append(("alltoall", hdr, compute, work, tiers))
        compute, work = np.zeros(nprocs), np.zeros(nprocs)
    tiers = None
    if strategy is not None:
        dest = None
        if any(d is not None for d in dest_rows):
            dest = np.zeros((nprocs, nprocs), dtype=np.int64)
            for r, d in enumerate(dest_rows):
                if d is not None:
                    dest[r] = d
        tiers = strategy.tier_matrix(op, nbytes, dest, root)
    rows.append((op, nbytes, compute, work, tiers))
    return rows


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
        #: classifies each collective's traffic into machine tiers.  None
        #: is flat metering; set by
        #: :func:`repro.simmpi.backends.create_runtime`.
        self.comm_strategy: Optional[Any] = None
        #: Optional :class:`repro.ft.checkpoint.CkptCommitter` (duck-typed:
        #: ``commit(stats)``).  Invoked in the driver/parent process right
        #: after a ``checkpoint`` collective is recorded — the process that
        #: owns ``stats`` is the only one that can write the epoch's event
        #: prefix, and running commit at record time orders it after the
        #: rank files were persisted by the collective's writer.
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
        nbytes_sent: int,
        execute: Callable[[List[Any]], List[Any]],
        compute_seconds: float,
        work_units: float = 0.0,
        dest_bytes: Optional[np.ndarray] = None,
        root: Optional[int] = None,
        header_slot: Optional[int] = None,
    ) -> Any:
        """Deposit ``contribution`` for ``op``; block until all ranks match.

        ``execute`` maps the full list of contributions (indexed by rank) to
        a list of per-rank results; it runs exactly once per superstep.
        ``nbytes_sent`` is this rank's off-rank payload for the metering
        convention documented in :mod:`repro.simmpi.metrics`.  The rest are
        the inputs of what is computed once, when the rendezvous is
        recorded (:func:`metered_rounds`): ``dest_bytes`` that payload per
        destination (pairwise ops under a tiered strategy),
        ``root`` the root of a rooted op, and ``header_slot`` the bytes of
        one entry of the count header this deposit also stands for — the
        last two are the same on every rank, and the executing rank's are
        used.

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
        checksum = self._send_side(rank, op, tag, contribution, header_slot)
        if self.nprocs == 1:
            # nobody to wait for, and zero off-rank bytes, so there is no
            # traffic to classify into tiers either
            results = execute([contribution])
            self._record_rounds(tag, metered_rounds(
                None, op, np.zeros(1, dtype=np.int64),
                np.array([compute_seconds]), np.array([work_units]),
                header_slot=header_slot,
            ))
            return results[0]
        return self._rendezvous(
            rank, op, tag, contribution, nbytes_sent, execute,
            compute_seconds, work_units, dest_bytes, root, header_slot,
            checksum,
        )

    def _send_side(self, rank: int, op: str, tag: str, contribution: Any,
                   header_slot: Optional[int]) -> Optional[int]:
        """The send side of a deposit: the fault plan's turn, then, with
        peers to send to, the contribution's crc under ``integrity ==
        "crc"`` (else None) and the in-flight damage a ``corrupt`` fault
        asked for.  Returns the crc."""
        corrupt_seed = fault_preamble(self.fault_plan, self.watchdog, rank,
                                      op, tag, header_slot, can_die=False)
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

    def _record_rounds(self, tag: str, rounds: Sequence[tuple]) -> None:
        for op, nbytes, compute, work, tiers in rounds:
            self._record(op, tag, nbytes, compute, work, tiers=tiers)

    def _record(
        self,
        op: str,
        tag: str,
        bytes_sent: np.ndarray,
        compute_seconds: np.ndarray,
        work_units: np.ndarray,
        tiers: Optional[np.ndarray] = None,
    ) -> None:
        tier_view: Optional[TierMetering] = None
        if tiers is not None:
            strategy = self.comm_strategy
            # tier_matrix's columns and the hops are in TierMetering's
            # field order: bytes, wire, hops — each intra, inter, xrack
            tier_view = TierMetering(
                *tiers.T, *strategy.hops(op),
                node_of=strategy.node_map, rack_of=strategy.rack_map,
            )
        self.stats.record(CollectiveEvent(
            op=op, tag=tag, bytes_sent=bytes_sent,
            compute_seconds=compute_seconds, work_units=work_units,
            tiers=tier_view,
        ))
        if op == "checkpoint" and self.ckpt_committer is not None:
            self.ckpt_committer.commit(self.stats)

    # -- spawning SPMD programs --------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        rank_args: Optional[Sequence[Sequence[Any]]] = None,
        **kwargs: Any,
    ) -> List[Any]:
        """Run ``fn(comm, *rank_args[r], *args, **kwargs)`` on every rank.

        Returns the list of per-rank return values.  ``args``/``kwargs`` are
        shared across ranks (treat them as read-only inside ``fn``);
        ``rank_args`` supplies per-rank positional arguments.  ``fn`` is a
        plain function or a generator function whose collectives are
        ``yield from`` expressions (:mod:`repro.simmpi.stepping`); a plain
        function that returns a generator is a TypeError.
        """
        from repro.simmpi.comm import SimComm

        if rank_args is not None and len(rank_args) != self.nprocs:
            raise ValueError(
                f"rank_args has {len(rank_args)} entries for {self.nprocs} ranks"
            )
        if self.nprocs == 1:
            comm = SimComm(self, 0)
            extra = tuple(rank_args[0]) if rank_args is not None else ()
            return [run_body(fn, comm, *extra, *args, **kwargs)]
        return self._run_parallel(fn, args, rank_args, kwargs)

    @abstractmethod
    def _run_parallel(
        self,
        fn: Callable[..., Any],
        args: tuple,
        rank_args: Optional[Sequence[Sequence[Any]]],
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
