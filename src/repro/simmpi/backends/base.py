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
:func:`repro.simmpi.backends.create_runtime` (chainermn-style registry).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.simmpi.errors import RemoteRankError
from repro.simmpi.metrics import CollectiveEvent, CommStats, TierMetering


class _Pending:
    """State of the collective currently being assembled (in-process)."""

    __slots__ = ("op", "tag", "contribs", "nbytes", "compute", "work",
                 "dest", "arrived", "results", "deposited", "checksums")

    def __init__(self, nprocs: int, op: str, tag: str) -> None:
        self.op = op
        self.tag = tag
        self.contribs: List[Any] = [None] * nprocs
        self.nbytes = np.zeros(nprocs, dtype=np.int64)
        self.compute = np.zeros(nprocs, dtype=np.float64)
        self.work = np.zeros(nprocs, dtype=np.float64)
        #: Per-rank per-destination byte vectors of destination-addressed
        #: ops under a tiered communicator strategy (the tier split's
        #: input); None everywhere else.
        self.dest: List[Optional[np.ndarray]] = [None] * nprocs
        self.arrived = 0
        self.results: Optional[List[Any]] = None
        #: Which ranks have deposited (diagnostics: deadlock/mismatch
        #: errors name the blocked ranks, not just their count).
        self.deposited: List[bool] = [False] * nprocs
        #: Per-rank contribution crc32s (integrity mode only, else None).
        self.checksums: Optional[List[Optional[int]]] = None

    def blocked_ranks(self) -> List[int]:
        return [r for r, d in enumerate(self.deposited) if d]


def consult_fault_plan(plan: Any, rank: int, op: str, tag: str,
                       header_slot: Optional[int], *, can_die: bool,
                       deadline: Optional[float]) -> Optional[Any]:
    """Give ``plan`` its turn before a deposit: one consultation per
    *metered round*, so a deposit that also stands for its count header
    (``header_slot``) takes two steps of the plan — the header's, then the
    payload's — and a ``FaultSpec`` step means what it meant when the
    header was a rendezvous of its own.  Returns the matched ``corrupt``
    spec (the header's first), or None."""
    header_spec = None
    if header_slot is not None:
        header_spec = plan.check(rank, "alltoall", tag, can_die=can_die,
                                 deadline=deadline)
    spec = plan.check(rank, op, tag, can_die=can_die, deadline=deadline)
    return header_spec or spec


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
    None or flat leaves them None.
    """
    nprocs = len(nbytes)
    tiered = strategy is not None and strategy.tiered
    rows = []
    if header_slot is not None:
        # one count entry from every rank to every other rank
        hdr = np.full(nprocs, (nprocs - 1) * header_slot, dtype=np.int64)
        tiers = None
        if tiered:
            hdr_dest = np.full((nprocs, nprocs), header_slot, dtype=np.int64)
            np.fill_diagonal(hdr_dest, 0)
            tiers = strategy.tier_matrix("alltoall", hdr, hdr_dest,
                                         counts=True)
        rows.append(("alltoall", hdr, compute, work, tiers))
        compute, work = np.zeros(nprocs), np.zeros(nprocs)
    tiers = None
    if tiered:
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
    meter_compute:
        If False, skip the per-rank ``thread_time`` calls (slightly faster;
        modeled times then contain only communication and charged-work
        terms).  Deterministic kernels run with this off.
    """

    #: Registry name of the backend (set by each subclass).
    name: str = "abstract"

    #: Whether the ranks a :class:`~repro.simmpi.comm.SimComm` of this
    #: runtime serves live in one address space, so that a one-result
    #: collective hands them all the same sealed (read-only) object.
    shares_results = True

    def __init__(self, nprocs: int, *, meter_compute: bool = True) -> None:
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = int(nprocs)
        self.meter_compute = bool(meter_compute)
        self.stats = CommStats(self.nprocs)
        #: Optional :class:`repro.ft.faults.FaultPlan` (duck-typed: anything
        #: with ``check(rank, op, tag, can_die=...)``).  Consulted rank-side
        #: before every collective deposit so deterministic crashes/delays
        #: can be planted at exact supersteps on every backend.
        self.fault_plan: Optional[Any] = None
        #: Communicator strategy (see :mod:`repro.simmpi.topology`) that
        #: classifies each collective's traffic into machine tiers.  None
        #: or a non-tiered strategy keeps the historical flat metering;
        #: set by :func:`repro.simmpi.backends.create_runtime`.
        self.comm_strategy: Optional[Any] = None
        #: Optional :class:`repro.ft.checkpoint.CkptCommitter` (duck-typed:
        #: ``commit(stats)``).  Invoked in the driver/parent process right
        #: after a ``checkpoint`` collective is recorded — the process that
        #: owns ``stats`` is the only one that can write the epoch's event
        #: prefix, and running commit at record time orders it after the
        #: rank files were persisted by the collective's writer.
        self.ckpt_committer: Optional[Any] = None
        # deferred import: repro.ft sits above simmpi in the layering, but
        # these two are leaf config modules (env parsing + dataclasses)
        # with no backend dependency, so the cycle is only cosmetic
        from repro.ft.integrity import default_integrity
        from repro.ft.watchdog import default_watchdog

        #: Liveness policy (:class:`repro.ft.watchdog.WatchdogConfig`) or
        #: None for unbounded waits (historical behavior).  Resolved from
        #: ``$REPRO_WATCHDOG_TIMEOUT`` at construction; overridable via
        #: :func:`repro.simmpi.backends.create_runtime`.
        self.watchdog = default_watchdog()
        #: Payload integrity mode (``"crc"`` / ``"off"``), resolved from
        #: ``$REPRO_INTEGRITY`` at construction; overridable via
        #: :func:`repro.simmpi.backends.create_runtime`.  ``"crc"``
        #: checksums every payload at send and verifies at receive.
        self.integrity = default_integrity()

    # -- fault injection ---------------------------------------------------

    def _fault_check(self, rank: int, op: str, tag: str,
                     header_slot: Optional[int] = None) -> Optional[Any]:
        """Give the fault plan a chance to fire before a deposit (see
        :func:`consult_fault_plan`).

        Hard process death is not available here (only the ``procs``
        backend runs ranks in killable processes; the in-process backends
        downgrade ``die`` to a raised fault).  The watchdog deadline, if
        any, is forwarded so injected delays past it surface as hangs.
        Returns the matched ``corrupt`` spec (or None).
        """
        plan = self.fault_plan
        if plan is None:
            return None
        deadline = self.watchdog.timeout if self.watchdog is not None else None
        return consult_fault_plan(plan, rank, op, tag, header_slot,
                                  can_die=False, deadline=deadline)

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
        destination (destination-addressed ops under a tiered strategy),
        ``root`` the root of a rooted op, and ``header_slot`` the bytes of
        one entry of the count header this deposit also stands for — the
        last two are the same on every rank, and the executing rank's are
        used.

        Under ``integrity == "crc"`` the contribution is checksummed here
        (at "send time") and the checksum rides along to the rendezvous,
        where the receiving side re-computes and compares before
        ``execute`` runs — an injected ``corrupt`` fault flips a payload
        byte *after* the checksum is taken, modeling in-flight damage.
        """
        corrupt_spec = self._fault_check(rank, op, tag, header_slot)
        if self.nprocs == 1:
            return self._collective_single(op, tag, contribution, execute,
                                           compute_seconds, work_units,
                                           header_slot)
        checksum: Optional[int] = None
        if self.integrity == "crc":
            from repro.ft.integrity import checksum_obj

            checksum = checksum_obj(contribution)
        if corrupt_spec is not None:
            from repro.ft.integrity import corrupt_object, corruption_seed

            seed = corruption_seed(rank, corrupt_spec.step,
                                   corrupt_spec.attempt)
            corrupt_object(contribution, seed)
        return self._collective_parallel(
            rank, op, tag, contribution, nbytes_sent, execute,
            compute_seconds, work_units, dest_bytes, root, header_slot,
            checksum=checksum,
        )

    def _collective_single(
        self,
        op: str,
        tag: str,
        contribution: Any,
        execute: Callable[[List[Any]], List[Any]],
        compute_seconds: float,
        work_units: float,
        header_slot: Optional[int],
    ) -> Any:
        """The one-rank case: nobody to wait for, and zero off-rank bytes,
        so there is no traffic to classify into tiers either."""
        results = execute([contribution])
        self._record_rounds(tag, metered_rounds(
            None, op, np.zeros(1, dtype=np.int64),
            np.array([compute_seconds]), np.array([work_units]),
            header_slot=header_slot,
        ))
        return results[0]

    def _collective_parallel(
        self,
        rank: int,
        op: str,
        tag: str,
        contribution: Any,
        nbytes_sent: int,
        execute: Callable[[List[Any]], List[Any]],
        compute_seconds: float,
        work_units: float,
        dest_bytes: Optional[np.ndarray] = None,
        root: Optional[int] = None,
        header_slot: Optional[int] = None,
        checksum: Optional[int] = None,
    ) -> Any:
        raise NotImplementedError(
            f"{type(self).__name__} does not execute collectives in the "
            "driver process; ranks use their own endpoints"
        )

    def _verify_checksums(self, pending: _Pending) -> None:
        """Re-checksum every deposited contribution against its send-time
        crc just before the collective executes (in-process receive side).

        Raises :class:`~repro.simmpi.errors.PayloadCorruptionError` naming
        the damaged ranks; the caller is expected to ``_fail`` peers first
        — this helper only detects and counts.
        """
        from repro.ft.integrity import checksum_obj
        from repro.simmpi.errors import PayloadCorruptionError, format_ranks

        assert pending.checksums is not None
        self.stats.checksum_verifications += self.nprocs
        bad = [r for r, crc in enumerate(pending.checksums)
               if crc is not None
               and checksum_obj(pending.contribs[r]) != crc]
        if bad:
            self.stats.checksum_failures += len(bad)
            raise PayloadCorruptionError(
                f"payload checksum mismatch for {format_ranks(bad)} in "
                f"collective {pending.op!r} (tag {pending.tag!r}, "
                f"superstep {self.stats.rounds})",
                rank=bad[0],
                location=f"{self.name} rendezvous",
            )

    def _record_pending(self, pending: _Pending, root: Optional[int],
                        header_slot: Optional[int]) -> None:
        """Record the metered round(s) of the rendezvous ``pending`` just
        completed (in-process backends)."""
        self._record_rounds(pending.tag, metered_rounds(
            self.comm_strategy, pending.op, pending.nbytes, pending.compute,
            pending.work, pending.dest, root, header_slot,
        ))

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
        if tiers is not None and self.comm_strategy is not None:
            hop_parts = self.comm_strategy.hops(op)
            intra_hops, inter_hops = hop_parts[0], hop_parts[1]
            xrack_hops = hop_parts[2] if len(hop_parts) > 2 else 0
            if tiers.shape[1] == 6:
                # rack-tier column order: intra, inter, xrack, then wires
                tier_view = TierMetering(
                    intra_bytes=tiers[:, 0], inter_bytes=tiers[:, 1],
                    wire_intra=tiers[:, 3], wire_inter=tiers[:, 4],
                    intra_hops=intra_hops, inter_hops=inter_hops,
                    node_of=self.comm_strategy.node_map,
                    xrack_bytes=tiers[:, 2], wire_xrack=tiers[:, 5],
                    xrack_hops=xrack_hops,
                    rack_of=getattr(self.comm_strategy, "rack_map", None),
                )
            else:
                tier_view = TierMetering(
                    intra_bytes=tiers[:, 0], inter_bytes=tiers[:, 1],
                    wire_intra=tiers[:, 2], wire_inter=tiers[:, 3],
                    intra_hops=intra_hops, inter_hops=inter_hops,
                    node_of=self.comm_strategy.node_map,
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
        ``rank_args`` supplies per-rank positional arguments.
        """
        from repro.simmpi.comm import SimComm

        if rank_args is not None and len(rank_args) != self.nprocs:
            raise ValueError(
                f"rank_args has {len(rank_args)} entries for {self.nprocs} ranks"
            )
        if self.nprocs == 1:
            comm = SimComm(self, 0)
            extra = tuple(rank_args[0]) if rank_args is not None else ()
            return [fn(comm, *extra, *args, **kwargs)]
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

    def _join_bounded(self, threads: Sequence[Any]) -> List[int]:
        """Join rank worker threads under the watchdog deadline.

        ``threads[r]`` carries rank ``r``.  Unlike the procs supervisor,
        an in-process backend cannot kill a wedged rank — the deadline
        machinery instead guarantees that every *parked* rank self-detects
        a stall (sliced waits) and fails the run; this join then gives the
        remaining threads one ``timeout + grace`` window to unwind and
        **abandons** any that do not (they were created as daemons when a
        watchdog is configured, so interpreter exit is not held hostage).
        Returns the ranks abandoned this way ([] normally).
        """
        wd = self.watchdog
        assert wd is not None
        slice_s = wd.slice_seconds()
        alive = {r: t for r, t in enumerate(threads)}
        abandon_at: Optional[float] = None
        while alive:
            for r, t in list(alive.items()):
                t.join(timeout=slice_s)
                if not t.is_alive():
                    del alive[r]
            if not alive:
                break
            if getattr(self, "_failure", None) is not None:
                now = time.monotonic()
                if abandon_at is None:
                    abandon_at = now + wd.timeout + wd.grace
                elif now >= abandon_at:
                    return sorted(alive)
        return []

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
        return (f"{type(self).__name__}(nprocs={self.nprocs}, "
                f"meter_compute={self.meter_compute})")
