"""Serial execution backend: cooperative round-robin superstep interpreter.

Exactly **one rank executes at any instant**.  Rank 0 runs until it deposits
at its first collective, then hands a baton to rank 1, and so on in strict
round-robin order; the last depositor executes the collective and *keeps
running* with its own result (see below), the baton continuing around the
ring from it.  Scheduling is therefore a pure function of the program —
prints, breakpoints, and profiles are identical run-to-run — which makes
this the backend of choice for debugging rank code and for minimal repro
cases.  There is no lock discipline to reason about: the baton *is* the
schedule, so shared engine state is only ever touched by one runnable rank
at a time.

Ranks are carried by parked worker threads purely so that ordinary blocking
rank functions can be suspended mid-call; the threads never run
concurrently, hence "serial".  At thousands of ranks the engine cost is
dominated by those park/wake cycles, so the baton is engineered down to the
cheapest primitive available:

* each baton is a **raw ``threading.Lock``** held by its parked rank —
  waking a rank is one C-level ``release``, parking is one ``acquire``,
  with no per-wait allocation (a ``threading.Event`` wait builds a fresh
  waiter lock inside its ``Condition`` every call);
* the locks are allocated once per run and reused across every superstep;
* **executor-continue**: the last depositor of a superstep executes the
  collective and simply returns with its result instead of parking and
  being re-woken — one full OS park/wake cycle saved per collective,
  counted in :attr:`~repro.simmpi.metrics.CommStats.saved_switches`.  The
  deposit order still rotates deterministically (the executor of superstep
  ``s`` deposits first at superstep ``s+1``), so the schedule remains a
  pure function of the program.

Error semantics match the other backends: mismatched collectives raise
:class:`~repro.simmpi.errors.CollectiveMismatchError`, abandoned rendezvous
raise :class:`~repro.simmpi.errors.DeadlockError`, and a failing rank
releases the others with :class:`~repro.simmpi.errors.RemoteRankError`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.simmpi.backends.base import Backend, _Pending
from repro.simmpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    HungRankError,
    RemoteRankError,
    format_ranks,
)


class SerialBackend(Backend):
    """Deterministic single-runner backend with round-robin scheduling."""

    name = "serial"

    def __init__(self, nprocs: int, *, meter_compute: bool = True) -> None:
        super().__init__(nprocs, meter_compute=meter_compute)
        self._batons: List[threading.Lock] = []
        self._finished: List[bool] = []
        self._in_collective: List[bool] = []
        self._n_finished = 0
        self._pending: Optional[_Pending] = None
        self._failure: Optional[BaseException] = None
        #: Rank most recently handed the baton — the one actually running,
        #: so a deadline-tripped parked rank can blame the true laggard.
        self._baton_holder: Optional[int] = None

    # -- the baton ---------------------------------------------------------

    def _pass_baton(self, from_rank: int) -> None:
        """Hand execution to the next runnable rank after ``from_rank``."""
        for offset in range(1, self.nprocs + 1):
            r = (from_rank + offset) % self.nprocs
            if not self._finished[r] and not self._in_collective[r]:
                self._release_baton(r)
                return
        # No runnable rank left.  If some ranks are still parked inside an
        # unfinished collective, nobody can ever complete it.
        if self._pending is not None and self._failure is None:
            pending = self._pending
            self._fail(DeadlockError(
                f"{pending.arrived} rank(s) "
                f"({format_ranks(pending.blocked_ranks())}) parked in "
                f"collective {pending.op!r} (tag {pending.tag!r}, "
                f"superstep {self.stats.rounds}) with no runnable rank left"
            ))

    def _release_baton(self, rank: int) -> None:
        """Wake ``rank`` (idempotent, like the Event.set it replaced: a
        baton released twice before the owner re-parks must not raise)."""
        self._baton_holder = rank
        try:
            self._batons[rank].release()
        except RuntimeError:
            pass  # already released — the wake is already in flight

    def _wait_baton(self, rank: int) -> None:
        wd = self.watchdog
        if wd is None:
            self._batons[rank].acquire()
            return
        # Deadline-bounded park: slice the acquire so a stalled schedule
        # (e.g. the baton holder wedged outside any fault hook) surfaces as
        # HungRankError after the timeout instead of blocking forever.  The
        # wait spans a full scheduling round by design — see the deadline
        # semantics note in repro.ft.watchdog.
        slice_s = wd.slice_seconds()
        warn_at = wd.timeout * wd.warn_fraction
        start = time.monotonic()
        extensions = 0
        while not self._batons[rank].acquire(timeout=slice_s):
            waited = time.monotonic() - start
            if waited >= warn_at and extensions < wd.probes:
                extensions += 1
                self.stats.deadline_extensions += 1
            if waited < wd.timeout:
                continue
            pending = self._pending
            # blame the rank actually holding the baton — it is the one
            # that stopped advancing; this rank is merely parked behind it
            holder = self._baton_holder
            if self._failure is not None:
                # a peer failed the run while this slice ran out: that
                # failure is the report, not a second hang (tested after
                # the holder is read — _fail re-points it at every rank)
                return
            stalled = (holder,) if holder is not None and holder != rank \
                else (rank,)
            exc = HungRankError(
                f"{format_ranks(stalled)} held the scheduling baton for "
                f"{waited:.3g}s without progress (deadline "
                f"{wd.timeout:.3g}s) at superstep {self.stats.rounds}; "
                f"rank {rank} gave up waiting",
                ranks=stalled,
                phase=pending.tag if pending is not None else "",
                detection_seconds=waited,
            )
            self._fail(exc)
            raise exc

    def _fail(self, exc: BaseException) -> None:
        """Record the first failure and wake every parked rank."""
        if self._failure is None:
            self._failure = exc
        self._pending = None
        for r in range(self.nprocs):
            self._release_baton(r)

    # -- rendezvous engine -------------------------------------------------

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
        # The base class's dispatch layer (fault check, single-rank
        # short-circuit, delegate to _collective_parallel) is folded into
        # the deposit path: one Python frame per deposit is measurable at
        # thousands of ranks.
        corrupt_spec = self._fault_check(rank, op, tag, header_slot)
        if self.nprocs == 1:
            return self._collective_single(op, tag, contribution, execute,
                                           compute_seconds, work_units,
                                           header_slot)
        checksum: Optional[int] = None
        if self.integrity == "crc" or corrupt_spec is not None:
            from repro.ft import integrity as _integrity

            if self.integrity == "crc":
                checksum = _integrity.checksum_obj(contribution)
            if corrupt_spec is not None:
                _integrity.corrupt_object(
                    contribution,
                    _integrity.corruption_seed(rank, corrupt_spec.step,
                                               corrupt_spec.attempt),
                )
        if self._failure is not None:
            raise RemoteRankError(f"rank {rank}: aborted") from self._failure
        if self._n_finished > 0:
            exc = DeadlockError(
                f"rank {rank} entered collective {op!r} (tag {tag!r}, "
                f"superstep {self.stats.rounds}) but {self._n_finished} "
                f"rank(s) already returned"
            )
            self._fail(exc)
            raise exc

        if self._pending is None:
            self._pending = _Pending(self.nprocs, op, tag)
        pending = self._pending
        if pending.op != op:
            exc = CollectiveMismatchError(
                f"rank {rank} called {op!r} (tag {tag!r}) while "
                f"{format_ranks(pending.blocked_ranks())} already in "
                f"{pending.op!r} (tag {pending.tag!r}, "
                f"superstep {self.stats.rounds})"
            )
            self._fail(exc)
            raise exc

        pending.contribs[rank] = contribution
        pending.nbytes[rank] = nbytes_sent
        pending.compute[rank] = compute_seconds
        pending.work[rank] = work_units
        pending.dest[rank] = dest_bytes
        pending.arrived += 1
        pending.deposited[rank] = True
        if checksum is not None:
            if pending.checksums is None:
                pending.checksums = [None] * self.nprocs
            pending.checksums[rank] = checksum
        self._in_collective[rank] = True

        if pending.arrived == self.nprocs:
            try:
                if pending.checksums is not None:
                    self._verify_checksums(pending)
                pending.results = execute(pending.contribs)
            except BaseException as exc:  # propagate to all ranks
                self._fail(exc)
                raise
            self._record_pending(pending, root, header_slot)
            self._pending = None
            for r in range(self.nprocs):
                self._in_collective[r] = False
            # executor-continue: the last depositor already holds the
            # "baton" (it is the running rank), so it proceeds with its
            # result directly instead of parking and being re-woken —
            # the other ranks resume one by one as it passes the baton
            # at its next deposit (or on return).
            self.stats.saved_switches += 1
            return pending.results[rank]

        self._pass_baton(rank)
        self._wait_baton(rank)
        if self._failure is not None:
            raise RemoteRankError(f"rank {rank}: aborted") from self._failure
        assert pending.results is not None
        return pending.results[rank]

    # -- running SPMD programs ----------------------------------------------

    def _run_parallel(
        self,
        fn: Callable[..., Any],
        args: tuple,
        rank_args: Optional[Sequence[Sequence[Any]]],
        kwargs: dict,
    ) -> List[Any]:
        from repro.simmpi.comm import SimComm

        n = self.nprocs
        # one reusable lock per rank, acquired here so every worker's
        # first _wait_baton parks until the baton reaches it
        self._batons = [threading.Lock() for _ in range(n)]
        for baton in self._batons:
            baton.acquire()
        self._finished = [False] * n
        self._in_collective = [False] * n
        self._n_finished = 0
        self._pending = None
        self._failure = None

        results: List[Any] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n

        def worker(rank: int) -> None:
            self._wait_baton(rank)
            if self._failure is None:
                comm = SimComm(self, rank)
                extra = tuple(rank_args[rank]) if rank_args is not None else ()
                try:
                    results[rank] = fn(comm, *extra, *args, **kwargs)
                except BaseException as exc:
                    errors[rank] = exc
                    if not isinstance(exc, RemoteRankError):
                        self._fail(exc)
            self._finished[rank] = True
            self._in_collective[rank] = False
            self._n_finished += 1
            if self._failure is None:
                pending = self._pending
                if (
                    pending is not None
                    and pending.arrived + self._n_finished >= n
                    and pending.arrived < n
                ):
                    self._fail(DeadlockError(
                        f"{pending.arrived} rank(s) "
                        f"({format_ranks(pending.blocked_ranks())}) stuck "
                        f"in collective {pending.op!r} (tag {pending.tag!r}, "
                        f"superstep {self.stats.rounds}) after other ranks "
                        f"returned"
                    ))
                else:
                    self._pass_baton(rank)

        threads = [
            threading.Thread(target=worker, args=(r,),
                             name=f"simmpi-serial-rank-{r}",
                             daemon=self.watchdog is not None)
            for r in range(n)
        ]
        for t in threads:
            t.start()
        self._release_baton(0)  # rank 0 opens the round-robin
        if self.watchdog is None:
            for t in threads:
                t.join()
        else:
            for r in self._join_bounded(threads):
                if errors[r] is None:
                    errors[r] = HungRankError(
                        f"rank {r} never returned after the run failed; "
                        f"thread abandoned past the "
                        f"{self.watchdog.timeout:.3g}s deadline",
                        ranks=(r,),
                        detection_seconds=self.watchdog.timeout,
                    )

        self._raise_collected(errors, self._failure)
        return results
