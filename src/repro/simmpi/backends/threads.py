"""Thread-per-rank execution backend.

Each rank runs as a native thread executing the user's rank function with a
:class:`repro.simmpi.comm.SimComm` handle.  All inter-rank interaction goes
through *collectives*, implemented as rendezvous points: every rank deposits
its contribution, the last rank to arrive executes the collective (pure
NumPy, no further synchronization), and all ranks pick up their results.

Because ranks only mutate rank-local state between rendezvous, the results
of a run are deterministic and independent of thread scheduling.  Threads
buy real parallelism for NumPy-heavy rank code (NumPy releases the GIL),
and per-rank compute time is measured with ``time.thread_time`` so a rank
is never charged for time spent blocked.  Pure-Python rank code, however,
serializes on the GIL — use the ``procs`` backend to study that regime.

Misuse that would hang or corrupt a real MPI job is turned into errors:

* ranks calling different collectives at the same superstep →
  :class:`~repro.simmpi.errors.CollectiveMismatchError`;
* a rank returning while others wait in a collective →
  :class:`~repro.simmpi.errors.DeadlockError`;
* an exception in one rank's code releases all other ranks with
  :class:`~repro.simmpi.errors.RemoteRankError` and re-raises the original
  exception from :meth:`ThreadsBackend.run`.
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


class ThreadsBackend(Backend):
    """One native thread per rank; collectives are condition-variable
    rendezvous executed by the last arriving rank."""

    name = "threads"

    def __init__(self, nprocs: int, *, meter_compute: bool = True) -> None:
        super().__init__(nprocs, meter_compute=meter_compute)
        self._cond = threading.Condition()
        self._pending: Optional[_Pending] = None
        self._generation = 0
        self._n_finished = 0
        self._failure: Optional[BaseException] = None

    # -- rendezvous engine -------------------------------------------------

    def _fail(self, exc: BaseException) -> None:
        """Record the first failure and wake everyone (cond held)."""
        if self._failure is None:
            self._failure = exc
        self._pending = None
        self._generation += 1
        self._cond.notify_all()

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
        with self._cond:
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
            my_generation = self._generation

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
                self._generation += 1
                self._cond.notify_all()
                return pending.results[rank]

            wd = self.watchdog
            if wd is None:
                while (self._generation == my_generation
                       and self._failure is None):
                    self._cond.wait()
            else:
                # Deadline-bounded rendezvous: slice the wait so a stalled
                # peer (e.g. wedged outside any fault hook) surfaces as
                # HungRankError instead of blocking this rank forever.
                slice_s = wd.slice_seconds()
                warn_at = wd.timeout * wd.warn_fraction
                start = time.monotonic()
                extensions = 0
                while (self._generation == my_generation
                       and self._failure is None):
                    if self._cond.wait(timeout=slice_s):
                        continue
                    waited = time.monotonic() - start
                    if waited >= warn_at and extensions < wd.probes:
                        extensions += 1
                        self.stats.deadline_extensions += 1
                    if waited < wd.timeout:
                        continue
                    # blame the ranks that never reached the rendezvous —
                    # this rank deposited and is merely the one noticing
                    stalled = tuple(
                        r for r, d in enumerate(pending.deposited) if not d
                    ) or (rank,)
                    exc = HungRankError(
                        f"{format_ranks(stalled)} made no progress for "
                        f"{waited:.3g}s (deadline {wd.timeout:.3g}s): "
                        f"missing from collective {op!r} (tag {tag!r}, "
                        f"superstep {self.stats.rounds}) with "
                        f"{format_ranks(pending.blocked_ranks())} deposited "
                        f"and waiting",
                        ranks=stalled, phase=tag, detection_seconds=waited,
                    )
                    self._fail(exc)
                    raise exc
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

        self._n_finished = 0
        self._failure = None
        self._pending = None

        results: List[Any] = [None] * self.nprocs
        errors: List[Optional[BaseException]] = [None] * self.nprocs

        def worker(rank: int) -> None:
            comm = SimComm(self, rank)
            extra = tuple(rank_args[rank]) if rank_args is not None else ()
            try:
                results[rank] = fn(comm, *extra, *args, **kwargs)
            except BaseException as exc:
                errors[rank] = exc
                with self._cond:
                    if not isinstance(exc, (RemoteRankError,)):
                        self._fail(exc)
            finally:
                with self._cond:
                    self._n_finished += 1
                    pending = self._pending
                    if (
                        pending is not None
                        and pending.arrived + self._n_finished >= self.nprocs
                        and pending.arrived < self.nprocs
                        and self._failure is None
                    ):
                        self._fail(
                            DeadlockError(
                                f"{pending.arrived} rank(s) "
                                f"({format_ranks(pending.blocked_ranks())}) "
                                f"stuck in collective {pending.op!r} "
                                f"(tag {pending.tag!r}, superstep "
                                f"{self.stats.rounds}) after other ranks "
                                f"returned"
                            )
                        )

        threads = [
            threading.Thread(target=worker, args=(r,), name=f"simmpi-rank-{r}",
                             daemon=self.watchdog is not None)
            for r in range(self.nprocs)
        ]
        for t in threads:
            t.start()
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
