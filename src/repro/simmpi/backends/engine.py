"""The in-process rendezvous engine behind ``serial`` and ``threads``.

Every inter-rank interaction is a *collective*: each rank deposits its
contribution into the rendezvous being assembled, the last depositor
executes the collective once (pure NumPy, no further synchronization) and
records its metered rounds, and every rank picks up its slice of the
result.  Ranks only mutate rank-local state between rendezvous, so results
are independent of scheduling.

A rank body is a plain function or a generator function whose collectives
are ``yield from`` expressions (:mod:`repro.simmpi.stepping`).  A
generator body is *stepped* by W workers that share one ready queue,
filled under the engine's mutex: a worker pops a rank and resumes it until
its next deposit.  The last depositor executes the collective and, holding
the mutex, leaves every rank's result in its communicator and queues the
others round robin from itself, so none resumes before its result is in
place; then it *keeps running* with its own (executor-continue).  A plain
body gets a thread per rank instead: a rank that is not the last
depositor *parks* on its own gate, a raw ``threading.Lock`` it holds while
it runs; every rank runs from the start, and the last depositor opens
every other gate.  The backends differ only in W:

``serial`` — one worker
    W = 1: exactly one rank runs at any instant, and the queue order is a
    pure function of the program — prints, breakpoints and profiles of a
    generator body (every one this package ships) repeat run to run,
    which makes it the backend for debugging rank code and for thousands
    of ranks (nothing contends).  Plain bodies interleave as on
    ``threads``.

``threads`` — a worker per core
    W is the number of CPUs the process may run on (at most the rank
    count), one thread per core as in the paper.  NumPy-heavy rank code
    overlaps for real (NumPy releases the GIL); pure-Python rank code
    serializes on it — use ``procs``.

Misuse that would hang or corrupt a real MPI job is an error on both: ranks
in different collectives at one superstep raise
:class:`~repro.simmpi.errors.CollectiveMismatchError`, a rank returning
while others wait (or entering after one returned)
:class:`~repro.simmpi.errors.DeadlockError`; a failing rank releases the
others with :class:`~repro.simmpi.errors.RemoteRankError` (stepped peers
still waiting are closed instead) and its own exception is re-raised from
:meth:`Backend.run`.

The calling thread is the first stepping worker.  Under a watchdog it
steps nothing: it starts all W workers (or the rank threads) and
supervises them — once per slice it feeds the engine's deposit count to
a :class:`~repro.ft.watchdog.StallClock` and fails a run that stopped
advancing with a :class:`~repro.simmpi.errors.HungRankError` blaming the
running ranks.  Waits stay untimed, so a watched run keeps the schedule.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ft.watchdog import GRACE, StallClock, slice_seconds
from repro.simmpi.backends.base import Backend, metered_rounds
from repro.simmpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    HungRankError,
    PayloadCorruptionError,
    RemoteRankError,
    format_ranks,
)
from repro.simmpi.stepping import generator_body, run_body


class _Pending:
    """The rendezvous currently being assembled."""

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
        #: Which ranks have deposited: the misuse and hang errors name them.
        self.deposited: List[bool] = [False] * nprocs
        #: Per-rank contribution crc32s (integrity mode only, else None).
        self.checksums: Optional[List[Optional[int]]] = None

    def ranks(self, deposited: bool = True) -> List[int]:
        return [r for r, d in enumerate(self.deposited) if d == deposited]


class InProcessBackend(Backend):
    """In-process ranks and one rendezvous; subclasses pick the number of
    stepping workers by setting :attr:`workers`."""

    #: Stepping workers: 1 on ``serial``; None for one per CPU the process
    #: may run on, at most the rank count (``threads``).
    workers: Optional[int] = None

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        #: Guards the rendezvous state.  Never waited on by the supervisor
        #: of a watched run, so a rank wedged inside ``execute`` cannot
        #: hide a hang.
        self._mutex = threading.Lock()
        #: Stepping: idle workers wait on ``_wake`` for a rank in ``_ready``
        #: (else None), its result left in its SimComm in ``_comms``.
        self._wake = threading.Condition(self._mutex)
        self._ready: Optional[deque] = None
        self._comms: List[Any] = []
        self._gates: List[threading.Lock] = []
        #: Ranks that returned or raised, and the deposits so far (the
        #: progress a watched run's supervisor feeds its stall clock).
        self._finished: List[int] = []
        self._deposits = 0
        self._pending: Optional[_Pending] = None
        self._failure: Optional[BaseException] = None

    def _at(self, op: str, tag: str) -> str:
        return (f"collective {op!r} (tag {tag!r}, "
                f"superstep {self.stats.rounds})")

    # -- gates ---------------------------------------------------------------

    def _open(self, rank: int) -> None:
        """Wake ``rank``, or let its next park fall through (idempotent: a
        failure opens every gate, parked behind or not)."""
        try:
            self._gates[rank].release()
        except RuntimeError:
            pass  # already open — the wake is already in flight

    def _fail(self, exc: BaseException) -> BaseException:
        """Record the first failure and release every parked rank; returns
        ``exc`` for the caller to raise.  Idle stepping workers are woken
        by the worker that sees the failure next (``_run_stepped``).  The
        supervisor calls this without the mutex, which a wedged executor
        may hold; racing a rank's failure, either is kept, and a rank's
        own error outranks both when the run raises."""
        if self._failure is None:
            self._failure = exc
        self._pending = None
        for r in range(len(self._gates)):
            self._open(r)
        return exc

    def _finish(self, rank: int) -> None:
        """``rank`` returned (or raised): ranks still waiting in the
        rendezvous can no longer complete it."""
        with self._mutex:
            self._finished.append(rank)
            if len(self._finished) == self.nprocs and self._ready is not None:
                self._wake.notify_all()  # idle stepping workers: the end
            pending = self._pending
            if (pending is not None and self._failure is None
                    and pending.arrived + len(self._finished) >= self.nprocs):
                self._fail(DeadlockError(
                    f"{pending.arrived} rank(s) "
                    f"({format_ranks(pending.ranks())}) stuck in "
                    f"{self._at(pending.op, pending.tag)} after other "
                    f"ranks returned"
                ))

    # -- the rendezvous ------------------------------------------------------

    def _deposit(
        self,
        rank: int,
        op: str,
        tag: str,
        contribution: Any,
        nbytes_sent: int,
        execute: Callable[[List[Any]], List[Any]],
        compute_seconds: float,
        work_units: float,
        dest_bytes: Optional[np.ndarray],
        root: Optional[int],
        header_slot: Optional[int],
        checksum: Optional[int],
    ) -> Tuple[_Pending, bool]:
        """Deposit ``rank``'s contribution; the last depositor verifies,
        executes and records the rendezvous.  Returns the rendezvous and
        whether this deposit completed it (its results are then ready)."""
        with self._mutex:
            if self._failure is not None:
                raise RemoteRankError(f"rank {rank}: aborted") from self._failure
            if self._finished:
                raise self._fail(DeadlockError(
                    f"rank {rank} entered {self._at(op, tag)} but "
                    f"{len(self._finished)} rank(s) already returned"
                ))
            pending = self._pending
            if pending is None:
                pending = self._pending = _Pending(self.nprocs, op, tag)
            elif pending.op != op:
                raise self._fail(CollectiveMismatchError(
                    f"rank {rank} called {op!r} (tag {tag!r}) while "
                    f"{format_ranks(pending.ranks())} already in "
                    f"{pending.op!r} (tag {pending.tag!r}, "
                    f"superstep {self.stats.rounds})"
                ))

            pending.contribs[rank] = contribution
            pending.nbytes[rank] = nbytes_sent
            pending.compute[rank] = compute_seconds
            pending.work[rank] = work_units
            pending.dest[rank] = dest_bytes
            pending.arrived += 1
            pending.deposited[rank] = True
            self._deposits += 1
            if checksum is not None:
                if pending.checksums is None:
                    pending.checksums = [None] * self.nprocs
                pending.checksums[rank] = checksum
            if pending.arrived < self.nprocs:
                return pending, False

            try:
                if pending.checksums is not None:
                    self._verify_checksums(pending)
                pending.results = execute(pending.contribs)
            except BaseException as exc:  # propagate to all ranks
                self._fail(exc)
                raise
            self._record_rounds(tag, metered_rounds(
                self.comm_strategy, op, pending.nbytes, pending.compute,
                pending.work, pending.dest, root, header_slot,
            ))
            self._pending = None
            if self._ready is not None:
                # stepped: each result is in place before a worker can pop
                # its rank; the others queue round robin from this one
                for comm, result in zip(self._comms, pending.results):
                    comm._received = result
                self._ready.extend(range(rank + 1, self.nprocs))
                self._ready.extend(range(rank))
                self._wake.notify(self.nprocs - 1)
            else:
                for r in range(self.nprocs):
                    if r != rank:
                        self._open(r)
            return pending, True

    def _rendezvous(self, rank: int, op: str, tag: str, *deposit: Any) -> Any:
        """A blocking deposit: park until the rendezvous completes."""
        pending, executed = self._deposit(rank, op, tag, *deposit)
        if not executed:
            self._gates[rank].acquire()  # parked until its gate opens
            if self._failure is not None:
                raise RemoteRankError(f"rank {rank}: aborted") from self._failure
        return pending.results[rank]

    def _verify_checksums(self, pending: _Pending) -> None:
        """Re-checksum every deposited contribution against its send-time
        crc just before the collective executes (the receive side)."""
        from repro.ft.integrity import checksum_obj

        self.stats.checksum_verifications += self.nprocs
        bad = [r for r, crc in enumerate(pending.checksums)
               if crc is not None
               and checksum_obj(pending.contribs[r]) != crc]
        if bad:
            self.stats.checksum_failures += len(bad)
            raise PayloadCorruptionError(
                f"payload checksum mismatch for {format_ranks(bad)} in "
                f"{self._at(pending.op, pending.tag)}",
                rank=bad[0],
                location=f"{self.name} rendezvous",
            )

    # -- running SPMD programs -----------------------------------------------

    def _run_parallel(
        self,
        fn: Callable[..., Any],
        args: tuple,
        rank_args: Optional[Sequence[Sequence[Any]]],
        kwargs: dict,
    ) -> List[Any]:
        n = self.nprocs
        self._gates = []
        self._finished = []
        self._deposits = 0
        self._pending = None
        self._failure = None
        results: List[Any] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n
        if inspect.isgeneratorfunction(fn):
            with generator_body():
                self._run_stepped(fn, args, rank_args, kwargs, results,
                                  errors)
        else:
            self._run_threads(fn, args, rank_args, kwargs, results, errors)
        self._raise_collected(errors, self._failure)
        return results

    def _run_stepped(self, fn, args, rank_args, kwargs,
                     results: List[Any],
                     errors: List[Optional[BaseException]]) -> None:
        """The stepped schedule (module docstring) on W workers.  A rank's
        SimComm is made when it first runs, so compute metering starts
        there.  When a rank fails, the peers left waiting are closed
        (their ``finally`` blocks run) — unless a worker was abandoned: it
        may still resume the rank it holds."""
        from repro.simmpi.comm import SimComm

        n = self.nprocs
        gens: List[Any] = [None] * n
        self._comms = [None] * n
        ready = self._ready = deque(range(n))
        extras = rank_args if rank_args is not None else [()] * n

        def step(r: int) -> None:
            """Run rank ``r`` until it waits in a rendezvous, or ends."""
            throw = None
            while True:
                try:
                    gen = gens[r]
                    if gen is None:
                        comm = self._comms[r] = SimComm(self, r)
                        gen = gens[r] = fn(comm, *extras[r], *args, **kwargs)
                    request = (gen.send(None) if throw is None
                               else gen.throw(throw))
                except StopIteration as stop:
                    results[r], gens[r] = stop.value, None
                    return self._finish(r)
                except BaseException as exc:
                    errors[r], gens[r] = exc, None
                    if not isinstance(exc, RemoteRankError):
                        with self._mutex:
                            self._fail(exc)
                    return self._finish(r)
                try:
                    # Backend.collective's send side (rank, op, tag,
                    # contribution, header_slot), then an unparked deposit
                    crc = self._send_side(*request[1:5], request[-1])
                    if not self._deposit(*request[1:], crc)[1]:
                        return  # its executor queues it, result in place
                    throw = None
                except BaseException as exc:
                    throw = exc  # raised at r's collective
                finally:
                    request = None

        def work() -> None:
            with generator_body():
                while self._failure is None:
                    try:  # deque pops are atomic; only executors append
                        r = ready.popleft()
                    except IndexError:
                        with self._wake:
                            while not (ready or self._failure is not None
                                       or len(self._finished) == n):
                                self._wake.wait()
                            if not ready:
                                return
                        continue
                    step(r)
            with self._wake:  # the run failed: the idle workers leave too
                self._wake.notify_all()

        watched = self.watchdog is not None
        workers = min(n, self.workers or len(os.sched_getaffinity(0)))
        threads = [threading.Thread(target=work, name=f"simmpi-worker-{w}",
                                    daemon=watched)
                   for w in range(0 if watched else 1, workers)]
        for t in threads:
            t.start()
        ended = not watched
        try:
            if watched:
                ended = self._join(threads)
            else:
                work()
        except BaseException as exc:  # an interrupt: stop the others too
            with self._wake:
                self._fail(exc)
                self._wake.notify_all()
            raise
        finally:
            if not watched:
                self._join(threads)
            self._ready, self._comms = None, []
            for rank, gen in enumerate(gens):
                if gen is not None and ended:
                    try:
                        gen.close()
                    except Exception as exc:  # raised by its ``finally``
                        errors[rank] = errors[rank] or exc

    def _run_threads(self, fn, args, rank_args, kwargs,
                     results: List[Any],
                     errors: List[Optional[BaseException]]) -> None:
        """One thread per rank, parked on its gate between deposits."""
        from repro.simmpi.comm import SimComm

        # one reusable gate per rank, held from the start so a rank's first
        # park blocks until somebody opens it
        self._gates = [threading.Lock() for _ in range(self.nprocs)]
        for gate in self._gates:
            gate.acquire()

        def worker(rank: int) -> None:
            if self._failure is None:
                comm = SimComm(self, rank)
                extra = tuple(rank_args[rank]) if rank_args is not None else ()
                try:
                    results[rank] = run_body(fn, comm, *extra, *args, **kwargs)
                except BaseException as exc:
                    errors[rank] = exc
                    if not isinstance(exc, RemoteRankError):
                        with self._mutex:
                            self._fail(exc)
            self._finish(rank)

        threads = [
            threading.Thread(target=worker, args=(r,),
                             name=f"simmpi-{self.name}-rank-{r}",
                             daemon=self.watchdog is not None)
            for r in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        self._join(threads)

    def _join(self, threads: Sequence[threading.Thread]) -> bool:
        """Join the workers or rank threads.  Under a watchdog this thread
        supervises them: it feeds the deposit count to a stall clock once
        per slice and fails a stalled run (module docstring).  It cannot
        kill a wedged rank: threads that do not unwind within ``timeout +
        GRACE`` of a failure are abandoned (daemons, so interpreter exit
        is not held hostage).  Nothing here waits on the mutex, so a rank
        wedged inside ``execute`` still surfaces.  Returns whether every
        thread ended."""
        timeout = self.watchdog
        if timeout is None:
            for t in threads:
                t.join()
            return True
        slice_s = slice_seconds(timeout)
        clock = StallClock(timeout, time.monotonic(), self.name)
        abandon_at: Optional[float] = None
        try:
            for t in threads:
                t.join(slice_s)
                while t.is_alive():
                    now = time.monotonic()
                    if self._failure is None:
                        stalled = clock.tick(self._deposits, now)
                        if stalled is not None:
                            self._fail(self._stall(clock, stalled))
                    elif abandon_at is None:
                        abandon_at = now + timeout + GRACE
                    elif now >= abandon_at:
                        return False
                    t.join(slice_s)
            return True
        finally:
            self.stats.deadline_extensions += clock.deadline_extensions

    def _stall(self, clock: StallClock, stalled: float) -> HungRankError:
        """The report of a run stalled for ``stalled`` s, read without the
        mutex.  It blames the ranks running: not finished, not deposited
        into the rendezvous being assembled, not queued to resume."""
        pending = self._pending
        waiting = {*(self._ready or ()), *(pending.ranks() if pending else ())}
        unfinished = [r for r in range(self.nprocs) if r not in self._finished]
        running = tuple(r for r in unfinished if r not in waiting)
        blamed = running or tuple(unfinished)
        if pending is None:
            where = "between collectives"
        elif running:
            where = (f"missing from {self._at(pending.op, pending.tag)} "
                     f"with {format_ranks(pending.ranks())} deposited and "
                     f"waiting")
        else:  # every rank deposited: the executor is wedged inside it
            where = f"executing {self._at(pending.op, pending.tag)}"
        clock.declare(blamed, where, stalled)
        return HungRankError(
            f"{format_ranks(blamed)} made no progress for {stalled:.3g}s "
            f"(deadline {self.watchdog:.3g}s): {where}",
            ranks=blamed, detection_seconds=stalled,
            phase=pending.tag if pending else "",
        )


class SerialBackend(InProcessBackend):
    """One stepping worker: a deterministic schedule for generator bodies."""

    name = "serial"
    workers = 1


class ThreadsBackend(InProcessBackend):
    """A stepping worker per CPU."""

    name = "threads"
    workers = None
