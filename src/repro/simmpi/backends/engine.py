"""The in-process rendezvous engine and its two schedules.

Every inter-rank interaction is a *collective*: each rank deposits its
contribution into the rendezvous being assembled, the last depositor
executes the collective once (pure NumPy, no further synchronization) and
records its metered rounds, and every rank picks up its slice of the
result.  Ranks only mutate rank-local state between rendezvous, so results
are independent of scheduling.

A rank body is a plain function or a generator function whose collectives
are ``yield from`` expressions (:mod:`repro.simmpi.stepping`).  An
unwatched generator body is *stepped* by W workers — the calling thread
and W - 1 threads started for the run — that share one ready queue, filled
under the engine's mutex: a worker pops a rank and resumes it until its
next deposit.  The last depositor executes the collective and, holding
the mutex, leaves every rank's result in its communicator and queues the
others round robin from itself, so none resumes before its result is in
place; then it *keeps running* with its own (executor-continue).  Plain
bodies, and watched runs, get a thread per rank instead: a rank that is
not the last depositor *parks* on its own gate, a raw ``threading.Lock``
it holds while it runs.  Who may run, and who wakes whom, is the
**schedule**, and it is all that tells the two backends apart:

``serial`` — the baton
    Exactly one rank runs at any instant.  Stepped, W = 1 and the queue
    order *is* the baton's; with rank threads, rank 0 runs until its first
    deposit, then opens the gate of the next rank round robin that has
    neither returned nor deposited, and the last depositor keeps running
    (a park/wake saved, counted in ``CommStats.saved_switches``).
    The schedule is a pure function of the program — prints, breakpoints
    and profiles repeat run to run — which makes it the backend for
    debugging rank code and for thousands of ranks (nothing contends).

``threads`` — a worker per core
    Stepped, W is the number of CPUs the process may run on (at most the
    rank count), one thread per core as in the paper.  Plain bodies run
    every rank thread from the start; the last depositor opens every
    other gate.  NumPy-heavy rank code overlaps for real (NumPy releases
    the GIL); pure-Python rank code serializes on it — use ``procs``.

Misuse that would hang or corrupt a real MPI job is an error on both: ranks
in different collectives at one superstep raise
:class:`~repro.simmpi.errors.CollectiveMismatchError`, a rank returning
while others wait (or entering after one returned)
:class:`~repro.simmpi.errors.DeadlockError`; a failing rank releases the
others with :class:`~repro.simmpi.errors.RemoteRankError` (stepped peers
still waiting are closed instead) and its own exception is re-raised from
:meth:`Backend.run`.  Under a watchdog a parked rank slices its wait and
reports a stalled run as :class:`~repro.simmpi.errors.HungRankError` —
blaming the baton holder on ``serial``, the ranks missing from the
rendezvous on ``threads``.  A watched generator body therefore runs on
rank threads too, driven per rank; only unwatched ones are stepped.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from collections import deque
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ft.watchdog import GRACE, PROBES, WARN_FRACTION, slice_seconds
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
        #: Which ranks have deposited: the baton skips them, and the misuse
        #: errors name them.
        self.deposited: List[bool] = [False] * nprocs
        #: Per-rank contribution crc32s (integrity mode only, else None).
        self.checksums: Optional[List[Optional[int]]] = None

    def ranks(self, deposited: bool = True) -> List[int]:
        return [r for r, d in enumerate(self.deposited) if d == deposited]


class InProcessBackend(Backend):
    """In-process ranks and one rendezvous; subclasses pick the schedule
    by setting :attr:`baton`."""

    #: True: one rank runs at a time — one stepping worker, or the baton
    #: handed round robin between rank threads (``serial``).  False: a
    #: worker per CPU, or the last depositor wakes the rest (``threads``).
    baton: bool = False

    def __init__(self, nprocs: int, *, meter_compute: bool = True) -> None:
        super().__init__(nprocs, meter_compute=meter_compute)
        #: Guards the rendezvous state.  Never contended under the baton
        #: (only its holder runs); never taken by a parked rank reporting a
        #: hang, so a rank wedged inside ``execute`` cannot hide itself.
        self._mutex = threading.Lock()
        #: Stepping: idle workers wait on ``_wake`` for a rank in ``_ready``
        #: (else None), its result left in its SimComm in ``_comms``.
        self._wake = threading.Condition(self._mutex)
        self._ready: Optional[deque] = None
        self._comms: List[Any] = []
        self._gates: List[threading.Lock] = []
        self._finished: List[bool] = []
        self._n_finished = 0
        self._pending: Optional[_Pending] = None
        self._failure: Optional[BaseException] = None
        #: Rank most recently handed the baton — the one actually running.
        self._running = 0

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

    def _next_runner(self, from_rank: int) -> Optional[int]:
        """The next rank after ``from_rank``, round robin, that has neither
        returned nor deposited into the pending rendezvous (None: none)."""
        pending = self._pending
        for offset in range(1, self.nprocs + 1):
            r = (from_rank + offset) % self.nprocs
            if not self._finished[r] and not (
                    pending is not None and pending.deposited[r]):
                return r
        return None

    def _pass_baton(self, from_rank: int) -> None:
        """Hand execution to the next runner after ``from_rank``."""
        r = self._next_runner(from_rank)
        if r is not None:
            self._running = r
            self._open(r)

    def _park(self, rank: int) -> None:
        """Block until this rank's gate opens.  Under a watchdog the wait
        is sliced, so a run that stopped advancing (a peer wedged outside
        any fault hook) surfaces as a HungRankError after the deadline
        instead of blocking forever; under the baton the wait spans a full
        scheduling round by design — see the deadline semantics note in
        :mod:`repro.ft.watchdog`."""
        gate = self._gates[rank]
        timeout = self.watchdog
        if timeout is None:
            gate.acquire()
            return
        slice_s = slice_seconds(timeout)
        warn_at = timeout * WARN_FRACTION
        start = time.monotonic()
        extensions = 0
        while not gate.acquire(timeout=slice_s):
            waited = time.monotonic() - start
            if waited >= warn_at and extensions < PROBES:
                extensions += 1
                self.stats.deadline_extensions += 1
            if waited < timeout:
                continue
            if self._failure is not None or (
                    self._pending is None and not self.baton):
                # a peer failed the run (that failure is the report, not a
                # second hang) or, where everyone runs, completed the
                # rendezvous as this slice ran out: the gate is opening
                continue
            raise self._fail(self._hung(rank, waited))

    def _hung(self, rank: int, waited: float) -> HungRankError:
        """The report of parked ``rank`` giving up after ``waited`` s: it
        blames who stopped advancing, not itself for noticing."""
        pending = self._pending
        deadline = f"(deadline {self.watchdog:.3g}s)"
        if self.baton:
            stalled: tuple = (self._running,)
            text = (f"{format_ranks(stalled)} held the scheduling baton for "
                    f"{waited:.3g}s without progress {deadline} at superstep "
                    f"{self.stats.rounds}; rank {rank} gave up waiting")
        else:
            stalled = tuple(pending.ranks(deposited=False)) or (rank,)
            text = (f"{format_ranks(stalled)} made no progress for "
                    f"{waited:.3g}s {deadline}: missing from "
                    f"{self._at(pending.op, pending.tag)} with "
                    f"{format_ranks(pending.ranks())} deposited and waiting")
        return HungRankError(
            text, ranks=stalled, detection_seconds=waited,
            phase=pending.tag if pending is not None else "",
        )

    def _fail(self, exc: BaseException) -> BaseException:
        """Record the first failure and release every rank; returns
        ``exc`` for the caller to raise."""
        if self._failure is None:
            self._failure = exc
        self._pending = None
        for r in range(len(self._gates)):
            self._open(r)
        if self._ready is not None:  # stepping: the mutex is held
            self._wake.notify_all()
        return exc

    def _finish(self, rank: int) -> None:
        """``rank`` returned (or raised): ranks still waiting in the
        rendezvous can no longer complete it."""
        with self._mutex:
            self._finished[rank] = True
            self._n_finished += 1
            if self._n_finished == self.nprocs and self._ready is not None:
                self._wake.notify_all()  # idle stepping workers: the end
            pending = self._pending
            if (pending is not None and self._failure is None
                    and pending.arrived + self._n_finished >= self.nprocs):
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
            if self._n_finished > 0:
                raise self._fail(DeadlockError(
                    f"rank {rank} entered {self._at(op, tag)} but "
                    f"{self._n_finished} rank(s) already returned"
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
            if self.baton:
                # executor-continue: this rank is the one running, so it
                # proceeds with its result instead of parking and being
                # re-woken; the others resume one by one as it passes the
                # baton at its next deposit (or on return)
                self.stats.saved_switches += 1
            if self._ready is not None:
                # stepped: each result is in place before a worker can pop
                # its rank; the others queue round robin from this one
                for comm, result in zip(self._comms, pending.results):
                    comm._received = result
                self._ready.extend(range(rank + 1, self.nprocs))
                self._ready.extend(range(rank))
                self._wake.notify(self.nprocs - 1)
            elif not self.baton:
                for r in range(self.nprocs):
                    if r != rank:
                        self._open(r)
            return pending, True

    def _rendezvous(self, rank: int, op: str, tag: str, *deposit: Any) -> Any:
        """A blocking deposit: park until the rendezvous completes."""
        pending, executed = self._deposit(rank, op, tag, *deposit)
        if not executed:
            if self.baton:
                self._pass_baton(rank)
            self._park(rank)
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
        self._finished = [False] * n
        self._n_finished = 0
        self._pending = None
        self._failure = None
        self._running = 0
        results: List[Any] = [None] * n
        errors: List[Optional[BaseException]] = [None] * n
        if self.watchdog is None and inspect.isgeneratorfunction(fn):
            with generator_body():
                self._run_stepped(fn, args, rank_args, kwargs, results,
                                  errors)
        else:
            # a watched run needs a thread per rank: a parked rank is what
            # notices a stall, and the baton then blames its holder
            self._run_threads(fn, args, rank_args, kwargs, results, errors)
        self._raise_collected(errors, self._failure)
        return results

    def _run_stepped(self, fn, args, rank_args, kwargs,
                     results: List[Any],
                     errors: List[Optional[BaseException]]) -> None:
        """The stepped schedule (module docstring) on this thread and the
        W - 1 workers started here.  A rank's SimComm is made when it first
        runs, so compute metering starts there.  When a rank fails, the
        peers left waiting are closed (their ``finally`` blocks run)."""
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
                                       or self._n_finished == n):
                                self._wake.wait()
                            if not ready:
                                return
                        continue
                    step(r)

        # the baton's one worker, else one per CPU this process may use
        workers = 1 if self.baton else min(n, len(os.sched_getaffinity(0)))
        threads = [threading.Thread(target=work, name=f"simmpi-worker-{w}")
                   for w in range(1, workers)]
        for t in threads:
            t.start()
        try:
            work()
        except BaseException as exc:  # an interrupt: stop the others too
            with self._mutex:
                self._fail(exc)
            raise
        finally:
            for t in threads:
                t.join()
            self._ready, self._comms = None, []
            for rank, gen in enumerate(gens):
                if gen is not None:
                    try:
                        gen.close()
                    except Exception as exc:  # raised by its ``finally``
                        errors[rank] = errors[rank] or exc

    def _run_threads(self, fn, args, rank_args, kwargs,
                     results: List[Any],
                     errors: List[Optional[BaseException]]) -> None:
        """One worker thread per rank, parked on its gate between deposits."""
        from repro.simmpi.comm import SimComm

        # one reusable gate per rank, held from the start so a rank's first
        # park blocks until somebody opens it
        self._gates = [threading.Lock() for _ in range(self.nprocs)]
        for gate in self._gates:
            gate.acquire()

        def worker(rank: int) -> None:
            if self.baton:
                self._park(rank)  # until the baton first comes round
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
            if self.baton and self._failure is None:
                self._pass_baton(rank)

        threads = [
            threading.Thread(target=worker, args=(r,),
                             name=f"simmpi-{self.name}-rank-{r}",
                             daemon=self.watchdog is not None)
            for r in range(self.nprocs)
        ]
        for t in threads:
            t.start()
        if self.baton:
            self._open(0)  # rank 0 opens the round robin
        if self.watchdog is None:
            for t in threads:
                t.join()
        else:
            for r in self._join_bounded(threads):
                if errors[r] is None:
                    errors[r] = HungRankError(
                        f"rank {r} never returned after the run failed; "
                        f"thread abandoned past the "
                        f"{self.watchdog:.3g}s deadline",
                        ranks=(r,),
                        detection_seconds=self.watchdog,
                    )

    def _join_bounded(self, threads: Sequence[threading.Thread]) -> List[int]:
        """Join the rank threads under the watchdog deadline.

        Unlike the procs supervisor this backend cannot kill a wedged rank:
        the sliced parks guarantee that every *parked* rank self-detects a
        stall and fails the run; this join then gives the remaining threads
        one ``timeout + grace`` window to unwind and **abandons** any that
        do not (they are daemons under a watchdog, so interpreter exit is
        not held hostage).  Returns the ranks abandoned ([] normally).
        """
        timeout = self.watchdog
        slice_s = slice_seconds(timeout)
        alive = dict(enumerate(threads))
        abandon_at: Optional[float] = None
        while alive:
            for r, t in list(alive.items()):
                t.join(timeout=slice_s)
                if not t.is_alive():
                    del alive[r]
            if alive and self._failure is not None:
                now = time.monotonic()
                if abandon_at is None:
                    abandon_at = now + timeout + GRACE
                elif now >= abandon_at:
                    return sorted(alive)
        return []


class SerialBackend(InProcessBackend):
    """Deterministic single-runner backend: the round-robin baton."""

    name = "serial"
    baton = True


class ThreadsBackend(InProcessBackend):
    """Everyone runs: a stepping worker per CPU, or every rank thread."""

    name = "threads"
    baton = False
