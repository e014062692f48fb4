"""Process-per-rank execution backend over POSIX shared memory.

Escapes the GIL for pure-Python rank code: each rank is a forked OS process,
and all rendezvous traffic travels through ``multiprocessing.shared_memory``
segments, serialized with pickle protocol 5 so NumPy payloads are written as
raw out-of-band buffers.

Rendezvous is a lockstep **barrier + designated-computer** protocol.  Every
superstep, each rank publishes one action into its own shared-memory request
slot — a collective contribution, a "done" marker once its rank function has
returned, or an "err" marker carrying an exception — and enters a barrier.
Between the two barrier phases rank 0 (the designated computer) reads all
request slots, checks that the actions agree, executes the collective with
its own ``execute`` closure, writes each rank's result into that rank's
response slot, and ships the metering record to the parent.  Mixed
done/collective actions become a
:class:`~repro.simmpi.errors.DeadlockError`, disagreeing collectives a
:class:`~repro.simmpi.errors.CollectiveMismatchError`, and an "err" marker
releases every rank with :class:`~repro.simmpi.errors.RemoteRankError`
while the original exception is re-raised from :meth:`ProcsBackend.run`.

Payload bytes travel in the slot that carries their message: the action
is pickled with protocol 5 and its NumPy buffers are written raw after
the pickle.  Rank 0 reads the request slots in place for one superstep
(borrowed windows, dropped before the closing barrier lets their owners
rewrite them); every other read — responses, the failure cell, exit
payloads — copies the buffers out, so a rank owns everything it receives
and a slot may be rewritten at the next superstep with no lifetime
tracking.

Shared-memory lifecycle: all slots are created by the parent **before**
forking (so every process shares one resource tracker), a slot that outgrows
its segment creates a replacement and immediately unlinks the old one, and
the parent unlinks whatever segment each slot currently names in a
``finally`` — on normal exit *and* when a rank raises — so no segment and no
``resource_tracker`` warning outlives a run.  Every segment of a session
carries a unique session prefix in its (explicit) name, so teardown — and a
session that fails while creating its slots — sweeps the prefix for
anything orphaned by a creator that died *mid-replacement* — the window
where a freshly-grown segment exists but no live slot names it yet.  A
child killed hard at any point (even ``os._exit`` inside a superstep, as
the fault-injection tests do) therefore leaks nothing.  The parent also
supervises the children: if
one dies without reporting (hard crash), it breaks the barrier so the
surviving ranks error out instead of hanging, and under a watchdog it
kills the laggards of a stalled run (:mod:`repro.ft.watchdog`).

Requires the ``fork`` start method (fork is what lets closures and
unpicklable shared arguments reach the ranks), so this backend is
POSIX-only.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
import uuid
import zlib
from multiprocessing import connection, shared_memory, sharedctypes
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.ft.watchdog import (
    GRACE,
    POLL_INTERVAL,
    HeartbeatBoard,
    StallClock,
    rank_barrier_timeout,
)
from repro.simmpi.backends.base import (
    Backend,
    fault_preamble,
    metered_rounds,
)
from repro.simmpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    HungRankError,
    PayloadCorruptionError,
    RemoteRankError,
    UnpicklableRankError,
    format_ranks,
)
from repro.simmpi.stepping import run_body

# (pickle length, buffer-size list length, buffer bytes length, crc32).  The
# crc is over the whole written region (payload + sizes + buffers);
# -1 means "no checksum" (integrity off), so the layout is shared by both
# integrity modes and only the verification work is conditional.
_HEADER = struct.Struct("<qqqq")
_NAME_CAP = 120  # shm segment names are short ("simmpi...")


def _session_prefix() -> str:
    """A name prefix unique to one session (pid + random token)."""
    return f"simmpi{os.getpid()}x{uuid.uuid4().hex[:6]}"


def _sweep_shm(prefix: str) -> List[str]:
    """Destroy every ``/dev/shm`` segment named under ``prefix``.

    Safety net for segments orphaned by a hard-killed child — e.g. one that
    died between creating a grown replacement segment and retiring the old
    one, when neither name is the slot's published segment anymore.  Going
    through :class:`SharedMemory` (attach + unlink) rather than ``os.remove``
    keeps the fork-shared resource tracker's registry consistent.  Returns
    the names reclaimed (normal runs return ``[]``).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux POSIX
        return []
    reclaimed: List[str] = []
    for path in sorted(glob.glob(os.path.join(shm_dir,
                                              glob.escape(prefix) + "*"))):
        name = os.path.basename(path)
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            continue
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - raced another sweep
            pass
        seg.close()
        reclaimed.append(name)
    return reclaimed


def _sanitize_exc(exc: BaseException) -> BaseException:
    """Return ``exc`` if it round-trips through pickle, else a stand-in.

    The stand-in (:class:`UnpicklableRankError`) preserves what the
    original carried: the exception type name, its ``args`` (each arg
    individually pickle-checked, unpicklable ones replaced by their
    ``repr``), and the fully formatted traceback — in the stand-in's
    message and as ``original_type`` / ``original_args`` /
    ``original_traceback`` attributes.  Unlike a :class:`RemoteRankError`
    it keeps the priority of a rank's *own* failure, so the parent
    re-raises it rather than a peer's generic "aborted" observation.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        pass
    try:
        tb = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
    except Exception:  # pragma: no cover - pathological __str__
        tb = f"<traceback unavailable for {type(exc).__name__}>"
    safe_args: List[Any] = []
    for arg in exc.args:
        try:
            pickle.loads(pickle.dumps(arg))
            safe_args.append(arg)
        except Exception:
            safe_args.append(repr(arg))
    return UnpicklableRankError(
        f"unpicklable rank exception {type(exc).__name__}"
        f"(args={tuple(safe_args)!r})\n"
        f"--- original traceback ---\n{tb}",
        original_type=type(exc).__name__,
        original_args=tuple(safe_args),
        original_traceback=tb,
    )


class _Slot:
    """A growable shared-memory blob.

    The payload lives in a ``SharedMemory`` segment; the segment's *current*
    name is published in a fork-shared ctypes array so any process can
    (re-)attach after the owner replaced the segment with a larger one.
    Writers and readers of one slot are separated by the superstep barriers,
    so the slot itself needs no locking.

    Layout: the fixed header, the pickle of the object, the pickled list
    of out-of-band buffer sizes, then those buffers in order.
    """

    INITIAL = 1 << 16

    def __init__(self, base: str, integrity: bool = False) -> None:
        self._base = base
        self._integrity = integrity
        #: Per-process counters of checksum verifications performed /
        #: failed by reads of this slot (rank 0 ships its deltas through
        #: the stats channel; the parent counts its own reads directly).
        self.nchecks = 0
        self.nfailures = 0
        seg = self._create(0, self.INITIAL)
        self._published = sharedctypes.RawArray("c", _NAME_CAP)
        self._publish(seg.name)
        self._seg: Optional[shared_memory.SharedMemory] = seg

    def _create(self, gen: int, size: int) -> shared_memory.SharedMemory:
        """Create generation ``gen`` of this slot's segment.

        Explicit names (``{base}g{gen}``) keep every segment of a session
        under its prefix so :func:`_sweep_shm` can find orphans by name.
        """
        while True:
            name = f"{self._base}g{gen}"
            try:
                return shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # pragma: no cover - stale leftover
                gen += 1

    def _publish(self, name: str) -> None:
        raw = name.encode()
        if len(raw) >= _NAME_CAP:  # pragma: no cover - names are ~14 chars
            raise ValueError(f"shm name too long: {name!r}")
        self._published[: len(raw)] = raw
        self._published[len(raw):] = b"\0" * (_NAME_CAP - len(raw))

    def _segment(self) -> shared_memory.SharedMemory:
        want = self._published.value.decode()
        if self._seg is None or self._seg.name != want:
            self.close()
            self._seg = shared_memory.SharedMemory(name=want)
        return self._seg

    def _ensure(self, nbytes: int) -> shared_memory.SharedMemory:
        seg = self._segment()
        if seg.size >= nbytes:
            return seg
        size = max(seg.size, self.INITIAL)
        while size < nbytes:
            size *= 2
        gen = int(seg.name.rsplit("g", 1)[1]) + 1
        new = self._create(gen, size)
        self._publish(new.name)
        self._seg = new
        # the grower retires the replaced segment; other processes re-attach
        # by the published name and close their stale mapping lazily
        try:
            seg.close()
        except BufferError:  # pragma: no cover - a view still alive
            pass
        seg.unlink()
        return new

    def write(self, obj: Any) -> None:
        """Serialize ``obj`` into the slot (NumPy buffers out-of-band)."""
        oob: List[pickle.PickleBuffer] = []
        payload = pickle.dumps(obj, protocol=5, buffer_callback=oob.append)
        raws = [b.raw() for b in oob]
        sizes = (pickle.dumps([r.nbytes for r in raws], protocol=5)
                 if raws else b"")
        raw_len = sum(r.nbytes for r in raws)
        total = _HEADER.size + len(payload) + len(sizes) + raw_len
        buf = self._ensure(total).buf
        off = _HEADER.size
        buf[off:off + len(payload)] = payload
        off += len(payload)
        buf[off:off + len(sizes)] = sizes
        off += len(sizes)
        for r in raws:
            buf[off:off + r.nbytes] = r
            off += r.nbytes
        # checksum the bytes as written to shared memory — the region a
        # flip between this write and the peer's read would damage
        crc = zlib.crc32(buf[_HEADER.size:off]) if self._integrity else -1
        _HEADER.pack_into(buf, 0, len(payload), len(sizes), raw_len, crc)

    def read(self, borrow: bool = False) -> Any:
        """Deserialize the slot.

        Out-of-band buffers are copied out, so the returned arrays are
        writable and survive the slot being rewritten.  ``borrow=True``
        maps them as zero-copy windows onto the slot instead — only for a
        reader that drops every reference before the slot is rewritten:
        the designated computer reading contributions within one superstep.
        """
        buf = self._segment().buf
        payload_len, sizes_len, raw_len, crc = _HEADER.unpack_from(buf, 0)
        if crc != -1:
            # verify before any deserialization: a flipped byte must raise
            # the typed corruption error, never a garbled UnpicklingError
            region = _HEADER.size + payload_len + sizes_len + raw_len
            self.nchecks += 1
            actual = zlib.crc32(buf[_HEADER.size:region])
            if actual != crc:
                self.nfailures += 1
                raise PayloadCorruptionError(
                    f"slot checksum mismatch (expected {crc:#010x}, got "
                    f"{actual:#010x}) reading {self._base!r}",
                    location=f"slot {self._base!r}",
                )
        off = _HEADER.size
        payload = bytes(buf[off:off + payload_len])
        off += payload_len
        sizes: List[int] = (
            pickle.loads(bytes(buf[off:off + sizes_len])) if sizes_len else []
        )
        off += sizes_len
        buffers: List[Any] = []
        for n in sizes:
            window = buf[off:off + n]
            off += n
            # bytearray, not bytes: rank-facing copies must be writable
            buffers.append(window if borrow else bytearray(window))
        return pickle.loads(payload, buffers=buffers)

    def corrupt(self, seed: int) -> None:
        """Flip one byte of the last written message (fault injection).

        Targets the buffer region when there is one (numeric data — the
        silent-corruption case crc exists to catch) and the pickle region
        otherwise.  Runs *after* :meth:`write` sealed the header crc, so
        the flip models damage in flight.
        """
        buf = self._segment().buf
        payload_len, sizes_len, raw_len, _ = _HEADER.unpack_from(buf, 0)
        if raw_len > 0:
            start, length = _HEADER.size + payload_len + sizes_len, raw_len
        else:
            start, length = _HEADER.size, payload_len + sizes_len
        if length > 0:
            buf[start + seed % length] ^= 0xFF

    def close(self) -> None:
        """Drop this process's mapping (never destroys the segment)."""
        if self._seg is not None:
            try:
                self._seg.close()
            except BufferError:  # pragma: no cover - exported view alive
                pass
            self._seg = None

    def unlink(self) -> None:
        """Destroy whatever segment the slot currently names (teardown)."""
        try:
            seg = self._segment()
        except FileNotFoundError:
            return
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already retired
            pass
        self.close()


class _Session:
    """Per-run shared state: slots, barrier, failure cell, stats channel,
    and the backend's settings the rank processes read."""

    def __init__(self, ctx, backend: Backend, shm_prefix: str) -> None:
        self.nprocs = nprocs = backend.nprocs
        self.watchdog = backend.watchdog
        self.meter_compute = backend.meter_compute
        integrity = backend.integrity == "crc"
        self.shm_prefix = shm_prefix
        self.barrier = ctx.Barrier(nprocs)
        self.fail_flag = sharedctypes.RawValue("i", 0)
        self.request = [_Slot(f"{self.shm_prefix}req{r}", integrity)
                        for r in range(nprocs)]
        self.response = [_Slot(f"{self.shm_prefix}rsp{r}", integrity)
                         for r in range(nprocs)]
        self.failure = _Slot(f"{self.shm_prefix}fail", integrity)
        #: Fork-shared liveness board: each rank beats (superstep, phase)
        #: before every rendezvous; the parent's supervisor polls it.
        #: Allocated unconditionally (two tiny RawArrays) so
        #: the session shape does not depend on the watchdog setting, but
        #: ranks only beat when a watchdog is configured.
        self.heartbeats = HeartbeatBoard(nprocs)
        #: rank 0 (the one producer) → parent: the rounds of each superstep
        self.stats_recv, self.stats_send = ctx.Pipe(duplex=False)

    def set_failure(self, exc: BaseException) -> None:
        self.failure.write(_sanitize_exc(exc))
        self.fail_flag.value = 1

    def get_failure(self) -> Optional[BaseException]:
        return self.failure.read() if self.fail_flag.value else None

    def teardown(self) -> List[str]:
        """Parent-side: destroy every live segment (idempotent), then sweep
        the session prefix for segments orphaned by a hard-killed child.
        Returns the orphaned names (``[]`` for clean runs)."""
        for slot in (*self.request, *self.response, self.failure):
            slot.unlink()
        return _sweep_shm(self.shm_prefix)


class _RankEndpoint:
    """Rank-side collective engine; satisfies SimComm's runtime protocol."""

    #: Results cross a process boundary here (response slots): sharing
    #: one object buys nothing and the sealed (read-only) flag would leak
    #: through pickling.
    shares_results = False

    def __init__(self, session: _Session, rank: int,
                 fault_plan: Any = None, comm_strategy: Any = None) -> None:
        self._session = session
        self.rank = rank
        self.nprocs = session.nprocs
        self.meter_compute = session.meter_compute
        self._fault_plan = fault_plan
        #: SimComm reads this to decide whether to deposit per-destination
        #: bytes, and the designated computer splits the tiers with it —
        #: exactly as off the in-process backends.
        self.comm_strategy = comm_strategy
        self._step = 0
        self._watchdog = session.watchdog
        self._barrier_timeout = (
            rank_barrier_timeout(session.watchdog)
            if session.watchdog is not None else None
        )

    # SimComm calls this with the same signature as Backend.collective.
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
        # can_die=True: ranks are real processes here, so a "die" fault is
        # an actual os._exit mid-superstep, and a long "delay" is a real
        # stall for the supervisor-side watchdog to detect
        corrupt_seed = fault_preamble(self._fault_plan, self._watchdog,
                                      self.rank, op, tag, header_slot,
                                      can_die=True)
        action = ("coll", op, tag, int(nbytes_sent), float(compute_seconds),
                  float(work_units), contribution, dest_bytes, root,
                  header_slot)
        kind, value = self._superstep(action, execute,
                                      corrupt_seed=corrupt_seed)
        assert kind == "result"
        return value

    def drain(self) -> None:
        """Keep answering supersteps with "done" until every rank is done."""
        while True:
            kind, _ = self._superstep(("done", None), None)
            if kind == "all_done":
                return

    def announce_error(self, exc: BaseException) -> None:
        """Publish a rank failure as this rank's next superstep action."""
        try:
            self._superstep(("err", _sanitize_exc(exc)), None)
        except RemoteRankError:
            pass  # expected: the superstep we just poisoned aborts

    # -- protocol ----------------------------------------------------------

    def _barrier(self) -> None:
        try:
            # The child-side timeout is a last-ditch escape hatch only (the
            # watchdog kills hung peers first, which breaks the barrier and
            # wakes everyone); see repro.ft.watchdog.rank_barrier_timeout.
            self._session.barrier.wait(timeout=self._barrier_timeout)
        except threading.BrokenBarrierError:
            raise RemoteRankError(
                f"rank {self.rank}: barrier broken (a peer process died)"
            ) from None

    def _superstep(self, action: tuple, execute: Optional[Callable],
                   corrupt_seed: Optional[int] = None) -> tuple:
        sess = self._session
        if self._watchdog is not None:
            phase = action[2] if action[0] == "coll" else action[0]
            sess.heartbeats.beat(self.rank, self._step, phase)
        sess.request[self.rank].write(action)
        if corrupt_seed is not None:
            # in-flight corruption: flip one byte after the checksum (if
            # any) was sealed
            sess.request[self.rank].corrupt(corrupt_seed)
        self._barrier()
        if self.rank == 0:
            try:
                self._compute(execute)
            finally:
                self._barrier()
        else:
            self._barrier()
        self._step += 1
        failure = sess.get_failure()
        if failure is not None:
            raise RemoteRankError(
                f"rank {self.rank}: aborted"
            ) from failure
        return sess.response[self.rank].read()

    def _compute(self, execute: Optional[Callable]) -> None:
        """Designated-computer step (rank 0, between the two barriers).

        Any failure here — including a checksum mismatch raised while
        *reading* a request slot — must land in the session failure cell,
        never escape: the closing barrier in :meth:`_superstep` releases
        the peers unconditionally, and they expect either a response or
        ``fail_flag``.
        """
        sess = self._session
        if sess.fail_flag.value:
            return  # a previous superstep already failed
        try:
            self._compute_inner(execute)
        except BaseException as exc:
            sess.set_failure(_sanitize_exc(exc))

    def _compute_inner(self, execute: Optional[Callable]) -> None:
        sess = self._session
        nchecks0 = sum(s.nchecks for s in sess.request)
        # borrowed contribution windows, valid only inside this superstep —
        # every reference is a local dropped on return, before the closing
        # barrier lets the owning ranks rewrite their slots
        actions = [sess.request[r].read(borrow=True)
                   for r in range(self.nprocs)]
        kinds = [a[0] for a in actions]
        if "err" in kinds:
            sess.set_failure(actions[kinds.index("err")][1])
            return
        if all(k == "done" for k in kinds):
            for r in range(self.nprocs):
                sess.response[r].write(("all_done", None))
            return
        if "done" in kinds:
            stuck = [r for r, k in enumerate(kinds) if k == "coll"]
            n_done = kinds.count("done")
            op = next(a[1] for a in actions if a[0] == "coll")
            sess.set_failure(DeadlockError(
                f"{len(stuck)} rank(s) ({format_ranks(stuck)}) stuck in "
                f"collective {op!r} at superstep {self._step} after "
                f"{n_done} rank(s) returned"
            ))
            return
        ops = sorted({a[1] for a in actions})
        if len(ops) != 1:
            per_rank = ", ".join(
                f"rank {r}: {a[1]!r}" for r, a in enumerate(actions)
            )
            sess.set_failure(CollectiveMismatchError(
                f"ranks disagree on the collective at superstep "
                f"{self._step}: {per_rank}"
            ))
            return
        contribs = [a[6] for a in actions]
        try:
            assert execute is not None  # rank 0 posted "coll" too
            results = execute(contribs)
        except BaseException as exc:
            sess.set_failure(_sanitize_exc(exc))
            return
        mine = actions[0]  # SPMD programs tag (and root) uniformly
        sess.stats_send.send((
            mine[2],
            metered_rounds(
                self.comm_strategy,
                mine[1],
                np.array([a[3] for a in actions], dtype=np.int64),
                np.array([a[4] for a in actions], dtype=np.float64),
                np.array([a[5] for a in actions], dtype=np.float64),
                [a[7] for a in actions], mine[8], mine[9],
            ),
            sum(s.nchecks for s in sess.request) - nchecks0,
        ))
        for r, res in enumerate(results):
            sess.response[r].write(("result", res))

    def close(self) -> None:
        for slot in (*self._session.request, *self._session.response,
                     self._session.failure):
            slot.close()


def _rank_process_main(
    session: _Session,
    rank: int,
    fault_plan: Any,
    comm_strategy: Any,
    fn: Callable[..., Any],
    args: tuple,
    rank_args: Optional[Sequence[Sequence[Any]]],
    kwargs: dict,
) -> None:
    from repro.simmpi.comm import SimComm

    endpoint = _RankEndpoint(session, rank, fault_plan, comm_strategy)
    try:
        comm = SimComm(endpoint, rank)
        extra = tuple(rank_args[rank]) if rank_args is not None else ()
        try:
            result = run_body(fn, comm, *extra, *args, **kwargs)
        except RemoteRankError as exc:
            final = ("exit-err", _sanitize_exc(exc))
        except BaseException as exc:
            endpoint.announce_error(exc)
            final = ("exit-err", _sanitize_exc(exc))
        else:
            final = ("exit-ok", result)
            try:
                endpoint.drain()
            except RemoteRankError:
                pass  # a peer failed while we drained; keep our result
        # the last superstep is over: the request slot carries the outcome
        try:
            session.request[rank].write(final)
        except Exception:
            session.request[rank].write(
                ("exit-err",
                 RemoteRankError(f"rank {rank}: unserializable outcome"))
            )
    finally:
        endpoint.close()


class ProcsBackend(Backend):
    """One forked process per rank; payloads in POSIX shared memory."""

    name = "procs"

    def __init__(self, nprocs: int) -> None:
        super().__init__(nprocs)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the 'procs' backend requires the 'fork' start method "
                "(POSIX); use backend='threads' or 'serial' instead"
            )
        self._ctx = multiprocessing.get_context("fork")
        #: shm name prefix of the most recent session and the orphaned
        #: segment names its teardown sweep reclaimed (hygiene tests
        #: assert the sweep found nothing to do / that nothing survives).
        self.last_shm_prefix: Optional[str] = None
        self.last_shm_reclaimed: List[str] = []

    def _run_parallel(
        self,
        fn: Callable[..., Any],
        args: tuple,
        rank_args: Optional[Sequence[Sequence[Any]]],
        kwargs: dict,
    ) -> List[Any]:
        # published before the first segment exists, so whatever a failed
        # start leaves behind is findable (and swept) by name
        self.last_shm_prefix = prefix = _session_prefix()
        try:
            session = _Session(self._ctx, self, prefix)
        except BaseException:
            self.last_shm_reclaimed = _sweep_shm(prefix)
            raise
        try:
            procs = [
                self._ctx.Process(
                    target=_rank_process_main,
                    args=(session, r, self.fault_plan, self.comm_strategy,
                          fn, args, rank_args, kwargs),
                    daemon=True,
                    name=f"simmpi-proc-{r}",
                )
                for r in range(self.nprocs)
            ]
            for p in procs:
                p.start()
            hung = self._supervise(session, procs)
            for p in procs:
                p.join()
            return self._collect(session, procs, hung)
        finally:
            self.last_shm_reclaimed = session.teardown()

    def _supervise(self, session: _Session,
                   procs: list) -> Optional[HungRankError]:
        """Drain the stats channel while children run; break the barrier if
        a child dies without reporting (so peers error out, not hang).
        Under a watchdog also feed the heartbeats to a
        :class:`~repro.ft.watchdog.StallClock` every
        :data:`~repro.ft.watchdog.POLL_INTERVAL` and kill the laggards of
        each stall it declares.  Returns the hang of the killed ranks, or
        None.

        Events are **recorded as they drain**: the pipe has a single
        producer (rank 0, the designated computer) that enqueues in
        superstep order, so FIFO draining preserves the record order — and
        recording mid-run is what lets the checkpoint-commit hook in
        :meth:`Backend._record` fire at the epoch boundary instead of after
        the run (a crashed run must still have its committed epochs)."""

        def drain() -> None:
            while session.stats_recv.poll():
                tag, rounds, nchecks = session.stats_recv.recv()
                self._record_rounds(tag, rounds)
                self.stats.checksum_verifications += nchecks

        clock = hung = None
        if self.watchdog is not None:
            clock = StallClock(self.watchdog, time.monotonic(), self.name)
        aborted = False
        live = list(procs)
        while live:
            # asleep until rank 0 reports a superstep, a child exits or,
            # under a watchdog, the next poll is due
            connection.wait([session.stats_recv] + [p.sentinel for p in live],
                            timeout=None if clock is None else POLL_INTERVAL)
            drain()
            live = [p for p in live if p.is_alive()]
            if not aborted and any(
                p.exitcode not in (0, None) for p in procs
            ):
                session.barrier.abort()
                aborted = True
            if clock is not None:
                beats = sum(s + 1 for s in session.heartbeats.steps())
                stalled = clock.tick(beats, time.monotonic())
                if stalled is not None and live:
                    hung = self._kill_laggards(clock, session, procs, live,
                                               stalled, hung)
        drain()
        if clock is not None:
            self.stats.heartbeats_seen += clock.heartbeats_seen
            self.stats.deadline_extensions += clock.deadline_extensions
        return hung

    @staticmethod
    def _kill_laggards(clock: StallClock, session: _Session, procs: list,
                       alive: list, stalled: float,
                       hung: Optional[HungRankError]) -> HungRankError:
        """Kill the ranks of the ``alive`` processes with the lowest
        heartbeat: ``SIGTERM``, then ``SIGKILL`` after
        :data:`~repro.ft.watchdog.GRACE`.  Returns ``hung``, the run's
        hang so far (or None), extended by them."""
        steps = session.heartbeats.steps()
        live = [r for r, p in enumerate(procs) if p in alive]
        floor = min(steps[r] for r in live)
        victims = [r for r in live if steps[r] == floor]
        phase = session.heartbeats.phase_of(victims[0])
        clock.declare(victims, f"at superstep {floor} (phase {phase!r}); "
                               f"sending SIGTERM", stalled)
        for r in victims:
            procs[r].terminate()
        deadline = time.monotonic() + GRACE
        for r in victims:
            procs[r].join(max(0.0, deadline - time.monotonic()))
            if procs[r].is_alive():  # pragma: no cover - SIGTERM masked
                clock.warn(f"rank {r} survived SIGTERM; sending SIGKILL")
                procs[r].kill()
        ranks = (hung.ranks if hung else ()) + tuple(victims)
        phase = hung.phase if hung else phase
        return HungRankError(
            f"{format_ranks(ranks)} made no progress for "
            f"{clock.detection_seconds:.3g}s (deadline {clock.timeout:.3g}s) "
            f"in phase {phase!r}; killed by the watchdog",
            ranks=ranks, phase=phase,
            detection_seconds=clock.detection_seconds,
        )

    def _collect(self, session: _Session, procs: list,
                 hung: Optional[HungRankError]) -> List[Any]:
        results: List[Any] = [None] * self.nprocs
        errors: List[Optional[BaseException]] = [None] * self.nprocs
        for r in range(self.nprocs):
            if hung is not None and r in hung.ranks:
                # watchdog kill: typed as a hang, not a generic remote
                # death, so the recovery supervisor can classify it
                errors[r] = hung
                continue
            outcome: Any = None
            if procs[r].exitcode == 0:
                try:
                    outcome = session.request[r].read()
                except PayloadCorruptionError as exc:
                    errors[r] = exc
                    continue
                except Exception:
                    outcome = None
            if not (isinstance(outcome, tuple) and len(outcome) == 2
                    and outcome[0] in ("exit-ok", "exit-err")):
                errors[r] = RemoteRankError(
                    f"rank {r} process died without reporting "
                    f"(exitcode {procs[r].exitcode})"
                )
            elif outcome[0] == "exit-err":
                errors[r] = outcome[1]
            else:
                results[r] = outcome[1]
        failure = session.get_failure()
        # the parent's own slot reads above verified checksums too
        self.stats.checksum_verifications += (
            sum(s.nchecks for s in session.request)
            + session.failure.nchecks
        )
        self.stats.checksum_failures += sum(
            1 for e in (*errors, failure)
            if isinstance(e, PayloadCorruptionError)
        )
        self._raise_collected(errors, failure)
        return results
