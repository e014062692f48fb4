"""Communication metering for the simulated MPI runtime.

Every collective executed by a
:class:`repro.simmpi.backends.base.Backend` appends a
:class:`CollectiveEvent` carrying, for each rank, the payload bytes it sent
off-rank and the work units it charged since the previous rendezvous.  The
aggregate view (:class:`CommStats`) answers the questions the paper's
evaluation asks: how much traffic did the partitioner generate, how many
rounds, and what does an alpha-beta machine model say the parallel runtime
would have been.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class TierMetering:
    """Node- and rack-aware view of one collective's traffic.

    Attached to a :class:`CollectiveEvent` by tiered communicator
    strategies (see :mod:`repro.simmpi.topology`); ``None`` under the
    default ``flat`` strategy.  Two distinct models live here, each with
    one entry per tier — same node, off-node in the same rack, off-rack:

    * ``intra_bytes`` / ``inter_bytes`` / ``xrack_bytes`` — a
      **sum-preserving classification** of the event's metered payload
      by destination locality: ``intra + inter + xrack == bytes_sent``
      per rank, so every existing byte total still adds up and the split
      can be read as "of the bytes we already count, how many stay
      on-node, or in the rack".
    * ``wire_intra`` / ``wire_inter`` / ``wire_xrack`` — the
      **hierarchical protocol's wire model**: what the exchange itself
      would move over shared memory (gather/scatter legs included), over
      the network inside a rack (leaders-only reductions, aggregated
      node-pair messages, narrowed count headers) and across racks
      (rack-leader injected).  These need *not* sum to ``bytes_sent`` —
      they are the quantities the tiered machine models price.

    ``intra_hops`` / ``inter_hops`` / ``xrack_hops`` carry the round's
    latency structure, and ``node_of`` / ``rack_of`` map each rank to its
    node and rack (shared across events of a run) so per-node and
    per-rack wire aggregates can be formed.  On a topology of one rack
    the ``xrack`` entries are zero.

    Deliberately **excluded** from :meth:`CommStats.signature`: tier
    metering is supplementary, so ``flat`` and ``hierarchical`` runs of
    the same program keep bit-identical communication records.
    """

    intra_bytes: np.ndarray
    inter_bytes: np.ndarray
    xrack_bytes: np.ndarray
    wire_intra: np.ndarray
    wire_inter: np.ndarray
    wire_xrack: np.ndarray
    intra_hops: int
    inter_hops: int
    xrack_hops: int
    node_of: np.ndarray
    rack_of: np.ndarray

    @property
    def total_intra(self) -> int:
        return int(self.intra_bytes.sum())

    @property
    def total_inter(self) -> int:
        return int(self.inter_bytes.sum())

    @property
    def total_xrack(self) -> int:
        return int(self.xrack_bytes.sum())

    @property
    def total_wire_intra(self) -> int:
        return int(self.wire_intra.sum())

    @property
    def total_wire_inter(self) -> int:
        return int(self.wire_inter.sum())

    @property
    def total_wire_xrack(self) -> int:
        return int(self.wire_xrack.sum())


@dataclass(frozen=True)
class CollectiveEvent:
    """One matched collective across all ranks.

    Attributes
    ----------
    op:
        Collective name (``"alltoallv"``, ``"allreduce"``, ...).
    tag:
        Optional user label of the algorithm phase that issued the call
        (e.g. ``"exchange_updates"``) for per-phase breakdowns.
    bytes_sent:
        Per-rank off-rank payload in bytes (``shape == (nprocs,)``).
        Self-directed portions of Alltoall(v) payloads are excluded — they
        never cross a network link.
    compute_seconds:
        Per-rank CPU time spent between the previous rendezvous and this
        one, measured with ``time.thread_time`` so that GIL waits and other
        ranks' work are not charged to this rank.  An instrument, not a
        cost: zero unless the runtime's ``meter_compute`` is on (only a
        profiling harness turns it on), and never priced by
        :class:`~repro.simmpi.timing.TimeModel`.
    work_units:
        Per-rank *deterministic* work charged via
        :meth:`repro.simmpi.comm.SimComm.charge` since the previous
        rendezvous (e.g. edges touched) — the compute the machine model
        prices, a unit via ``gamma``, so modeled times are exactly
        reproducible.
    tiers:
        Optional :class:`TierMetering` attached by a tiered communicator
        strategy (``None`` under ``flat``).  Supplementary — excluded from
        :meth:`CommStats.signature` so the record stays strategy-invariant.
    """

    op: str
    tag: str
    bytes_sent: np.ndarray
    compute_seconds: np.ndarray
    work_units: np.ndarray
    tiers: Optional[TierMetering] = None

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_sent.sum())

    @property
    def max_bytes(self) -> int:
        return int(self.bytes_sent.max()) if self.bytes_sent.size else 0

    @property
    def max_compute(self) -> float:
        return float(self.compute_seconds.max()) if self.compute_seconds.size else 0.0

    @property
    def max_work(self) -> float:
        return float(self.work_units.max()) if self.work_units.size else 0.0


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervised recovery: a rank failure absorbed by a retry.

    Recorded by :func:`repro.ft.recovery.run_with_retries` on the stats of
    the run that finally succeeded, so the communication record of a
    fault-tolerant execution also tells the story of how it got there.
    ``epoch`` is the checkpoint epoch the retry resumed from (None for a
    from-scratch restart), ``error`` a repr of the failure absorbed.
    ``failure_class`` is the supervisor's classification of that failure
    (``"hang"`` / ``"corruption"`` / ``"crash"`` / ``"exception"`` — see
    :func:`repro.ft.recovery.classify_failure`) and ``detection_seconds``
    how long the failure went undetected before the runtime surfaced it
    (nonzero only for watchdog-detected hangs, where detection costs real
    stall time).
    """

    attempt: int
    epoch: Optional[int]
    error: str
    backoff_seconds: float
    failure_class: str = ""
    detection_seconds: float = 0.0


@dataclass
class CommStats:
    """Aggregated communication statistics for one SPMD run."""

    nprocs: int
    events: List[CollectiveEvent] = field(default_factory=list)
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    #: Health counters of the failure-detection machinery
    #: (:mod:`repro.ft.watchdog` / :mod:`repro.ft.integrity`).  They are
    #: engine-side observability only: excluded from :meth:`signature`,
    #: and zero when the watchdog / integrity checking are off.
    #:
    #: Heartbeats the ``procs`` supervisor's stall clock saw.
    heartbeats_seen: int = 0
    #: Stall-clock probe re-checks that still saw no progress.
    deadline_extensions: int = 0
    #: Payload checksum verifications performed at receive
    #: (``--integrity crc``).
    checksum_verifications: int = 0
    #: Checksum verifications that failed (each raises
    #: :class:`~repro.simmpi.errors.PayloadCorruptionError`).
    checksum_failures: int = 0

    def record(self, event: CollectiveEvent) -> None:
        self.events.append(event)

    def record_recovery(self, event: RecoveryEvent) -> None:
        self.recoveries.append(event)

    # -- aggregate views ---------------------------------------------------

    @property
    def rounds(self) -> int:
        """Number of metered rounds of the modeled machine (events).  Not
        the simulator's rendezvous count: an Alltoallv is two rounds — the
        counts, then the payload — deposited in one rendezvous."""
        return len(self.events)

    @property
    def total_bytes(self) -> int:
        """Total off-rank bytes across all ranks and rounds."""
        return sum(e.total_bytes for e in self.events)

    @property
    def total_compute_seconds(self) -> float:
        """Sum over supersteps of the *max* per-rank measured compute time
        (each superstep lasts as long as its slowest rank); 0.0 unless
        compute metering was on.  A profiling figure, not part of the
        modeled time."""
        return float(sum(e.max_compute for e in self.events))

    def bytes_by_op(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.op] = out.get(e.op, 0) + e.total_bytes
        return out

    def rounds_by_op(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.op] = out.get(e.op, 0) + 1
        return out

    def bytes_by_tag(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.tag] = out.get(e.tag, 0) + e.total_bytes
        return out

    def bytes_by_tag_op(self) -> Dict[str, Dict[str, int]]:
        """Per-phase wire-byte breakdown: ``{tag: {op: bytes}}``.

        The wire-format work lives here: the ghost-update payloads are the
        ``alltoallv`` entries of the balance/refine tags, so a format
        change shows up directly in this view while the (format-invariant)
        count exchanges and size Allreduces stay put in theirs.
        """
        out: Dict[str, Dict[str, int]] = {}
        for e in self.events:
            per_op = out.setdefault(e.tag, {})
            per_op[e.op] = per_op.get(e.op, 0) + e.total_bytes
        return out

    def exchange_bytes_by_tag(self) -> Dict[str, int]:
        """Per-phase bytes of the data-exchange collectives only
        (``alltoall`` + ``alltoallv`` — Algorithm 3's two rounds)."""
        out: Dict[str, int] = {}
        for e in self.events:
            if e.op in ("alltoall", "alltoallv"):
                out[e.tag] = out.get(e.tag, 0) + e.total_bytes
        return out

    # -- tiered views (topology-aware strategies) --------------------------

    @property
    def tiered(self) -> bool:
        """True if any event carries tier metering."""
        return any(e.tiers is not None for e in self.events)

    def rack_tier_bytes_by_op(self) -> Dict[str, tuple]:
        """Per-op ``(intra, inter, xrack)`` classification of metered bytes.

        Sum-preserving: the three components add up to the op's
        :meth:`bytes_by_op` entry.  On one rack ``xrack`` is zero;
        untiered events count fully as ``xrack`` — under ``flat``
        every rank is its own node *and* rack, so every metered byte
        crosses the widest tier.
        """
        out: Dict[str, tuple] = {}
        for e in self.events:
            intra, inter, xrack = out.get(e.op, (0, 0, 0))
            if e.tiers is not None:
                intra += e.tiers.total_intra
                inter += e.tiers.total_inter
                xrack += e.tiers.total_xrack
            else:
                xrack += e.total_bytes
            out[e.op] = (intra, inter, xrack)
        return out

    def modeled_inter_bytes(self) -> int:
        """Total modeled inter-node **wire** bytes of the run.

        For tiered events this is the hierarchical protocol's in-rack
        network traffic (aggregated node-pair messages, leaders-only reductions,
        narrowed count headers); untiered events contribute their full
        payload — under ``flat`` every rank is its own node, so every
        metered byte crosses the network.  The benchmark headline
        (``hierarchy_volume``) compares this quantity across strategies.
        """
        return sum(
            e.tiers.total_wire_inter if e.tiers is not None else e.total_bytes
            for e in self.events
        )

    def modeled_intra_bytes(self) -> int:
        """Total modeled intra-node (shared-memory) wire bytes."""
        return sum(
            e.tiers.total_wire_intra for e in self.events
            if e.tiers is not None
        )

    def modeled_xrack_bytes(self) -> int:
        """Total modeled cross-rack wire bytes (zero on one rack)."""
        return sum(
            e.tiers.total_wire_xrack for e in self.events
            if e.tiers is not None
        )

    @property
    def total_work(self) -> float:
        """Sum over supersteps of the *max* per-rank work units — the
        quantity the machine model prices via ``gamma`` (BSP: each
        superstep lasts as long as its busiest rank)."""
        return float(sum(e.max_work for e in self.events))

    def per_rank_bytes(self) -> np.ndarray:
        """Total off-rank bytes sent by each rank (shape ``(nprocs,)``)."""
        total = np.zeros(self.nprocs, dtype=np.int64)
        for e in self.events:
            total += e.bytes_sent
        return total

    def signature(self) -> List[tuple]:
        """A comparable, bit-exact digest of the event stream.

        Two runs with equal signatures moved the same bytes and charged the
        same work in the same collectives in the same order — the record
        half of the determinism/recovery oracle (``compute_seconds`` is
        excluded: it is a wall-clock measurement, not part of the record).
        """
        return [
            (e.op, e.tag, e.bytes_sent.tolist(), e.work_units.tolist())
            for e in self.events
        ]

    def filtered(self, tags: Sequence[str]) -> "CommStats":
        """A view restricted to events whose tag is in ``tags``."""
        sub = CommStats(self.nprocs)
        wanted = set(tags)
        sub.events = [e for e in self.events if e.tag in wanted]
        return sub

    def summary(self) -> str:
        by_op = self.bytes_by_op()
        lines = [
            f"CommStats(nprocs={self.nprocs}, rounds={self.rounds}, "
            f"total={self.total_bytes/2**20:.2f} MiB)"
        ]
        for op, nbytes in sorted(by_op.items()):
            lines.append(
                f"  {op:<12s} rounds={self.rounds_by_op()[op]:<6d} "
                f"{nbytes/2**20:.3f} MiB"
            )
        for rec in self.recoveries:
            cls = f" [{rec.failure_class}]" if rec.failure_class else ""
            det = (f" detected_after={rec.detection_seconds:.2f}s"
                   if rec.detection_seconds else "")
            lines.append(
                f"  recovery     attempt={rec.attempt} "
                f"resumed_from_epoch={rec.epoch}{cls}{det} after {rec.error}"
            )
        if self.heartbeats_seen or self.deadline_extensions:
            lines.append(
                f"  watchdog     heartbeats_seen={self.heartbeats_seen} "
                f"deadline_extensions={self.deadline_extensions}"
            )
        if self.checksum_verifications or self.checksum_failures:
            lines.append(
                f"  integrity    checksum_verifications="
                f"{self.checksum_verifications} "
                f"failures={self.checksum_failures}"
            )
        return "\n".join(lines)
