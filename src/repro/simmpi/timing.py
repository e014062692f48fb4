"""Alpha-beta machine model: modeled parallel time from metered traffic.

The paper reports wall-clock partitioning times on Blue Waters (Cray XE6,
Gemini interconnect).  We cannot run on that machine; instead every
experiment reports a *modeled* execution time assembled from quantities the
simulator meters exactly:

``T = sum over supersteps s of [ gamma * max_r work(s, r)
                                 + alpha * hops(op_s)
                                 + beta  * max_r bytes(s, r) ]``

* the work term is bulk-synchronous: a superstep lasts as long as its
  busiest rank, in deterministic work units charged via
  :meth:`repro.simmpi.comm.SimComm.charge` (no wall clock is read, so a
  fixed-seed run prices the same on every machine and every rerun);
* ``alpha`` is per-message latency; collectives pay ``ceil(log2 p)`` latency
  hops (tree/butterfly algorithms).  An Alltoallv is a sparse exchange
  (NBX: Hoefler, Siebert and Lumsdaine, PPoPP 2010) and pays the busiest
  rank's messages — its non-empty off-rank destinations — on top of the
  ``ceil(log2 p)`` hops of its consensus barrier: ``ceil(log2 p)`` when
  nobody sends, ``p - 1 + ceil(log2 p)`` when everyone sends to everyone.
  An LP iteration's size-delta sum rides that consensus (the paper's
  exchange and ``AllReduce(C)`` are one round): its operand adds bytes,
  not messages or hops;
* ``beta`` is inverse bandwidth applied to the busiest rank's payload
  (an exchange's records plus any reduction operand it carries).

Every event is priced this one way, whatever communicator strategy
metered it: a ``hierarchical:R`` run's
:class:`~repro.simmpi.metrics.TierMetering` is a wire-byte report, not
an input to the price, because the paper's runs place one MPI task per
node and so never put two ranks on one node.

The default constants (:data:`BLUE_WATERS_LIKE`) are Gemini-flavored
(~1.5 us latency, ~6 GB/s per-node injection).  Absolute numbers are not the
point — the *shape* of the paper's scaling curves comes out of how work
and volume move with rank count, degree, and graph structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, Sequence

import numpy as np

from repro.simmpi.metrics import CollectiveEvent, CommStats


@dataclass(frozen=True)
class MachineModel:
    """Alpha-beta cost constants for one machine flavor.

    Attributes
    ----------
    alpha:
        Per-hop message latency in seconds.
    beta:
        Seconds per byte of the busiest rank's payload (inverse of per-node
        injection bandwidth).
    gamma:
        Seconds per deterministic work unit (one adjacency entry touched)
        charged via :meth:`repro.simmpi.comm.SimComm.charge`.  Default
        4 ns/edge ≈ a 250 M-edge/s/core traversal rate.
    name:
        Human-readable label used in reports.
    """

    alpha: float
    beta: float
    gamma: float = 4.0e-9
    name: str = "generic"

    def cost_parts_batch(
        self, events: Sequence[CollectiveEvent], nprocs: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-event ``(latency, bandwidth)`` arrays: every collective pays
        ``ceil(log2 p)`` latency hops, and an event that meters
        ``messages`` (an ``alltoallv``) adds its busiest rank's message
        count; the bandwidth term is the busiest rank's payload.  One
        stacked max over an ``(events, ranks)`` matrix instead of
        per-event Python reductions keeps :class:`TimeModel` evaluation
        flat in the event count at thousands of ranks (the per-event rule
        is the oracle in ``tests/reference/pricing.py``)."""
        n = len(events)
        if n == 0 or nprocs <= 1:
            return np.zeros(n), np.zeros(n)
        sends = np.fromiter(
            (0 if e.messages is None else e.messages.max() for e in events),
            dtype=np.float64, count=n,
        )
        latency = self.alpha * (max(1, ceil(log2(nprocs))) + sends)
        max_bytes = np.stack(
            [e.bytes_sent for e in events]
        ).max(axis=1).astype(np.float64)
        return latency, self.beta * max_bytes


#: Gemini-interconnect-flavored constants for the Blue Waters analog.
#: One simulated rank = one 16-core XE6 node (the paper's configuration:
#: "one MPI task per compute node ... OpenMP threads = shared-memory
#: cores"), so the per-edge work rate is 16 threads x ~250 M edges/s.
BLUE_WATERS_LIKE = MachineModel(
    alpha=1.5e-6, beta=1.0 / 6.0e9, gamma=4.0e-9 / 16.0,
    name="blue-waters-like",
)

#: A commodity-cluster flavor (Cluster-1 in the paper: 16 Sandy Bridge
#: nodes, QDR-IB-era network ~1 GB/s effective, Epetra-grade ~2 ns/nnz).
CLUSTER_LIKE = MachineModel(
    alpha=2.5e-6, beta=1.0 / 1.0e9, gamma=2.0e-9,
    name="cluster-like",
)

#: MPI ranks sharing one node (the paper's Fig. 6 "16-way parallelism"
#: setting): shared-memory transport latency, one core per rank.
SINGLE_NODE_MPI = MachineModel(
    alpha=5.0e-7, beta=1.0 / 10.0e9, gamma=4.0e-9,
    name="single-node-mpi",
)


@dataclass
class TimeModel:
    """Assembles a modeled parallel execution time from metered stats.

    Evaluation is NumPy-batched: one pass stacks the per-rank meters of
    all events into ``(events, ranks)`` matrices and reduces them with
    axis operations (see :meth:`MachineModel.cost_parts_batch`), so
    pricing a run costs a handful of vectorized reductions instead of
    ``rounds x ranks`` Python-level work — the difference between
    milliseconds and seconds at 2048 simulated ranks.
    """

    machine: MachineModel = BLUE_WATERS_LIKE

    def _batched_parts(
        self, stats: CommStats
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Per-event ``(work, latency, bandwidth)`` seconds."""
        events = stats.events
        if not events:
            z = np.zeros(0)
            return z, z, z
        m = self.machine
        work = m.gamma * np.stack([e.work_units for e in events]).max(axis=1)
        latency, bandwidth = m.cost_parts_batch(events, stats.nprocs)
        return work, latency, bandwidth

    def total_time(self, stats: CommStats) -> float:
        """Modeled wall time of the whole SPMD run (seconds)."""
        work, latency, bandwidth = self._batched_parts(stats)
        return float(work.sum() + latency.sum() + bandwidth.sum())

    def breakdown(self, stats: CommStats) -> Dict[str, float]:
        """Work vs. latency vs. bandwidth decomposition of total time."""
        work, latency, bandwidth = self._batched_parts(stats)
        parts = {
            "work": float(work.sum()),
            "latency": float(latency.sum()),
            "bandwidth": float(bandwidth.sum()),
        }
        parts["total"] = sum(parts.values())
        return parts

    def time_by_tag(self, stats: CommStats) -> Dict[str, float]:
        """Modeled time attributed to each phase tag."""
        work, latency, bandwidth = self._batched_parts(stats)
        per_event = work + latency + bandwidth
        out: Dict[str, float] = {}
        for e, t in zip(stats.events, per_event):
            out[e.tag] = out.get(e.tag, 0.0) + float(t)
        return out
