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
  hops (tree/butterfly algorithms) except Alltoall(v), which pays ``p - 1``
  pairwise exchanges;
* ``beta`` is inverse bandwidth applied to the busiest rank's payload.

The default constants (:data:`BLUE_WATERS_LIKE`) are Gemini-flavored
(~1.5 us latency, ~6 GB/s per-node injection).  Absolute numbers are not the
point — the *shape* of the paper's scaling curves comes out of how work
and volume move with rank count, degree, and graph structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import Dict, List, Sequence

import numpy as np

from repro.simmpi.metrics import CollectiveEvent, CommStats

#: Collectives whose latency cost scales with the full rank count (pairwise
#: exchange pattern) rather than logarithmically (tree/butterfly).
_PAIRWISE_OPS = frozenset({"alltoall", "alltoallv"})


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
        """Per-event ``(latency, bandwidth)`` arrays: tree collectives pay
        ``ceil(log2 p)`` latency hops, pairwise ones ``p - 1``, and the
        bandwidth term is the busiest rank's payload.  One stacked max
        over an ``(events, ranks)`` matrix instead of per-event Python
        reductions keeps :class:`TimeModel` evaluation flat in the event
        count at thousands of ranks (the per-event rule is the oracle in
        ``tests/reference/pricing.py``)."""
        n = len(events)
        if n == 0 or nprocs <= 1:
            return np.zeros(n), np.zeros(n)
        pairwise = np.fromiter(
            (e.op in _PAIRWISE_OPS for e in events), dtype=bool, count=n
        )
        tree_hops = max(1, ceil(log2(nprocs)))
        latency = self.alpha * np.where(pairwise, nprocs - 1, tree_hops)
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


def _grouped_max(
    wires: List[np.ndarray], groups: List[np.ndarray]
) -> np.ndarray:
    """Per-event busiest-group injected bytes: ``max_g sum_{r in g} wire(r)``.

    When every event shares one group map (the common case — one topology
    per run), a single ``np.add.reduceat`` over the stacked
    ``(events, ranks)`` matrix replaces per-event ``bincount`` calls;
    group maps are contiguous ascending by construction
    (:meth:`~repro.simmpi.topology.Topology.node_of_ranks`).  Values are
    integral, so both paths are exact and agree bit-for-bit with the
    per-event rule.
    """
    n = len(wires)
    out = np.empty(n)
    g0 = groups[0]
    if all(g is g0 for g in groups):
        mat = np.stack(wires).astype(np.float64)
        starts = np.concatenate(([0], np.flatnonzero(np.diff(g0)) + 1))
        out[:] = np.add.reduceat(mat, starts, axis=1).max(axis=1)
        return out
    for i, (w, g) in enumerate(zip(wires, groups)):
        per = np.bincount(g, weights=w)
        out[i] = float(per.max()) if per.size else 0.0
    return out


@dataclass(frozen=True)
class TieredMachineModel(MachineModel):
    """Multi-tier alpha-beta constants for topology-aware metering.

    The inherited ``alpha``/``beta`` are the **inter-node** (network)
    constants; ``alpha_intra``/``beta_intra`` price the intra-node
    (shared-memory) tier and ``alpha_rack``/``beta_rack`` the cross-rack
    (network-stage) tier.  Events carrying
    :class:`~repro.simmpi.metrics.TierMetering` (produced by the
    ``hierarchical`` communicator strategy) are priced per tier:

    ``cost = alpha_intra * intra_hops + alpha * inter_hops
           + alpha_rack * xrack_hops
           + beta_intra * max_r wire_intra(r)
           + beta * max_n sum_{r in node n} wire_inter(r)
           + beta_rack * max_k sum_{r in rack k} wire_xrack(r)``

    — the intra bandwidth term is bound by the busiest *rank's*
    shared-memory traffic, the inter term by the busiest *node's* NIC
    (under two-level exchange a node's network traffic is leader-injected,
    so summing the node's ranks is exact), and the rack term by the
    busiest *rack's* uplink (cross-rack traffic is rack-leader injected).
    On a topology of one rack ``xrack_hops`` and ``wire_xrack`` are zero,
    so the rack terms add exactly 0.0.  Events without tier metering
    (``flat`` strategy, barrier-only rounds) fall back to the single-tier
    formula at the inter-node constants, which is exactly the base
    :class:`MachineModel` behavior — so a tiered flavor is a drop-in
    replacement.
    """

    #: Per-hop latency of the shared-memory tier (seconds).
    alpha_intra: float = 5.0e-7
    #: Seconds per byte of the busiest rank's intra-node wire traffic.
    beta_intra: float = 1.0 / 80.0e9
    #: Per-hop latency of a cross-rack network stage (seconds) — an extra
    #: switch traversal on top of the in-rack network.
    alpha_rack: float = 2.5e-6
    #: Seconds per byte of the busiest rack's cross-rack uplink (oversubscribed
    #: spine: a fraction of the in-rack injection bandwidth).
    beta_rack: float = 1.0 / 3.0e9

    def cost_parts_batch(
        self, events: Sequence[CollectiveEvent], nprocs: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        n = len(events)
        latency = np.zeros(n)
        bandwidth = np.zeros(n)
        if n == 0:
            return latency, bandwidth
        flat_idx = [i for i, e in enumerate(events) if e.tiers is None]
        if flat_idx:
            lat_f, bw_f = super().cost_parts_batch(
                [events[i] for i in flat_idx], nprocs
            )
            latency[flat_idx] = lat_f
            bandwidth[flat_idx] = bw_f
        tiered_idx = [i for i, e in enumerate(events) if e.tiers is not None]
        if not tiered_idx:
            return latency, bandwidth
        tiers = [events[i].tiers for i in tiered_idx]
        hops = np.array(
            [(t.intra_hops, t.inter_hops, t.xrack_hops) for t in tiers],
            dtype=np.float64,
        )
        latency[tiered_idx] = (self.alpha_intra * hops[:, 0]
                               + self.alpha * hops[:, 1]
                               + self.alpha_rack * hops[:, 2])
        wire_intra = np.stack([t.wire_intra for t in tiers])
        bw = self.beta_intra * wire_intra.max(axis=1).astype(np.float64)
        bw += self.beta * _grouped_max(
            [t.wire_inter for t in tiers], [t.node_of for t in tiers]
        )
        bw += self.beta_rack * _grouped_max(
            [t.wire_xrack for t in tiers], [t.rack_of for t in tiers]
        )
        bandwidth[tiered_idx] = bw
        return latency, bandwidth


#: Blue Waters analog with the node structure made explicit: one simulated
#: rank = one core-group of an XE6 node rather than a whole node.  The
#: inter-node constants match :data:`BLUE_WATERS_LIKE` (Gemini: ~1.5 us,
#: ~6 GB/s injection); the intra-node tier is shared memory (~0.5 us,
#: ~80 GB/s — HyperTransport-era socket bandwidth), giving the realistic
#: ~13x bandwidth gap between tiers (10-20x is typical across machines).
#: ``gamma`` is per-rank single-core (ranks no longer bundle 16 threads).
#: The rack tier models the Gemini torus's longer routes between cabinet
#: groups: a couple of extra switch traversals of latency and a tapered
#: (~half-injection) per-rack uplink.  It prices nothing on one rack,
#: which is what a communicator spec without ``xK`` asks for.
BLUE_WATERS_TIERED = TieredMachineModel(
    alpha=1.5e-6, beta=1.0 / 6.0e9, gamma=4.0e-9,
    alpha_intra=5.0e-7, beta_intra=1.0 / 80.0e9,
    alpha_rack=2.5e-6, beta_rack=1.0 / 3.0e9,
    name="blue-waters-tiered",
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
