"""XtraPuLP: distributed multi-constraint multi-objective label-propagation
partitioning (the paper's core contribution).

Public entry points:

* :func:`~repro.core.driver.xtrapulp` — partition a
  :class:`~repro.graph.csr.Graph` into ``p`` parts on ``nprocs`` simulated
  ranks, returning a :class:`~repro.core.driver.PartitionResult`.
* :class:`~repro.core.quality.Partition` — the validated label vector
  every partitioner the figures compare returns (``PartitionResult``, the
  PuLP and multilevel baselines' results); ``quality(graph)`` scores it.
* :mod:`~repro.core.quality` — the paper's quality metrics (edge cut ratio,
  scaled max per-part cut, vertex/edge imbalance, performance ratios).
* :class:`~repro.core.params.PulpParams` — all tunables, including the
  dynamic-multiplier constants ``(X, Y)`` studied in Fig. 7.
"""

from repro.core.params import PulpParams
from repro.core.driver import PartitionResult, xtrapulp
from repro.core.quality import (
    Partition,
    cut_edges_per_part,
    edge_balance,
    edge_cut,
    edge_cut_ratio,
    partition_quality,
    performance_ratios,
    vertex_balance,
)

__all__ = [
    "PulpParams",
    "xtrapulp",
    "PartitionResult",
    "Partition",
    "edge_cut",
    "edge_cut_ratio",
    "cut_edges_per_part",
    "vertex_balance",
    "edge_balance",
    "partition_quality",
    "performance_ratios",
]
