"""PuLP: the shared-memory predecessor (Slota, Madduri, Rajamanickam 2014).

The paper describes XtraPuLP as "a significant extension to our prior
shared-memory-only partitioner, PULP": the phases (init, vertex balance,
vertex refine, edge balance, edge refine with the PULP-MM objectives) are
the same; what distribution adds is ghost bookkeeping, ExchangeUpdates, and
the ``mult`` throttle.  PuLP is therefore run here as the same engine in
shared-memory mode:

* ``threads`` ranks model OpenMP threads of one address space;
* size updates are exact (no throttle — threads share the counters
  through atomics): with per-rank *local* deltas, exactness means each
  rank gets precisely its 1/nprocs share, ``mult == nprocs``, which is
  :meth:`PulpParams.mult` at ``x == y == 1``;
* the machine model has no network: thread synchronization latency only,
  memory-bus bandwidth, so modeled time ≈ parallel compute time.

This mirrors the real relationship between the two codes and gives Table II
its "PuLP (1 node)" column.
"""

from __future__ import annotations

from typing import Optional

from repro.core.driver import PartitionResult, xtrapulp
from repro.core.params import PulpParams
from repro.graph.csr import Graph
from repro.simmpi.timing import MachineModel

#: One cache-coherent node: ~100 ns sync cost, ~40 GB/s effective memory
#: bandwidth for shared-structure traffic, no network.  A PuLP rank models
#: one *core* (gamma = one-core rate), whereas a BLUE_WATERS_LIKE rank
#: models a full 16-core node — so "PuLP with 16 threads on one node" vs
#: "XtraPuLP on 16 nodes" compares 16 cores against 256, exactly the
#: paper's Table II configuration.
SHARED_MEMORY_NODE = MachineModel(
    alpha=1.0e-7, beta=1.0 / 40.0e9, gamma=4.0e-9,
    name="shared-memory-node",
)


def pulp(
    graph: Graph,
    num_parts: int,
    *,
    threads: int = 16,
    params: Optional[PulpParams] = None,
    single_objective: bool = False,
    seed: Optional[int] = None,
) -> PartitionResult:
    """Partition with shared-memory PuLP-MM semantics.

    ``threads`` plays the role of the paper's 16-way OpenMP threading on a
    Cluster-1 node.  ``seed``, when given, overrides ``params.seed``.
    """
    base = params or PulpParams()
    p = base.with_(
        x=1.0, y=1.0,
        single_objective=single_objective or base.single_objective,
        seed=base.seed if seed is None else seed,
    )
    return xtrapulp(
        graph,
        num_parts,
        nprocs=threads,
        params=p,
        # random vertex-to-thread assignment models OpenMP guided
        # scheduling's work balancing (block carving would pin whole hub
        # regions to one thread, which real PuLP's scheduler avoids)
        distribution="random",
        machine=SHARED_MEMORY_NODE,
    )
