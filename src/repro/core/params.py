"""XtraPuLP parameters (defaults from Algorithm 1 and §III.C)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class PulpParams:
    """All partitioner tunables.

    Attributes
    ----------
    outer_iters, balance_iters, refine_iters:
        Algorithm 1's ``I_outer=3``, ``I_bal=5``, ``I_ref=10``; the total
        iteration budget ``I_tot = I_outer * (I_bal + I_ref)`` drives the
        multiplier schedule (the schedule is shared by the vertex and edge
        outer loops, each running ``iter_tot`` from 0 to ``I_tot``).
    x, y:
        The dynamic-multiplier constants (§III.C):
        ``mult = nprocs * ((X - Y) * iter_tot / I_tot + Y)``, i.e. each rank
        may initially claim ``1/Y ×`` its fair share of updates to a part
        and exactly its share at the final iteration.  The paper selects
        (1.0, 0.25) empirically *for its per-move atomic update
        granularity*; our vectorized sweeps refresh estimates per block, a
        coarser granularity, and the same empirical procedure (the Fig. 7
        sweep, see ``benchmarks/test_fig7_xy_heatmaps.py``) selects
        (1.0, 1.0) here — achieving the balance constraints with a small
        cut penalty, mirroring the paper's own X/Y trade-off analysis.
    vert_imbalance, edge_imbalance:
        The constraint ratios ``Rat_v``/``Rat_e``; target part sizes are
        ``Imb_v = (1 + Rat_v) n / p`` and ``Imb_e = (1 + Rat_e) m_deg / p``
        (edge size of a part = sum of its vertices' degrees, the quantity
        the incremental bookkeeping can track).  Default 10% like the
        paper's experiments.
    block_size:
        Vertices per vectorized propagation block.  Part-size estimates and
        weights refresh *between* blocks, approximating the paper's
        asynchronous thread-level updates; smaller blocks ≈ finer-grained
        asynchrony (ablation bench).
    comm:
        Communicator strategy spec (:mod:`repro.simmpi.topology`), the
        ChainerMN-style ``name[:ranks_per_node[xnodes_per_rack]]`` grammar:
        ``"flat"`` (one rank = one node) or ``"hierarchical[:R[xK]]"``
        (two-level exchange metering with ``R`` ranks/node).  None
        (default) honors ``$REPRO_COMM``, falling back to ``flat``.
        Strategy choice never changes the partition or the communication
        record — only the tier metering the tiered machine models price.
    init_strategy:
        ``"hybrid"`` (Algorithm 2: BFS-growing + random neighbor-label
        adoption), ``"random"``, or ``"block"``.
    single_objective:
        If True, skip the edge balance/refinement stage entirely — the
        configuration the paper uses for the Fig. 6 comparison against
        single-constraint partitioners (KaHIP et al.).
    multilevel:
        Run the multilevel V-cycle (:mod:`repro.multilevel`) instead of
        the flat pipeline: coarsen to a small graph, partition it with
        the flat machinery, project back up with bounded weighted refine
        sweeps per level.  The edge stage still runs last, on the fine
        graph.
    ml_levels:
        Maximum hierarchy depth including the input graph (coarsening
        also stops at the size target or on stagnation).
    ml_coarsen:
        Clustering used by the coarsener: ``"lp"`` (distributed
        size-constrained label propagation, clusters may span ranks) or
        ``"hem"`` (per-rank heavy-edge matching on the owned-induced
        subgraph — the shared-memory kernel reused verbatim).
    ml_refine_iters:
        Weighted refine sweeps per uncoarsening level.
    seed:
        Base RNG seed; rank r uses ``seed + r`` streams.
    """

    outer_iters: int = 3
    balance_iters: int = 5
    refine_iters: int = 10
    x: float = 1.0
    y: float = 1.0
    vert_imbalance: float = 0.10
    edge_imbalance: float = 0.10
    block_size: int = 4096
    comm: Optional[str] = None
    init_strategy: str = "hybrid"
    single_objective: bool = False
    multilevel: bool = False
    ml_levels: int = 8
    ml_coarsen: str = "lp"
    ml_refine_iters: int = 6
    seed: int = 42

    def __post_init__(self) -> None:
        if self.outer_iters < 1 or self.balance_iters < 0 or self.refine_iters < 0:
            raise ValueError("iteration counts must be positive")
        if self.balance_iters + self.refine_iters == 0:
            raise ValueError("need at least one balance or refine iteration")
        if self.vert_imbalance < 0 or self.edge_imbalance < 0:
            raise ValueError("imbalance ratios must be non-negative")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.comm is not None:
            # grammar check only (cheap, import-light); create_communicator
            # validates the strategy name when the runtime is built
            from repro.simmpi.topology.model import parse_comm_spec

            parse_comm_spec(self.comm)
        if self.init_strategy not in ("hybrid", "random", "block"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")
        if self.ml_coarsen not in ("lp", "hem"):
            raise ValueError(
                f"ml_coarsen must be 'lp' or 'hem', got {self.ml_coarsen!r}"
            )
        if self.ml_levels < 1:
            raise ValueError("ml_levels must be >= 1")
        if self.ml_refine_iters < 1:
            raise ValueError("ml_refine_iters must be >= 1")

    @property
    def total_iters(self) -> int:
        """``I_tot``: multiplier-schedule denominator (Algorithm 1)."""
        return self.outer_iters * (self.balance_iters + self.refine_iters)

    def with_(self, **kwargs) -> "PulpParams":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)

    def mult(self, nprocs: int, iter_tot: int) -> float:
        """The dynamic multiplier at schedule position ``iter_tot``.

        Clamped to >= 1: a rank's own moves change the global part size at
        least one-for-one, so the size estimate ``S + mult*C`` must grow at
        least that fast.  The paper's formula can dip below 1 when
        ``nprocs * Y < 1`` (tiny rank counts, far below its target scale),
        which would let a single rank overshoot a part's capacity by
        ``1/(nprocs*Y)``; the clamp is inactive at the paper's scale.
        """
        frac = min(iter_tot / max(self.total_iters, 1), 1.0)
        return max(nprocs * ((self.x - self.y) * frac + self.y), 1.0)
