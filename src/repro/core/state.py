"""Per-rank partitioning state shared by all XtraPuLP phases."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.params import PulpParams
from repro.dist.distgraph import DistGraph
from repro.dist.wire import WireSpec, make_wire_spec
from repro.graph.gather import expand_ranges
from repro.simmpi.comm import SimComm
from repro.simmpi.stepping import Steps, steppable

UNASSIGNED = np.int64(-1)


@dataclass
class RankState:
    """One rank's partitioning state.

    ``parts`` covers owned + ghost vertices (local-id indexed).  Global
    per-part totals ``Sv``/``Se``/``Sc`` (:meth:`part_totals`) are kept
    consistent across ranks by the sum each iteration's exchange carries on
    its consensus (an Allreduce at phase entry); within an
    iteration each rank tracks its local deltas ``Cv``/``Ce``/``Cc`` and
    *estimates* global sizes as ``S + mult * C`` (the paper's
    distributed-update throttle, §III.C).
    """

    dg: DistGraph
    num_parts: int
    params: PulpParams
    parts: np.ndarray = field(init=False)
    iter_tot: int = 0
    rng: np.random.Generator = field(init=False)
    work_pending: float = 0.0
    edges_touched: float = 0.0
    sweep_log: List[Tuple[str, int, int, int, float]] = field(
        default_factory=list
    )
    vweights: np.ndarray = field(init=False)
    global_vweight: float = field(init=False)
    wire: WireSpec = field(init=False)
    #: Frontier activation thresholds: a function of the graph alone, so
    #: the first phase's FrontierSweeper leaves them here for the others.
    dirt_thresholds: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.parts = np.full(self.dg.n_total, UNASSIGNED, dtype=np.int64)
        self.rng = np.random.default_rng(self.params.seed + 7919 * self.dg.rank)
        # resolved from global quantities, so every rank picks the same
        # record dtypes (a cross-rank invariant of the wire protocol)
        self.wire = make_wire_spec(
            self.dg.max_ghost_global, self.num_parts
        )
        # unit vertex weights by default; see set_vertex_weights
        self.vweights = np.ones(self.dg.n_local, dtype=np.float64)
        self.global_vweight = float(self.dg.global_n)

    @cached_property
    def degrees_f64(self) -> np.ndarray:
        """Owned + ghost degrees as float64 (tally weights, edge-size
        deltas): built on first use, once per state, freed with it."""
        return self.dg.degrees_full.astype(np.float64)

    def set_vertex_weights(self, weights: np.ndarray, total: float) -> None:
        """Enable weighted vertex balancing: ``weights`` are this rank's
        owned vertices' weights, ``total`` the global sum (the balance
        target becomes ``(1 + Rat_v) * total / p``)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (self.dg.n_local,):
            raise ValueError("weights must cover exactly the owned vertices")
        if weights.size and weights.min() <= 0:
            raise ValueError("vertex weights must be positive")
        self.vweights = weights
        self.global_vweight = float(total)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything that crosses a phase boundary, as plain data.

        Captured at the step boundaries of the driver's plan (see
        :mod:`repro.ft.checkpoint`): the part labels over owned + ghost
        vertices, the iteration counter, the RNG bit-generator state, and
        the work/sweep accounting.  Phase-local structures (frontier,
        size estimates) are rebuilt by each phase at entry and need no
        capture.  ``pickle`` of the result is deterministic for equal
        states — checkpoint payloads are part of the bit-reproducible
        communication record.
        """
        return {
            "rank": int(self.dg.rank),
            "n_local": int(self.dg.n_local),
            "n_total": int(self.dg.n_total),
            "parts": self.parts.copy(),
            "iter_tot": int(self.iter_tot),
            "rng_state": self.rng.bit_generator.state,
            "work_pending": float(self.work_pending),
            "edges_touched": float(self.edges_touched),
            "sweep_log": list(self.sweep_log),
        }

    def restore(self, snap: dict) -> None:
        """Re-enter the state captured by :meth:`snapshot` (same rank of
        the same distributed graph; shape mismatches raise)."""
        for key, want in (("rank", self.dg.rank),
                          ("n_local", self.dg.n_local),
                          ("n_total", self.dg.n_total)):
            if int(snap[key]) != int(want):
                raise ValueError(
                    f"snapshot {key}={snap[key]} does not match this "
                    f"rank's {key}={want}"
                )
        parts = np.asarray(snap["parts"], dtype=np.int64)
        if parts.shape != self.parts.shape:
            raise ValueError(
                f"snapshot parts shape {parts.shape} != {self.parts.shape}"
            )
        self.parts[:] = parts
        self.iter_tot = int(snap["iter_tot"])
        self.rng.bit_generator.state = snap["rng_state"]
        self.work_pending = float(snap["work_pending"])
        self.edges_touched = float(snap["edges_touched"])
        # the phase tags as the interned objects live entries share, so a
        # later snapshot pickles each tag once, as an uninterrupted run's
        self.sweep_log = [(sys.intern(tag), *rest)
                          for tag, *rest in snap["sweep_log"]]

    # -- targets -------------------------------------------------------------

    @property
    def target_max_vertices(self) -> float:
        """``Imb_v = (1 + Rat_v) W(V) / p`` (eq. 1; weighted if weights set)."""
        return (
            (1.0 + self.params.vert_imbalance)
            * self.global_vweight / self.num_parts
        )

    @property
    def target_max_edges(self) -> float:
        """``Imb_e``, degree-based (2m directed entries total)."""
        total_deg = 2.0 * self.dg.global_m
        return (1.0 + self.params.edge_imbalance) * total_deg / self.num_parts

    def mult(self, comm: SimComm) -> float:
        return self.params.mult(comm.size, self.iter_tot)

    # -- global totals ---------------------------------------------------------

    def flush_work(self, comm: SimComm) -> None:
        """Charge accumulated sweep work to the next collective."""
        if self.work_pending:
            comm.charge(self.work_pending)
            self.work_pending = 0.0

    @steppable
    def part_totals(
        self, comm: SimComm, rows: Tuple[str, ...] = ("v", "e", "c")
    ) -> Steps[np.ndarray]:
        """Global per-part totals, one float64 row per name in ``rows``,
        in one Allreduce of the stacked local sums.

        ``"v"``: vertex weight ``Sv`` (plain counts under unit weights);
        ``"e"``: member degrees ``Se``; ``"c"``: cut edges touching the
        part ``Sc`` — counting from the owned endpoint of every stored arc
        credits each undirected cut edge once to each of its two endpoint
        parts.  ``e`` and ``c`` are integer-valued, so their float sums
        are exact.
        """
        dg, p = self.dg, self.num_parts
        owned = self.parts[: dg.n_local]
        ok = owned >= 0
        local = np.zeros((len(rows), p), dtype=np.float64)
        for i, row in enumerate(rows):
            if row != "c":
                comm.charge(dg.n_local)
                w = {"v": self.vweights, "e": dg.local_degrees}[row]
                local[i] = np.bincount(owned[ok], weights=w[ok], minlength=p)
                continue
            comm.charge(dg.adj.size)
            for _, span in self.iter_blocks():
                # consecutive rows: their arcs are one slice of the CSR
                arcs = slice(dg.offsets[span.start], dg.offsets[span.stop])
                p_src = np.repeat(self.parts[span], dg.local_degrees[span])
                cut = p_src != self.parts[dg.adj[arcs]]
                local[i] += np.bincount(p_src[cut], minlength=p)
        return (yield from comm.Allreduce(local, op="sum"))

    # -- block iteration -----------------------------------------------------

    def iter_blocks(self) -> Iterator[Tuple[np.ndarray, slice]]:
        """Yield (owned lid block, slice) chunks of ``params.block_size``."""
        n = self.dg.n_local
        bs = self.params.block_size
        for start in range(0, n, bs):
            stop = min(start + bs, n)
            yield np.arange(start, stop, dtype=np.int64), slice(start, stop)

    # -- block neighbourhoods ------------------------------------------------

    def gather_block(
        self, lids: np.ndarray, tally: Union[str, np.ndarray] = "unit"
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Gather a block's labelled arcs and charge the sweep's work.

        Returns ``(key, w_arc, counts)``: per arc (row-major, in CSR order)
        the scoring key ``row * num_parts + part`` (``row``: position of
        its source in ``lids``; ``part``: its neighbour's), which the
        caller owns and may overwrite; arcs to UNASSIGNED neighbours are
        dropped.  ``w_arc`` holds the tally weight of each kept arc — None
        for ``tally="unit"``, the neighbour's degree for ``"degree"``, or
        the matching entries (maybe a view) of a per-arc weight array
        aligned with ``dg.adj``.  ``counts[i]`` is ``degree(lids[i])``.

        This is the one place scoring work is charged: gather + tally
        passes over the kept arcs plus the per-row / per-part vector work,
        whatever kernel then consumes the arcs.
        """
        dg = self.dg
        nb = lids.size
        if nb and lids[-1] - lids[0] == nb - 1 and (
            nb == 1 or (lids[1:] - lids[:-1]).min() == 1
        ):
            # a run of consecutive lids (every block of an exhaustive
            # sweep): arcs, neighbours and weights are slices of the CSR
            rows = slice(lids[0], lids[0] + nb)
            arcs = slice(dg.offsets[rows.start], dg.offsets[rows.stop])
            counts = dg.local_degrees[rows]
        else:
            counts = dg.local_degrees[lids]
            arcs = expand_ranges(dg.offsets[lids], counts)
        neigh = dg.adj[arcs]
        nparts = self.parts[neigh]
        if isinstance(tally, str):
            w_arc = self.degrees_f64[neigh] if tally == "degree" else None
        else:
            w_arc = tally[arcs]
        p = self.num_parts
        key = np.repeat(np.arange(0, nb * p, p), counts)
        if nparts.size and nparts.min() < 0:
            ok = nparts >= 0
            key, nparts = key[ok], nparts[ok]
            if w_arc is not None:
                w_arc = w_arc[ok]
        key += nparts
        self.work_pending += 2.0 * key.size + float(nb) + float(p)
        self.edges_touched += float(key.size)
        return key, w_arc, counts

    def block_part_counts(
        self, lids: np.ndarray, *, degree_weighted: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-vertex, per-part neighbor tallies ``(weighted, plain)``
        of a block: ``weighted[i, k]`` sums ``degree(u)`` (or 1) over the
        neighbors ``u`` of ``lids[i]`` in part k, ``plain`` counts them;
        UNASSIGNED neighbors are ignored.  For probes and tests: the phases
        score through :func:`repro.core.scoring.score_block`."""
        key, w_arc, _ = self.gather_block(
            lids, "degree" if degree_weighted else "unit"
        )
        nb, p = lids.size, self.num_parts
        plain = np.bincount(key, minlength=nb * p).reshape(nb, p)
        if not degree_weighted:
            return plain.astype(np.float64), plain
        weighted = np.bincount(key, weights=w_arc, minlength=nb * p)
        return weighted.reshape(nb, p), plain
