"""Per-rank view of a distributed graph (paper §III.A).

Each rank owns a subset of vertices and their incident edges in a local
CSR; vertices in the one-hop neighborhood owned elsewhere are **ghosts**.
Local ids are ``0 .. n_local-1`` for owned vertices (in global-id order)
followed by ``n_local .. n_local+n_ghost-1`` for ghosts (also in global-id
order).  Part labels and other per-vertex arrays are sized
``n_local + n_ghost`` so algorithms index them directly with local
adjacency entries.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dist.distribution import Distribution
from repro.dist.wire import stored_dtype
from repro.graph.gather import expand_ranges, neighbor_gather


def ghost_arcs(
    offsets: np.ndarray, adj: np.ndarray, n_local: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(source lid, ghost index) of every arc that leaves the rank, in CSR
    order — so the sources are non-decreasing.  The sources are stored
    (as ``ghost_in_adj``), so they come in the elected dtype."""
    src = np.repeat(np.arange(n_local, dtype=stored_dtype(n_local - 1)),
                    np.diff(offsets))
    is_ghost = adj >= n_local
    return src[is_ghost], adj[is_ghost] - n_local


def ghost_incidence(
    sources: np.ndarray, targets: np.ndarray, n_ghost: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR transpose of the ghost columns: for each ghost lid, the owned
    vertices adjacent to it (sorted ascending within each ghost's slice).

    ``sources`` is non-decreasing, so the ``lexsort((sources, targets))``
    order is one value sort of ``target << bits | source`` keys, unpacked
    after (a stable argsort on ``targets`` where the keys pass 63 bits)."""
    gin_offsets = np.zeros(n_ghost + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n_ghost), out=gin_offsets[1:])
    bits = int(sources.max(initial=0)).bit_length()
    if max(n_ghost - 1, 0).bit_length() + bits > 63:
        return gin_offsets, sources[np.argsort(targets, kind="stable")]
    key = targets.astype(np.int64)
    key <<= bits
    key |= sources
    key.sort()
    key &= (1 << bits) - 1
    return gin_offsets, key.astype(sources.dtype)


class DistGraph:
    """One rank's local graph.  Built by :func:`repro.dist.build.build_dist_graph`."""

    __slots__ = (
        "dist",
        "rank",
        "n_local",
        "n_ghost",
        "offsets",
        "adj",
        "l2g",
        "ghost_owners",
        "degrees_full",
        "local_degrees",
        "send_rank_offsets",
        "send_rank_adj",
        "send_ghost_slot",
        "max_ghost_global",
        "_ghost_in",
        "global_n",
        "global_m",
        "dir_out_offsets",
        "dir_out_adj",
        "dir_in_offsets",
        "dir_in_adj",
    )

    def __init__(
        self,
        dist: Distribution,
        rank: int,
        offsets: np.ndarray,
        adj: np.ndarray,
        l2g: np.ndarray,
        ghost_owners: np.ndarray,
        degrees_full: np.ndarray,
        send_rank_offsets: np.ndarray,
        send_rank_adj: np.ndarray,
        send_ghost_slot: np.ndarray,
        max_ghost_global: int,
        global_n: int,
        global_m: int,
    ) -> None:
        self.dist = dist
        self.rank = int(rank)
        self.n_local = int(dist.count(rank))
        self.n_ghost = int(l2g.size - self.n_local)
        self.offsets = offsets
        self.adj = adj
        self.l2g = l2g
        self.ghost_owners = ghost_owners
        self.degrees_full = degrees_full
        #: Degrees of owned vertices: all their edges are stored locally, so
        #: the global degrees are the row lengths ``np.diff(offsets)``.
        self.local_degrees = degrees_full[: self.n_local]
        self.send_rank_offsets = send_rank_offsets
        self.send_rank_adj = send_rank_adj
        #: Compact-wire routing table, aligned with ``send_rank_adj``:
        #: entry ``i`` is the *destination rank's* ghost slot index of this
        #: vertex (position in that rank's gid-sorted ghost array), learned
        #: by a one-time build exchange.  A receiver applies an update with
        #: ``parts[n_local + slot] = part`` — no gid lookup per exchange.
        self.send_ghost_slot = send_ghost_slot
        #: Max ghost count over all ranks (Allreduced once at build);
        #: bounds every slot index, so it fixes the compact slot dtype.
        self.max_ghost_global = int(max_ghost_global)
        #: ghost -> owned incidence, built on first use (see
        #: :meth:`ghost_touch_sources`)
        self._ghost_in: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.global_n = int(global_n)
        self.global_m = int(global_m)
        # directed views (filled by repro.analytics.engine.attach_directed)
        self.dir_out_offsets: Optional[np.ndarray] = None
        self.dir_out_adj: Optional[np.ndarray] = None
        self.dir_in_offsets: Optional[np.ndarray] = None
        self.dir_in_adj: Optional[np.ndarray] = None
        for arr in (offsets, adj, l2g, ghost_owners, degrees_full,
                    self.local_degrees, send_rank_offsets, send_rank_adj,
                    send_ghost_slot):
            arr.setflags(write=False)

    # -- id mapping ---------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Owned + ghost vertex count (size of per-vertex work arrays)."""
        return self.n_local + self.n_ghost

    @property
    def owned_gids(self) -> np.ndarray:
        return self.l2g[: self.n_local]

    @property
    def ghost_gids(self) -> np.ndarray:
        return self.l2g[self.n_local:]

    def ghost_lids(self, gids: np.ndarray) -> np.ndarray:
        """Local ids of ghost gids (must all be ghosts of this rank)."""
        gids = np.asarray(gids, dtype=np.int64)
        ghosts = self.ghost_gids
        pos = np.searchsorted(ghosts, gids)
        if gids.size and (
            pos.max(initial=0) >= ghosts.size or np.any(ghosts[pos] != gids)
        ):
            raise ValueError(f"rank {self.rank}: gids include non-ghosts")
        return pos + self.n_local

    def owned_lids(self, gids: np.ndarray) -> np.ndarray:
        return self.dist.lid(self.rank, gids)

    # -- adjacency ------------------------------------------------------------

    def neighbors(self, lid: int) -> np.ndarray:
        """Local-id adjacency slice of an owned vertex."""
        return self.adj[self.offsets[lid]:self.offsets[lid + 1]]

    def neighbor_block(self, lids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return neighbor_gather(self.offsets, self.adj, lids)

    @property
    def num_local_edges(self) -> int:
        return int(self.adj.size)

    def _incidence(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._ghost_in is None:
            sources, targets = ghost_arcs(self.offsets, self.adj, self.n_local)
            self._ghost_in = ghost_incidence(sources, targets, self.n_ghost)
            for arr in self._ghost_in:
                arr.setflags(write=False)
        return self._ghost_in

    @property
    def ghost_in_offsets(self) -> np.ndarray:
        """CSR offsets of the ghost → owned incidence, one row per ghost."""
        return self._incidence()[0]

    @property
    def ghost_in_adj(self) -> np.ndarray:
        """Owned lids of the ghost → owned incidence (stored dtype)."""
        return self._incidence()[1]

    def ghost_touch_sources(self, ghost_lids: np.ndarray) -> np.ndarray:
        """Owned vertices adjacent to the given ghost local ids.

        The local CSR has rows only for owned vertices, so reacting to a
        ghost part update ("which owned vertices must re-evaluate?") needs
        this reverse ghost→owned incidence, built on the first call: a
        level of a V-cycle holds it only once it is refined.  Returns the
        concatenated owned lids (ascending within each ghost's slice; may
        repeat across ghosts — callers dedupe via masks).
        """
        idx = np.asarray(ghost_lids, dtype=np.int64) - self.n_local
        starts = self.ghost_in_offsets[idx]
        counts = self.ghost_in_offsets[idx + 1] - starts
        return self.ghost_in_adj[expand_ranges(starts, counts)]

    def __repr__(self) -> str:
        return (
            f"DistGraph(rank={self.rank}/{self.dist.nprocs}, "
            f"n_local={self.n_local}, n_ghost={self.n_ghost}, "
            f"local_edges={self.num_local_edges})"
        )
