"""1-D vertex distributions: who owns which global vertex.

The paper distributes vertices either in contiguous **blocks** or
**randomly** ("we observe random distributions are more scalable in
practice for irregular networks"), and the analytics/SpMV experiments
additionally place vertices by a computed **partition**.  All three are
instances of :class:`Distribution`.

Local-id convention (uniform across distributions): rank ``r``'s owned
vertices are its globally-sorted owned gid list; ``lid(g)`` is the position
of ``g`` in that list.  The simulator materializes the full owner array
(int32, one entry per global vertex); a production implementation computes
ownership arithmetically (block) or by hash (random) — the behaviour is
identical, only the memory footprint differs, which is irrelevant at
simulation scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np


def block_sizes(n: int, k: int) -> np.ndarray:
    """Sizes of ``n`` items cut into ``k`` contiguous blocks of near-equal
    size, the remainder spread one each over the first blocks (int64)."""
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1
    return sizes


def random_owner(n: int, nprocs: int, seed: int) -> np.ndarray:
    """Owner table of :class:`RandomDistribution`: the balanced block owner
    table shuffled by ``seed`` (int32)."""
    owner = np.repeat(np.arange(nprocs, dtype=np.int32), block_sizes(n, nprocs))
    np.random.default_rng(seed).shuffle(owner)
    return owner


def rank_order(owner: np.ndarray, nprocs: int) -> np.ndarray:
    """Every rank's gids ascending, rank-major (int64).

    One stable sort of the owner table (on 1- or 2-byte keys where they
    fit: a radix sort) — O(n) instead of one O(n) mask per rank."""
    key = owner.astype(np.min_scalar_type(nprocs - 1), copy=False)
    return np.argsort(key, kind="stable").astype(np.int64, copy=False)


class Distribution:
    """Base: ownership map from an explicit owner array.

    ``by_rank`` is :func:`rank_order` of the owner table when the caller
    has it already — ranks that share one table then share its order too,
    and none sorts again."""

    def __init__(
        self, owner_array: np.ndarray, nprocs: int,
        by_rank: Optional[np.ndarray] = None,
    ) -> None:
        owner = np.ascontiguousarray(owner_array, dtype=np.int32)
        if owner.ndim != 1:
            raise ValueError("owner array must be 1-D")
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if owner.size and (owner.min() < 0 or owner.max() >= nprocs):
            raise ValueError("owner ranks out of range")
        self._owner = owner
        self._owner.setflags(write=False)
        self.n = int(owner.size)
        self.nprocs = int(nprocs)
        if by_rank is None:
            by_rank = rank_order(owner, nprocs)
        by_rank.setflags(write=False)
        ends = np.cumsum(np.bincount(owner, minlength=nprocs))
        self._owned: List[np.ndarray] = np.split(by_rank, ends[:-1])

    # -- queries ---------------------------------------------------------------

    def owner(self, gids: Union[int, np.ndarray]) -> Union[int, np.ndarray]:
        """Owning rank of one or many global vertex ids."""
        if np.isscalar(gids):
            return int(self._owner[gids])
        return self._owner[np.asarray(gids, dtype=np.int64)]

    @property
    def owner_table(self) -> np.ndarray:
        """Owning rank of every global vertex (read-only int32, length n)."""
        return self._owner

    def owned(self, rank: int) -> np.ndarray:
        """Sorted global ids owned by ``rank`` (read-only)."""
        return self._owned[rank]

    def count(self, rank: int) -> int:
        return int(self._owned[rank].size)

    def counts(self) -> np.ndarray:
        return np.array([a.size for a in self._owned], dtype=np.int64)

    def lid(self, rank: int, gids: np.ndarray) -> np.ndarray:
        """Local ids (positions in ``owned(rank)``) of gids owned by ``rank``.

        Caller must guarantee ownership; violations raise.
        """
        gids = np.asarray(gids, dtype=np.int64)
        pos = np.searchsorted(self._owned[rank], gids)
        if gids.size and (
            pos.max(initial=0) >= self._owned[rank].size
            or np.any(self._owned[rank][pos] != gids)
        ):
            raise ValueError(f"some gids are not owned by rank {rank}")
        return pos

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, nprocs={self.nprocs})"


class BlockDistribution(Distribution):
    """Contiguous ranges: rank r owns ``[r*n/p, (r+1)*n/p)`` (remainder
    spread over the first ranks)."""

    def __init__(self, n: int, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        owner = np.repeat(np.arange(nprocs, dtype=np.int32),
                          block_sizes(n, nprocs))
        super().__init__(owner, nprocs)


class RandomDistribution(Distribution):
    """Seeded random assignment, balanced to within one vertex per rank."""

    def __init__(self, n: int, nprocs: int, *, seed: int = 0) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        super().__init__(random_owner(n, nprocs, seed), nprocs)
        self.seed = seed


class PartitionDistribution(Distribution):
    """Ownership given directly by a computed partition (part k → rank k).

    Used by the analytics and SpMV experiments to place data according to a
    partitioner's output.  Requires ``number of parts == nprocs``.
    """

    def __init__(self, parts: np.ndarray, nprocs: int) -> None:
        parts = np.asarray(parts)
        if parts.size and parts.max() >= nprocs:
            raise ValueError(
                f"partition references part {parts.max()} but nprocs={nprocs}"
            )
        super().__init__(parts.astype(np.int32), nprocs)


def make_distribution(
    kind: str,
    n: int,
    nprocs: int,
    *,
    seed: int = 0,
    parts: Optional[Sequence[int]] = None,
) -> Distribution:
    """Factory: ``"block"``, ``"random"``, or ``"partition"``."""
    if kind == "block":
        return BlockDistribution(n, nprocs)
    if kind == "random":
        return RandomDistribution(n, nprocs, seed=seed)
    if kind == "partition":
        if parts is None:
            raise ValueError("partition distribution requires parts")
        return PartitionDistribution(np.asarray(parts), nprocs)
    raise ValueError(f"unknown distribution kind {kind!r}")
