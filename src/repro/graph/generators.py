"""Graph generators covering the paper's four graph classes.

* :func:`rmat` — the R-MAT recursive-matrix model [Chakrabarti et al. 2004]
  used for the paper's ``rmat_22``..``rmat_28`` inputs and the Blue Waters
  weak/strong scaling runs.
* :func:`erdos_renyi` — the paper's ``RandER`` uniform random graphs.
* :func:`rand_hd` — the paper's high-diameter random graph: vertex ``k``
  draws ``davg`` neighbors uniformly from ``(k - davg, k + davg)``.
* :func:`mesh3d` — a regular stencil mesh standing in for ``nlpkkt*`` and
  the ``InternalMesh*`` inputs.
* :func:`social` — a heavy-skew R-MAT whose vertex ids are randomly
  permuted, mimicking social-network snapshots (lj/orkut/twitter class).
* :func:`webcrawl` — a community-blocked graph with crawl-ordered ids,
  mimicking web crawls (uk-2002/WDC12 class): block partitions get a low
  cut but terrible edge balance, exactly the WDC12 behaviour in §V.B.

All generators are deterministic in ``seed`` and return simple undirected
graphs (self-loops and duplicates removed).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.builders import from_edges
from repro.graph.csr import Graph
from repro.graph.gather import sorted_unique


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# R-MAT
# ---------------------------------------------------------------------------

def rmat_edges(
    scale: int,
    avg_degree: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw R-MAT endpoint arrays for ``2**scale`` vertices.

    ``avg_degree`` counts *directed* adjacency entries per vertex after
    symmetrization, matching the paper's ``davg`` column (m in Table I is
    ``n * davg / 2`` undirected edges).  Probabilities follow the Graph500
    convention (a=0.57, b=c=0.19, d=0.05).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    d = 1.0 - a - b - c
    if d < -1e-9 or min(a, b, c) < 0:
        raise ValueError("invalid R-MAT probabilities")
    n = 1 << scale
    nedges = (n * avg_degree) // 2
    rng = _rng(seed)
    src = np.zeros(nedges, dtype=np.int64)
    dst = np.zeros(nedges, dtype=np.int64)
    r1, r2 = np.empty(nedges), np.empty(nedges)
    row_bit = np.empty(nedges, dtype=bool)
    col_bit = np.empty(nedges, dtype=bool)
    # One vectorized pass per bit level: pick the quadrant for all edges,
    # in the buffers above (a fresh arc-sized array per step is most of
    # the generation time).
    for bit in range(scale):
        rng.random(out=r1)
        rng.random(out=r2)
        # row bit: 1 with prob c + d; column bit conditional on row bit
        np.less(r1, c + d, out=row_bit)
        r1.fill(b / max(a + b, 1e-12))
        r1[row_bit] = d / max(c + d, 1e-12)
        np.less(r2, r1, out=col_bit)
        src <<= 1
        src |= row_bit
        dst <<= 1
        dst |= col_bit
    return src, dst


def rmat(
    scale: int,
    avg_degree: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = None,
) -> Graph:
    """Undirected R-MAT graph with ``2**scale`` vertices (see
    :func:`rmat_edges`)."""
    src, dst = rmat_edges(scale, avg_degree, a=a, b=b, c=c, seed=seed)
    return from_edges(1 << scale, src, dst)


# ---------------------------------------------------------------------------
# Random graphs
# ---------------------------------------------------------------------------

def erdos_renyi(n: int, avg_degree: int = 16, *, seed: Optional[int] = None) -> Graph:
    """G(n, m) Erdős–Rényi graph with ``m = n * avg_degree / 2`` sampled
    pairs (the paper's RandER)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    nedges = (n * avg_degree) // 2
    src = rng.integers(0, n, size=nedges, dtype=np.int64)
    dst = rng.integers(0, n, size=nedges, dtype=np.int64)
    return from_edges(n, src, dst)


def rand_hd(n: int, avg_degree: int = 16, *, seed: Optional[int] = None) -> Graph:
    """The paper's high-diameter random graph (RandHD).

    "for a vertex with identifier k, we add davg edges connecting it to
    vertices chosen uniform randomly from the interval (k − davg, k + davg)"
    — giving near-1D locality, large diameter, and tiny cut under block
    distributions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if avg_degree < 1:
        raise ValueError("avg_degree must be >= 1")
    rng = _rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), avg_degree)
    dst = rng.integers(-avg_degree + 1, avg_degree, size=src.size, dtype=np.int64)
    dst += src
    np.clip(dst, 0, n - 1, out=dst)
    return from_edges(n, src, dst)


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------

def mesh3d(
    nx: int, ny: int, nz: int, *, stencil: int = 13
) -> Graph:
    """3-D mesh with a 7-, 13-, or 27-point stencil.

    ``stencil=13`` (faces + xy/xz plane diagonals) gives interior degree
    ≈ 13 like the paper's nlpkkt / InternalMesh inputs (davg 13 in Table I).
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("mesh dimensions must be >= 1")
    if stencil not in (7, 13, 27):
        raise ValueError("stencil must be one of 7, 13, 27")
    ids = np.arange(nx * ny * nz, dtype=np.int64).reshape(nx, ny, nz)
    pieces = []  # views; flattened straight into the endpoint arrays

    def link(sl_a, sl_b):
        pieces.append((ids[sl_a], ids[sl_b]))

    s = slice(None)
    # 6 face neighbors (7-point stencil minus center)
    link((slice(None, -1), s, s), (slice(1, None), s, s))
    link((s, slice(None, -1), s), (s, slice(1, None), s))
    link((s, s, slice(None, -1)), (s, s, slice(1, None)))
    if stencil >= 13:
        # plane diagonals: xy and xz (adds ~6 to interior degree)
        link((slice(None, -1), slice(None, -1), s), (slice(1, None), slice(1, None), s))
        link((slice(None, -1), slice(1, None), s), (slice(1, None), slice(None, -1), s))
        link((slice(None, -1), s, slice(None, -1)), (slice(1, None), s, slice(1, None)))
    if stencil == 27:
        link((slice(None, -1), s, slice(1, None)), (slice(1, None), s, slice(None, -1)))
        link((s, slice(None, -1), slice(None, -1)), (s, slice(1, None), slice(1, None)))
        link((s, slice(None, -1), slice(1, None)), (s, slice(1, None), slice(None, -1)))
        # corner diagonals
        link(
            (slice(None, -1), slice(None, -1), slice(None, -1)),
            (slice(1, None), slice(1, None), slice(1, None)),
        )
        link(
            (slice(None, -1), slice(None, -1), slice(1, None)),
            (slice(1, None), slice(1, None), slice(None, -1)),
        )
        link(
            (slice(None, -1), slice(1, None), slice(None, -1)),
            (slice(1, None), slice(None, -1), slice(1, None)),
        )
        link(
            (slice(None, -1), slice(1, None), slice(1, None)),
            (slice(1, None), slice(None, -1), slice(None, -1)),
        )
    src = np.concatenate([p[0] for p in pieces], axis=None)
    dst = np.concatenate([p[1] for p in pieces], axis=None)
    return from_edges(nx * ny * nz, src, dst)


# ---------------------------------------------------------------------------
# Class representatives for the real-world suites
# ---------------------------------------------------------------------------

def social(
    n: int, avg_degree: int = 24, *, seed: Optional[int] = None,
    directed: bool = False,
) -> Graph:
    """Social-network stand-in (lj/orkut/twitter class).

    A heavy-skew R-MAT with the vertex ids randomly permuted: skewed degree
    distribution, low diameter, and *no* locality in the id space — so block
    distributions are no better than random, as for real social snapshots.
    """
    scale = max(1, int(np.ceil(np.log2(max(n, 2)))))
    rng = _rng(seed)
    src, dst = rmat_edges(
        scale, avg_degree, a=0.50, b=0.22, c=0.22,
        seed=None if seed is None else seed + 1,
    )
    # fold the padded id space back onto 0..n-1, then scramble ids
    src %= n
    dst %= n
    perm = rng.permutation(n).astype(np.int64)
    src = perm[src]  # rebound one at a time: three arrays alive, not four
    dst = perm[dst]
    return from_edges(n, src, dst, directed=directed)


def webcrawl(
    n: int,
    avg_degree: int = 24,
    *,
    intra_fraction: float = 0.88,
    seed: Optional[int] = None,
    pareto_shape: float = 1.5,
    site_scale: float = 20.0,
    crawl_bias: float = 1.6,
    directed: bool = False,
) -> Graph:
    """Web-crawl stand-in (uk-2002/WDC12 class).

    Vertices are grouped into Pareto-sized contiguous "sites" (crawl order
    visits a site's pages together); ``intra_fraction`` of edges stay
    within the site, the rest pick a target site preferentially by size.
    ``crawl_bias`` skews link sources toward early crawl positions (early
    pages are landing pages with many discovered links).  Reproduces the
    WDC12 signature from §V.B: vertex-block partitions get a low edge cut
    (crawl locality) but high edge imbalance (~2x: the paper reports 1.85),
    while random partitions cut nearly everything.
    """
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError("intra_fraction must be in [0, 1]")
    rng = _rng(seed)
    # Pareto site sizes, at least 6 pages each, capped to keep many sites
    sizes = []
    total = 0
    while total < n:
        s = int(min(6 + rng.pareto(pareto_shape) * site_scale, n / 16 + 8))
        sizes.append(min(s, n - total))
        total += sizes[-1]
    sizes_arr = np.array(sizes, dtype=np.int64)
    starts = np.zeros(len(sizes_arr), dtype=np.int64)
    np.cumsum(sizes_arr[:-1], out=starts[1:])
    site_of = np.repeat(np.arange(len(sizes_arr), dtype=np.int64), sizes_arr)

    nedges = (n * avg_degree) // 2
    r = rng.random(nedges)  # one float buffer for the three draws
    r **= crawl_bias
    r *= n
    src = r.astype(np.int64)
    # inter-site edges: the draws at or above ``intra_fraction``
    inter_idx = np.flatnonzero(rng.random(out=r) >= intra_fraction)
    # intra-site edges: uniform page within the source's site
    s_site = site_of[src]
    rng.random(out=r)
    r *= sizes_arr[s_site]
    dst = r.astype(np.int64)
    dst += starts[s_site]
    # inter-site targets: preferential by site size (big hubs get linked),
    # skewed toward low page index within the site (landing pages)
    if inter_idx.size:
        probs = sizes_arr / sizes_arr.sum()
        tgt_site = rng.choice(len(sizes_arr), size=inter_idx.size, p=probs)
        within = (rng.random(inter_idx.size) ** 2.0 * sizes_arr[tgt_site]).astype(
            np.int64
        )
        dst[inter_idx] = starts[tgt_site] + within
    return from_edges(n, src, dst, directed=directed)


# ---------------------------------------------------------------------------
# Classic random-graph models the paper's introduction cites
# ---------------------------------------------------------------------------

def watts_strogatz(
    n: int, k: int = 8, rewire: float = 0.1, *, seed: Optional[int] = None
) -> Graph:
    """Watts–Strogatz small-world graph [34]: a ring lattice where each
    vertex connects to its ``k`` nearest neighbors, with each edge rewired
    to a uniform random endpoint with probability ``rewire``.

    Interpolates between the high-diameter lattice (rewire=0, RandHD-like)
    and a random graph (rewire=1): useful for studying how XtraPuLP's
    behaviour shifts between the paper's graph classes.
    """
    if n < 4:
        raise ValueError("watts_strogatz needs n >= 4")
    if k < 2 or k % 2:
        raise ValueError("k must be even and >= 2")
    if not 0.0 <= rewire <= 1.0:
        raise ValueError("rewire must be in [0, 1]")
    rng = _rng(seed)
    base = np.arange(n, dtype=np.int64)
    src = np.repeat(base, k // 2)
    offsets = np.tile(np.arange(1, k // 2 + 1, dtype=np.int64), n)
    dst = (src + offsets) % n
    flip = rng.random(dst.size) < rewire
    dst[flip] = rng.integers(0, n, size=int(flip.sum()), dtype=np.int64)
    return from_edges(n, src, dst)


def barabasi_albert(
    n: int, m_attach: int = 8, *, seed: Optional[int] = None
) -> Graph:
    """Barabási–Albert preferential-attachment graph [2]: each new vertex
    attaches ``m_attach`` edges to existing vertices with probability
    proportional to their degree — the classic power-law degree model.

    Implemented with the repeated-endpoints trick (attach to uniform
    samples of the *edge endpoint list*, which is degree-proportional).
    """
    if n < 2:
        raise ValueError("barabasi_albert needs n >= 2")
    if m_attach < 1:
        raise ValueError("m_attach must be >= 1")
    m_attach = min(m_attach, n - 1)
    rng = _rng(seed)
    # seed clique-ish core of m_attach+1 vertices (a star keeps it simple)
    src_list = [np.zeros(m_attach, dtype=np.int64)]
    dst_list = [np.arange(1, m_attach + 1, dtype=np.int64)]
    endpoints = np.concatenate([src_list[0], dst_list[0]])
    pool = [endpoints]
    pool_size = endpoints.size
    for v in range(m_attach + 1, n):
        flat = np.concatenate(pool) if len(pool) > 1 else pool[0]
        pool = [flat]
        targets = sorted_unique(flat[rng.integers(0, pool_size, size=m_attach)])
        src_v = np.full(targets.size, v, dtype=np.int64)
        src_list.append(src_v)
        dst_list.append(targets)
        new_eps = np.concatenate([src_v, targets])
        pool.append(new_eps)
        pool_size += new_eps.size
    return from_edges(
        n, np.concatenate(src_list), np.concatenate(dst_list)
    )
