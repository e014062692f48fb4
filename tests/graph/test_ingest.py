"""The one-buffer builder against the path it replaced (ISSUE 21).

- ``from_edges`` / ``read_edge_list`` return the ``Graph`` of
  ``tests/reference/clean_edges.py`` (the parent's ``_clean_edges``) bit for
  bit, on every option and input shape;
- their transient memory stays within 3 x the CSR they return (the parent
  read 4.8-6.0 x), ``read_edge_list``'s within 1.6 x: it parses into an
  int32 block when the ids fit (1.5 x; the int64 block read 2.0 x) and
  falls back to int64 for ids of 2**31 and more;
- int32 endpoint columns form their keys in int64, also near 2**31;
- every generator returns the parent's graph on the seeds the suite and
  ``benchmarks/perf/workloads.py`` use (sha256 of ``directed`` + ``offsets``
  + ``adj``, taken on the parent commit).

Also runs on the NumPy 1.26 CI leg: ``out=`` ufuncs, ``rng.random(out=)``,
in-place ``remainder`` and ``**=`` must give the same graphs there.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges, generators, io
from repro.graph.builders import _DROPPED, _arc_keys
from repro.graph.gather import sorted_unique
from tests import graphs
from tests.reference.clean_edges import _clean_edges, reference_from_edges


def same_graph(a, b):
    return (
        a == b and a.n == b.n
        and a.offsets.dtype == b.offsets.dtype == np.int64
        and a.adj.dtype == b.adj.dtype == np.int64
        and a.adj.flags.c_contiguous and not a.adj.flags.writeable
    )


@st.composite
def edge_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    count = draw(st.integers(min_value=0, max_value=40)) if n else 0
    ends = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends),
                          min_size=count, max_size=count))
    layout = draw(st.sampled_from(["int64", "int32", "list", "block"]))
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return n, pairs, layout, flags


@settings(max_examples=300, deadline=None)
@given(edge_inputs())
def test_from_edges_equals_the_replaced_builder(case):
    n, pairs, layout, (directed, dedup, drop) = case
    block = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if layout == "block":          # strided columns of one (E, 2) array
        src, dst = block[:, 0], block[:, 1]
    elif layout == "list":
        src, dst = block[:, 0].tolist(), block[:, 1].tolist()
    else:
        src, dst = block[:, 0].astype(layout), block[:, 1].astype(layout)
    kwargs = dict(directed=directed, dedup=dedup, drop_self_loops=drop)
    got = from_edges(n, src, dst, **kwargs)
    assert same_graph(got, reference_from_edges(n, src, dst, **kwargs))
    assert np.array_equal(block, np.array(pairs).reshape(-1, 2))  # untouched


@pytest.mark.parametrize("args", [
    (-1, [], []), (2, [0], [5]), (2, [-1], [0]), (3, [0, 1], [1]),
    (0, [0], [0]),
])
def test_from_edges_rejects_what_the_replaced_builder_rejected(args):
    with pytest.raises(ValueError) as new:
        from_edges(*args)
    with pytest.raises(ValueError) as old:
        reference_from_edges(*args)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("directed", [True, False])
def test_read_edge_list_equals_the_replaced_builder(tmp_path, header, directed):
    g = generators.social(300, 10, seed=4, directed=directed)
    path = tmp_path / "g.el"
    io.write_edge_list(g, path, header=header)
    src, dst = g.unique_edges()
    n = g.n if header else int(max(src.max(), dst.max())) + 1   # inferred
    want = reference_from_edges(n, src, dst, directed=header and directed)
    assert same_graph(io.read_edge_list(path), want)
    # extra columns are ignored, also when n is inferred from the block
    path.write_text("0 1 99\n1 2 99\n")
    assert same_graph(io.read_edge_list(path),
                      reference_from_edges(3, [0, 1], [1, 2]))
    path.write_text("# nothing\n")
    with pytest.warns(UserWarning, match="no data"):
        assert same_graph(io.read_edge_list(path),
                          reference_from_edges(0, [], []))


def traced_peak(fn):
    """``(result, peak bytes above the start)`` of ``fn()``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def csr_bytes(g):
    return g.offsets.nbytes + g.adj.nbytes


def test_from_edges_transient_memory_is_bounded_by_the_csr():
    n = 1 << 13
    raw = generators.rmat_edges(13, 16, seed=3)      # duplicates + loops
    clean = generators.rmat(13, 16, seed=3).unique_edges()
    for src, dst in (raw, clean):
        g, peak = traced_peak(lambda: from_edges(n, src, dst))
        assert peak <= 3 * csr_bytes(g)
    # nothing to compress: the key buffer is the adjacency
    assert peak <= 1.5 * csr_bytes(g)


def test_read_edge_list_transient_memory_is_bounded_by_the_csr(tmp_path):
    path = tmp_path / "g.el"
    io.write_edge_list(generators.rmat(13, 16, seed=3), path)
    g, peak = traced_peak(lambda: io.read_edge_list(path))
    # int32 block (0.5 x) beside the int64 key buffer (1 x); an int64 parse
    # or a widening copy of the columns would read 2 x
    assert peak <= 1.6 * csr_bytes(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2 ** 31 - 64, max_value=2 ** 31), st.data(),
       st.booleans(), st.booleans())
def test_arc_keys_of_int32_columns_near_2_31(n, data, directed, drop):
    """The keys of int32 columns equal those of the int64 columns the
    replaced builder widened them to, and the ``src * n + dst`` of Python
    integers: formed in int64, never overflowing in int32."""
    ends = st.one_of(st.integers(0, 63), st.integers(n - 64, n - 1))
    pairs = data.draw(st.lists(st.tuples(ends, ends), max_size=30))
    block = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    kwargs = dict(directed=directed, drop_self_loops=drop)
    got = _arc_keys(n, block[:, 0].astype(np.int32),
                    block[:, 1].astype(np.int32), **kwargs)
    assert np.array_equal(got, _arc_keys(n, block[:, 0], block[:, 1],
                                         **kwargs))
    arcs = pairs if directed else pairs + [(v, u) for u, v in pairs]
    want = [_DROPPED if drop and u == v else u * n + v for u, v in arcs]
    assert got.dtype == np.int64 and got.tolist() == want


def test_read_edge_list_ids_past_int32_take_the_int64_parse(tmp_path,
                                                             monkeypatch):
    """ids of 2**31 and more fail the int32 parse and are read as int64.

    A graph with such ids has a 16 GiB ``offsets``, so the builder is
    stopped at the key buffer and compared with the reference builder's
    edges (``_clean_edges``: sorted, deduplicated ``src * n + dst``)."""
    big = 2 ** 31
    src = np.array([0, big + 2, 5, big - 1, big, 3])
    dst = np.array([big, 1, 5, big + 2, 0, 4])
    path = tmp_path / "big.el"
    path.write_text("".join(f"{u} {v}\n" for u, v in zip(src, dst)))
    parsed = []
    real_arc_keys = io._arc_keys

    def arc_keys(n, s, d, **kwargs):
        parsed.append(s.dtype)
        return real_arc_keys(n, s, d, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(io, "_arc_keys", arc_keys)
        m.setattr(io, "_csr_from_keys", lambda n, key, **kwargs: (n, key))
        n, key = io.read_edge_list(path)
    assert parsed == [np.int64] and n == big + 3
    ref_src, ref_dst = _clean_edges(n, src, dst, symmetrize=True, dedup=True,
                                    drop_self_loops=True)
    assert np.array_equal(sorted_unique(key[key != _DROPPED]),
                          ref_src * n + ref_dst)
    # an extra column past int32 takes the same fallback to a whole graph
    path.write_text(f"0 1 {big}\n1 2 7\n")
    assert same_graph(io.read_edge_list(path),
                      reference_from_edges(3, [0, 1], [1, 2]))


def test_read_edge_list_malformed_token_raises_the_int64_parse_error(
        tmp_path):
    """The int32 parse fails on a malformed token too; the int64 re-parse
    raises what the int64-only reader raised."""
    path = tmp_path / "bad.el"
    path.write_text("# n=4\n0 1\n2 x\n")
    with pytest.raises(ValueError) as old:
        np.loadtxt(path, comments="#", dtype=np.int64, ndmin=2)
    with pytest.raises(ValueError) as new:
        io.read_edge_list(path)
    assert str(new.value) == str(old.value)
    assert "int64" in str(new.value)


#: sha256[:16] of every generator's output at the parent of PR 21
PARENT_GRAPHS = [
    ("rmat", (13, 16), dict(seed=7), "591b42b8ff2bfb4e"),
    ("rmat", (10, 16), dict(seed=7), "4064f03726b8eec2"),
    ("rmat", (9, 8), dict(seed=3), "3850f10a13664103"),
    ("rmat", (10, 8), dict(seed=11), "33b02e6b4085d6c2"),
    ("rmat", (16, 16), dict(seed=1), "08e75d117f3b32f2"),
    ("rmat", (7, 5), dict(seed=0, a=0.45, b=0.25, c=0.15), "889d6eceba71374e"),
    ("rmat", (1, 2), dict(seed=0), "ec81fe4c13e2868e"),
    ("social", (2 ** 17, 24), dict(seed=7), "4e3392989a03247d"),
    ("social", (1024, 24), dict(seed=7), "11eba9a586cffd17"),
    ("social", (1000, 12), dict(seed=5, directed=True), "2e66f909dfc8b20a"),
    ("webcrawl", (2 ** 15, 24), dict(seed=7), "5a0488ad58a43483"),
    ("webcrawl", (1024, 24), dict(seed=7), "0a5a2c7eacf88d10"),
    ("webcrawl", (1024, 12), dict(seed=5), "342cbe9833aca934"),
    ("webcrawl", (3000, 10),
     dict(seed=2, crawl_bias=2.0, intra_fraction=0.5, directed=True),
     "ae790d7a82cc1482"),
    ("webcrawl", (500, 8), dict(seed=1, intra_fraction=1.0), "cc07d7bc01f75100"),
    ("webcrawl", (500, 8), dict(seed=1, intra_fraction=0.0), "8e036d58831a67c2"),
    ("mesh3d", (51, 51, 51), {}, "37c4b21fb5194812"),
    ("mesh3d", (8, 8, 16), {}, "4a4d04c2819b5386"),
    ("mesh3d", (5, 6, 7), dict(stencil=27), "fe9b4e34b1bc445a"),
    ("mesh3d", (4, 1, 3), dict(stencil=7), "d6359b5f008e9d42"),
    ("grid2d", (17, 9), {}, "0a1fe2a10cb4003a"),
    ("grid2d", (6, 11), dict(diagonals=True), "e564634792b58e5e"),
    ("grid2d", (1, 1), {}, "9d908ecfb6b256de"),
    ("erdos_renyi", (4096, 16), dict(seed=3), "2f69c5f1d7d48c2a"),
    ("rand_hd", (4096, 16), dict(seed=3), "bf74e629d17c68b2"),
    ("rand_hd", (50, 1), dict(seed=0), "4cc7e6272db6b1ad"),
    ("watts_strogatz", (2000, 8, 0.1), dict(seed=4), "bd81765781ebd8fb"),
    ("watts_strogatz", (64, 4, 1.0), dict(seed=4), "30929cda0a32d9f0"),
    ("barabasi_albert", (600, 8), dict(seed=9), "d31bfe934adecc1c"),
    ("ring", (9,), {}, "e836392b90de2187"),
    ("path_graph", (5,), {}, "05b80b6105cccbea"),
    ("star", (6,), {}, "fb0cd4857b3e8b1a"),
]


@pytest.mark.parametrize(
    "name, args, kwargs, digest", PARENT_GRAPHS,
    ids=[f"{c[0]}{c[1]}-{i}" for i, c in enumerate(PARENT_GRAPHS)],
)
def test_generators_return_the_parents_graphs(name, args, kwargs, digest):
    # the tests' fixture shapes live in tests/graphs.py
    gen = getattr(generators, name, None) or getattr(graphs, name)
    g = gen(*args, **kwargs)
    h = hashlib.sha256()
    for part in (np.int64(g.directed), g.offsets, g.adj):
        h.update(part.tobytes())
    assert h.hexdigest()[:16] == digest
