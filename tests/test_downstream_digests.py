"""Pins: Table III's SpMV and Fig. 8's LP / WCC compute, meter and
communicate exactly what they did when these digests were taken.

Each case hashes its output array's bytes together with its metered
records — ``y`` and the ``spmv`` / ``plan``-tagged event stream (plus the
modeled time) of a 1-D or 2-D SpMV, the values and the whole
``signature()`` of an analytic — under block, random and XtraPuLP
partitions on 4 and 6 ranks.  Every backend must reproduce every digest:
a rewrite of the exchange layer beneath them that changes a single byte
moved, a unit of work charged or a bit of a result fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.analytics import (
    label_propagation_communities,
    run_analytic,
    weakly_connected_components,
)
from repro.baselines import random_partition, vertex_block_partition
from repro.core import xtrapulp
from repro.graph import rmat
from repro.spmv import run_spmv

BACKENDS = ("serial", "threads", "procs")
RANKS = (4, 6)
STRATEGIES = ("block", "random", "xtrapulp")

#: ``"<kind>/<strategy>/<ranks>"`` -> sha256, taken before the SpMV and
#: analytics layers were moved onto the one static exchange plan; the
#: records retaken, with every output array unchanged, when an exchange
#: became one metered round carrying its per-rank message counts
DIGESTS = {
    "lp/block/4": "07177fcc07b439cca4910a03a40ea65a1f331ea4824e7c5bfbb37748775d2958",
    "lp/block/6": "7116e7ca9be81f85827b6c26ba4613a18eb3ed1f01868f046ba21909da11379a",
    "lp/random/4": "1d2fcdfeb47ceb25c797c844e8f6abecf59a290a520d3720284128fc94c8fa1e",
    "lp/random/6": "f7aa058753a1c239784d74fa47976ff125aecca64c98f35cfd21fd2fa54c71a6",
    "lp/xtrapulp/4": "94bd6810636c396995e3e82156c7797b47ce0cbb05ff8fd903f2093421bfac48",
    "lp/xtrapulp/6": "9c257a1f2e9cbcb99908008845c1ea55cf85fcd8eb2669239e2ec64d98c72a1d",
    "spmv1d/block/4": "aa327f007049517e096bd20c4193749ccb7d1c3f66d273d8e34ff481419d9ca4",
    "spmv1d/block/6": "e86b6ca9cfbd5380fc61448520a5398cace00268a0098602e85085e573594905",
    "spmv1d/random/4": "b5dfb6049b686d845a1f201367d5afa0513018a49ec6fa8370fa8ede3d316ac6",
    "spmv1d/random/6": "007adec773df8c3bbcb7bed91ee610eeadb22865c62d6b699c4a20299f09dd7b",
    "spmv1d/xtrapulp/4": "6b1afa119507362b3ecb0b9b13eec5869a760e06adf9179f28d6feb838d252b4",
    "spmv1d/xtrapulp/6": "01d6fa15a9a9d34902401e216a60c9e38eea555a4156cff25f1a70bd4b44a680",
    "spmv2d/block/4": "26ae5c3989b5e917a42e14330f00aa0d6716beb31000102adc65b64a23bc390c",
    "spmv2d/block/6": "8a9b37534044d054f0f9df76a29b67f734059d5103b7f5d8e360b2e53e225415",
    "spmv2d/random/4": "a8135509d06965a1d46147b3d74bbdf23208aedd99c25a2f6dbd7f40a3ea78da",
    "spmv2d/random/6": "3b7968a8609cec727c1449dbf203b98f0122da6436e1ca93ed4cafb50633a302",
    "spmv2d/xtrapulp/4": "8a02dea38768b3736bd737cbda3a9fa4f45d1e5ea90cc80c4aea1f921e08cfe9",
    "spmv2d/xtrapulp/6": "621e952ff111c3ef03b2396ea47e2f058929ee865693df34ff1343a6579a6666",
    "wcc/block/4": "acf8c1a5ab3d5b78cb5f2e4ab8ff7ffc11d3dc2d04b594bcfa2b56d1ae5fe205",
    "wcc/block/6": "b298211d64828e37a53bbbc8b6732cc67158403fc28e7ee0d6bd32d0ee5dd5bc",
    "wcc/random/4": "b42294c77a7c8e0668e523489de0269b84400b2781c212295f0d5894e85d4a81",
    "wcc/random/6": "85f0c0249e868cb8bfcfaa2e5e88bf6b715540656e2f80d89321d4a77963f58c",
    "wcc/xtrapulp/4": "f9dff7aa64340fbba015459ec4dc5161381a7ab8933c0b491287a4733c32c837",
    "wcc/xtrapulp/6": "018a20b603b74af9d25cda010d71345ce9cb08faa58fd628ac13af46e3f62afc",
}


def _sha(array: np.ndarray, records) -> str:
    h = hashlib.sha256(np.ascontiguousarray(array).tobytes())
    h.update(repr(records).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 8, seed=3)


def _partition(graph, strategy, p):
    if strategy == "block":
        return vertex_block_partition(graph, p)
    if strategy == "random":
        return random_partition(graph, p, seed=0)
    return xtrapulp(graph, p, nprocs=2, backend="serial").parts


@pytest.fixture(scope="module")
def partitions(graph):
    return {(strategy, p): _partition(graph, strategy, p)
            for strategy in STRATEGIES for p in RANKS}


def digests(graph, partitions, backend):
    out = {}
    for (strategy, p), parts in partitions.items():
        for layout in ("1d", "2d"):
            r = run_spmv(graph, parts, layout=layout, nprocs=p, iters=2,
                         backend=backend)
            records = (r.stats.filtered(["spmv", "plan"]).signature(),
                       r.modeled_seconds)
            out[f"spmv{layout}/{strategy}/{p}"] = _sha(r.y, records)
        for name, kernel, kwargs in (
            ("lp", label_propagation_communities, {"iters": 5}),
            ("wcc", weakly_connected_components, {}),
        ):
            r = run_analytic(graph, kernel, nprocs=p, distribution=parts,
                             backend=backend, **kwargs)
            out[f"{name}/{strategy}/{p}"] = _sha(r.values, r.stats.signature())
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_downstream_digests_hold(graph, partitions, backend):
    got = digests(graph, partitions, backend)
    assert sorted(got) == sorted(DIGESTS)
    changed = sorted(k for k in DIGESTS if got[k] != DIGESTS[k])
    assert not changed, f"{backend}: digests changed for {changed}"
