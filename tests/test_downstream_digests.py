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
#: analytics layers were moved onto the one static exchange plan
DIGESTS = {
    "lp/block/4": "238b35cf1036fdcbf073a7b2c85f05cd26c116afaee8d9cb3c7f8698ece167b4",
    "lp/block/6": "99ce6e91fdc2c4997826c3017efa235ca83e4d10ca4849a4d95e11f40dbb664b",
    "lp/random/4": "8962e96a6a0b3c6dc82e9ecf8a0e06387315954680df8823f5fcbb6591318436",
    "lp/random/6": "a3df9908a479a08ccca32ffd3bee4c8a89ed9bf37009bb9237661f14484b4253",
    "lp/xtrapulp/4": "44cda4a782f3b9fb40435fb7d13b0e66f83e6038bad1a626714ca3912d67d74d",
    "lp/xtrapulp/6": "202a092d0bd0983f151cee42c6615578673b037372afdb6e9238469e178a8375",
    "spmv1d/block/4": "78470b933c6470f60ab9adfd6442078fc9154b02a0b0ba411dbb1deebb15bddd",
    "spmv1d/block/6": "ad79b8da92f8f8d7c0c9b78acb23d94f8cc7c958e7ca534a0424d70fdc81c748",
    "spmv1d/random/4": "05122dc8c9902b7f09b32e3cf6310cbfeb63a12483cf799c9ea708dba54d4632",
    "spmv1d/random/6": "465e4ae7ce9b90fa0b6b4e166186a6e9f83ee7a6ab258dd2b41927361c19dfa4",
    "spmv1d/xtrapulp/4": "25458874aa46d7f3ad5ecfebfb71763b91eed5593489ba9f84a18d812eddaa7c",
    "spmv1d/xtrapulp/6": "f8ff1b6e206f156db2ae2f578f9c872dd56e6a9a64ddd45763d5afe139a51b80",
    "spmv2d/block/4": "84b8a757fd993d60e9b702bf604430ad157af335b9758ab8ecc91fe0294251c5",
    "spmv2d/block/6": "e051f4f12df6ef28c637109770a7eab7a2fca4a76774dbee46ddc3a47402dda4",
    "spmv2d/random/4": "db9878fecb801a138f1f8fa86400f27b508c679a42c7ca301b92214a83bec659",
    "spmv2d/random/6": "e1aab34b54b89866d6c27632e853de96c1ea4571a4f6435e3a5417efdba4bb61",
    "spmv2d/xtrapulp/4": "d3f83a6df8df7f1118b97c9b46eeb2ecb5576311b7b54e34ccd057b28276976b",
    "spmv2d/xtrapulp/6": "946ad8ad0fe05e336678ae6fb50bb16b738b41be3c9b41419cd8cc06e1d79c8b",
    "wcc/block/4": "b31d593902c1180f8d670f41cfdaad24afb8a34abf02aa23075745dd18320701",
    "wcc/block/6": "f5aaca3974b4ddc8d68709fa7334d5c373ee22713a424b8712108d473d143cd1",
    "wcc/random/4": "398b1e010f526e531db2c23fb3770fd78576e02610f13c0f2139367aa49cdef5",
    "wcc/random/6": "f622609e392ae961fbea3764eea52d005e8e7f6fb59b435b0230c8423418fb01",
    "wcc/xtrapulp/4": "5a688336acfd533289b2a15f5dcef6846c382d43a58dc7290b06a7b096d4f40b",
    "wcc/xtrapulp/6": "247d4785de9cabcf38e9a44cc45944d2e7c2ff256543daf536900b55d7b81e5e",
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
