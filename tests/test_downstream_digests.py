"""Pins: Table III's SpMV and Fig. 8's LP / WCC compute, meter and
communicate exactly what they did when these digests were taken.

Each case hashes its output array's bytes together with its metered
records — ``y`` and the ``spmv`` / ``plan``-tagged event stream (plus the
modeled time) of a 1-D or 2-D SpMV, the values and the whole
``signature()`` of an analytic — under block, random and XtraPuLP
partitions on 4 and 6 ranks.  On ``rmat(9, 8, seed=3)`` label propagation
converges to the weakly connected components, so ``lp/mesh3d-block/4``
pins it where it does not: ``mesh3d(6, 6, 6)`` on 4 block ranks, 14
communities in one component (asserted).  Every backend must reproduce
every digest:
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
from repro.graph import mesh3d, rmat
from repro.spmv import run_spmv

BACKENDS = ("serial", "threads", "procs")
RANKS = (4, 6)
STRATEGIES = ("block", "random", "xtrapulp")

#: ``"<kind>/<strategy>/<ranks>"`` -> sha256, taken before the SpMV and
#: analytics layers were moved onto the one static exchange plan; the
#: records retaken, with every output array unchanged, when an exchange
#: became one metered round carrying its per-rank message counts, again
#: when the halo plan began to be read off the build (no ``plan`` round:
#: the 1-D SpMV and analytics records only), and again when every scalar
#: round began to be metered by its ``nbytes`` instead of its pickle
#: length (the build's two rounds and each analytic's convergence sum:
#: the LP and WCC records only)
DIGESTS = {
    "lp/mesh3d-block/4": "c5ede28322f455be915b9dfd058974bdc2e9481e15a569e524a340cf21c565b1",
    "lp/block/4": "e4a0073a06ffa184bf569d9985ecfdb172160de3a7295f0dffcac75a0a8abd94",
    "lp/block/6": "39040fcb67b643731288c0b32a2aa07125f694231d3c1c723330308d950a41ec",
    "lp/random/4": "44808532d1afed918c84a8602e4bdb7f545333fad3e7e0613d4e3466e4bc74d0",
    "lp/random/6": "2a618e8ef4bff23f18c0212fe2aae33df86395f1eb51320d39e1758e1e86b6e8",
    "lp/xtrapulp/4": "f76ae57c32274081978a3c5ff7d3d0b60bd3a88172876e05ad4e227408507383",
    "lp/xtrapulp/6": "666246484c423c37735e3b76cc9614992f3b1aa00e6afbb8b5cb628b10884972",
    "spmv1d/block/4": "3fce6f10523a655ac2606231190fe6ce2654492ff4fafb90bb7a953ef1a6deed",
    "spmv1d/block/6": "5fa9205e94b5eded6bb3b9a75a443eaa0f5bd81963ac7cd7537d58c6f4e45877",
    "spmv1d/random/4": "fdea1ad8a7923f6c2c8f323df395093b5801358b041017b2fa585d3f5c668df7",
    "spmv1d/random/6": "17da07beeb248c221bfd4a1dfc25d9080b93b54ce3b099a632e6c11c7f1a2bdd",
    "spmv1d/xtrapulp/4": "03f08a24aa2b4f56a078ada7978ef7052ff994327eda77fce80e75ad265e84d2",
    "spmv1d/xtrapulp/6": "aa107f5eed576089a6348de98251b5f4903cb55f0be8f23b57f2a289c62604ef",
    "spmv2d/block/4": "26ae5c3989b5e917a42e14330f00aa0d6716beb31000102adc65b64a23bc390c",
    "spmv2d/block/6": "8a9b37534044d054f0f9df76a29b67f734059d5103b7f5d8e360b2e53e225415",
    "spmv2d/random/4": "a8135509d06965a1d46147b3d74bbdf23208aedd99c25a2f6dbd7f40a3ea78da",
    "spmv2d/random/6": "3b7968a8609cec727c1449dbf203b98f0122da6436e1ca93ed4cafb50633a302",
    "spmv2d/xtrapulp/4": "8a02dea38768b3736bd737cbda3a9fa4f45d1e5ea90cc80c4aea1f921e08cfe9",
    "spmv2d/xtrapulp/6": "621e952ff111c3ef03b2396ea47e2f058929ee865693df34ff1343a6579a6666",
    "wcc/block/4": "8a690be693b4717b0f28035eb3b7941f93d7b68ac6bc74328c1db4fabce6cd19",
    "wcc/block/6": "c753444b1844f3cc749866a98f11f41ec44f1f724358aa3d609295f8bffae4c7",
    "wcc/random/4": "5728bad5d5f611fa051f8fffc302403a8af0b459a2f93e0f2230f379cae24341",
    "wcc/random/6": "abf515f2438d83c68873fd16aff80c09d2eaf50d40290381134be604e01e20b9",
    "wcc/xtrapulp/4": "dd3027474ec5734c098b26e5b9e9bdbce2433a99a823c199202145e5b65ef3b5",
    "wcc/xtrapulp/6": "825ded8a4d703c20108cd2a4b961668764940dd83a509c64abab67008b92eefc",
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
    # where label propagation is not the components
    mesh = mesh3d(6, 6, 6)
    lp, wcc = (
        run_analytic(mesh, kernel, nprocs=4,
                     distribution=vertex_block_partition(mesh, 4),
                     backend=backend, **kwargs)
        for kernel, kwargs in ((label_propagation_communities, {"iters": 5}),
                               (weakly_connected_components, {})))
    assert len(np.unique(wcc.values)) == 1
    assert len(np.unique(lp.values)) > 1
    out["lp/mesh3d-block/4"] = _sha(lp.values, lp.stats.signature())
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_downstream_digests_hold(graph, partitions, backend):
    got = digests(graph, partitions, backend)
    assert sorted(got) == sorted(DIGESTS)
    changed = sorted(k for k in DIGESTS if got[k] != DIGESTS[k])
    assert not changed, f"{backend}: digests changed for {changed}"
